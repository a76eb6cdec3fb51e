"""Malformed input files through `supertw solve`, in process.

Every graph file and formula file drawn here is malformed by construction:
one corruption is applied to a well-formed one. The CLI contract is that
each such solve exits 2 with exactly one JSON error object on stderr,
never 0 or 1, which mean YES and NO. The settings are derandomized and
bounded, so the run is reproducible and takes a few seconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from supertw import cli

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None, suppress_health_check=list(HealthCheck))

IDS = st.one_of(st.integers(-3, 20), st.sampled_from(["a", "b", "c", "u0"]))
# JSON values that are no graph id: unhashable, or equal to an int id
BAD_IDS = st.one_of(st.lists(IDS, max_size=2), st.dictionaries(st.just("k"), IDS, max_size=1),
                    st.booleans(), st.none(), st.just(1.0), st.just(0.5))
NOT_A_LIST = st.one_of(st.text(max_size=3), st.integers(), st.none(),
                       st.dictionaries(st.sampled_from("ab"), IDS, max_size=2))

GOOD_GRAPH = {"vertices": [0, 1], "edges": [{"id": "e0", "ends": [0, 1]}]}
GOOD_FORMULA = "forall v x. exists e y. inc(x, y)\n"
FORMULAS = ["forall v x. exists e y. inc(x, y)",
            "exists vs A. forall v x. x in A",
            "forall es F. card(2, 0, F) or not card(2, 0, F)",
            "exists v x. exists v y. not x = y",
            "true"]


def solve(graph_bytes, formula_bytes):
    """(exit code, stderr) of one in-process `supertw solve`."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, formula = Path(tmp) / "g", Path(tmp) / "phi.cmso"
        graph.write_bytes(graph_bytes)
        formula.write_bytes(formula_bytes)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--graph", str(graph), "--formula", str(formula),
                             "--treewidth", "1"])
    return code, err.getvalue()


def assert_one_error_object(code, stderr):
    assert code == 2, stderr
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    obj = json.loads(lines[0])
    assert set(obj) == {"error", "message"} and obj["error"]


@st.composite
def graph_objects(draw):
    """A well-formed connected graph object with at least one edge."""
    vertices = draw(st.lists(IDS, min_size=2, max_size=4, unique=True))
    n = draw(st.integers(1, 3))
    edges = [{"id": f"e{i}", "ends": [vertices[0], vertices[i % (len(vertices) - 1) + 1]]}
             for i in range(n)]
    return {"vertices": vertices, "edges": edges}


@st.composite
def malformed_json_graphs(draw):
    """The JSON text of a graph object with one shape corruption."""
    g = draw(graph_objects())
    vs, es = g["vertices"], g["edges"]
    edge = draw(st.sampled_from(es))
    how = draw(st.sampled_from([
        "top", "drop", "not_list", "dup_vertex", "bad_vertex", "bad_edge_id",
        "bad_end", "ends_not_list", "ends_size", "loop", "record", "record_key",
        "dup_edge", "undeclared", "nan"]))
    if how == "top":
        return json.dumps(draw(st.sampled_from([[vs, es], list(g.items()), [], [3]])))
    if how == "drop":
        del g[draw(st.sampled_from(["vertices", "edges"]))]
    elif how == "not_list":
        g[draw(st.sampled_from(["vertices", "edges"]))] = draw(NOT_A_LIST)
    elif how == "dup_vertex":
        vs.insert(draw(st.integers(0, len(vs))), draw(st.sampled_from(vs)))
    elif how == "bad_vertex":
        vs.append(draw(BAD_IDS))
    elif how == "bad_edge_id":
        edge["id"] = draw(BAD_IDS)
    elif how == "bad_end":
        edge["ends"][draw(st.integers(0, 1))] = draw(BAD_IDS)
    elif how == "ends_not_list":
        edge["ends"] = draw(NOT_A_LIST)
    elif how == "ends_size":
        edge["ends"] = edge["ends"][:1] if draw(st.booleans()) else edge["ends"] + [vs[0]]
    elif how == "loop":
        edge["ends"] = [edge["ends"][0]] * 2
    elif how == "record":
        es[es.index(edge)] = draw(st.one_of(NOT_A_LIST, st.lists(IDS, max_size=2)))
    elif how == "record_key":
        del edge[draw(st.sampled_from(["id", "ends"]))]
    elif how == "dup_edge":
        es.append({"id": edge["id"], "ends": list(edge["ends"])})
    elif how == "undeclared":
        edge["ends"][1] = "not-a-vertex"
    else:
        return json.dumps(g).replace('"vertices": [', '"vertices": [NaN, ', 1)
    return json.dumps(g)


@st.composite
def malformed_edge_lists(draw):
    """An edge list with a line of three or more tokens, a loop, or two
    components."""
    lines = [f"{u} {v}" for u, v in draw(st.lists(st.tuples(IDS, IDS), max_size=3))]
    how = draw(st.sampled_from(["long", "loop", "apart"]))
    if how == "long":
        bad = " ".join(map(str, draw(st.lists(IDS, min_size=3, max_size=5))))
    elif how == "loop":
        bad = "{0} {0}".format(draw(IDS))
    else:
        lines = ["x0 x1"]
        bad = "y0 y1"
    lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + "\n"


UNDECODABLE = st.binary(max_size=12).map(lambda b: b[:6] + b"\xff" + b[6:])


@SETTINGS
@given(st.one_of(malformed_json_graphs().map(str.encode),
                 malformed_edge_lists().map(str.encode),
                 st.builds(lambda text, cut: text[:cut].encode(),
                           st.just(json.dumps(GOOD_GRAPH)), st.integers(1, 40)),
                 UNDECODABLE))
@example(b'{"vertices": "a", "edges": []}')
@example(b'{"vertices": ["a", "b"], "edges": [{"id": "e0", "ends": "ab"}]}')
@example(b'[1, 2]')
@example(b'{"vertices": [NaN], "edges": []}')
@example(b'{"vertices": [1, true], "edges": [{"id": "e0", "ends": [1, true]}]}')
@example(b"0 1\n1 2 3\n")
def test_malformed_graph_files_exit_2(graph_bytes):
    assert_one_error_object(*solve(graph_bytes, GOOD_FORMULA.encode()))


@st.composite
def malformed_formulas(draw):
    """A formula text with an unbalanced parenthesis, cut short, with a
    stray character, or with an unbound name or an ill-kinded atom."""
    text = "(" + draw(st.sampled_from(FORMULAS)) + ")"
    how = draw(st.sampled_from(["paren", "cut", "char", "ill"]))
    if how == "paren":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from("()")) + text[i:]
    if how == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "char":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from("!$%&*[]{};|²٣")) + text[i:]
    return draw(st.sampled_from([
        "forall v x. exists e y. inc(z, y)", "exists v x. x in B",
        "forall vs A. exists e y. inc(A, y)", "exists vs A. card(1, 0, A)",
        "exists vs A. card(2, 3, A)", "exists v x. card(2, 0, x)",
        "exists vs A. exists vs B. A in B", "exists v x. exists e y. x = y",
        "exists w x. true", "forall v x.", "inc(x, y)"]))


@SETTINGS
@given(st.one_of(malformed_formulas().map(str.encode), UNDECODABLE))
@example(b"exists vs A. card(\xc2\xb2, 0, A)")
def test_malformed_formula_files_exit_2(formula_bytes):
    assert_one_error_object(*solve(json.dumps(GOOD_GRAPH).encode(), formula_bytes))
