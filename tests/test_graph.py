import math

import pytest

from supertw.errors import InvalidGraphError
from supertw.graph import (Graph, diameter, embeds_as_subgraph, graph_from_json,
                           graph_to_json, is_connected, load_graph)
from corpus import all_subgraphs, is_isomorphic, is_subgraph


def path(n):
    return Graph(range(n), {f"e{i}": (i, i + 1) for i in range(n - 1)})


def cycle(n):
    return Graph(range(n), {f"e{i}": (i, (i + 1) % n) for i in range(n)})


def complete(n):
    edges = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            edges[f"e{k}"] = (i, j)
            k += 1
    return Graph(range(n), edges)


def test_basic_accessors():
    g = path(3)
    assert g.max_degree() == 2
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.neighbors(1) == frozenset({0, 2})
    assert ("e0", 0) in g.incidence()


def test_loop_rejected():
    with pytest.raises(InvalidGraphError):
        Graph([0], {"e": (0, 0)})


def test_phantom_edge_allowed():
    g = Graph([0], {"e": ()})
    assert g.ends["e"] == frozenset()
    assert g.degree(0) == 0


def test_parallel_edges():
    g = Graph([0, 1], {"a": (0, 1), "b": (0, 1)})
    assert g.degree(0) == 2
    assert g.max_degree() == 2


def test_connectivity():
    assert is_connected(path(4))
    assert is_connected(Graph([], {}))
    assert is_connected(Graph([7], {}))
    assert not is_connected(Graph([0, 1], {}))


def test_diameter():
    assert diameter(path(3)) == 2
    assert diameter(complete(3)) == 1
    assert diameter(Graph([0], {})) == 0
    assert diameter(Graph([0, 1], {})) == math.inf
    assert diameter(path(5)) == 4


def test_isomorphism():
    g = Graph("xyz", {"p": ("x", "y"), "q": ("y", "z")})
    mapping = is_isomorphic(path(3), g)
    assert mapping is not None
    assert mapping[1] == "y"
    assert is_isomorphic(path(4), cycle(4)) is None
    # parallel edges distinguish multigraphs from simple ones
    m = Graph([0, 1], {"a": (0, 1), "b": (0, 1)})
    assert is_isomorphic(m, path(2)) is None
    assert is_isomorphic(m, Graph("uv", {1: "uv", 2: ("v", "u")})) is not None


def test_subgraph_checks():
    g = complete(3)
    h = Graph([0, 1], {"e0": (0, 1)})
    assert is_subgraph(h, g)
    assert not is_subgraph(g, h)
    assert embeds_as_subgraph(path(3), complete(3)) is not None
    assert embeds_as_subgraph(complete(3), path(3)) is None
    assert embeds_as_subgraph(cycle(4), complete(4)) is not None


def test_all_subgraphs_count():
    # K_2: vertex subsets {}, {0}, {1}, {0,1}; the last admits the edge or not
    got = list(all_subgraphs(Graph([0, 1], {"e": (0, 1)})))
    assert len(got) == 5
    # C_3: 1 + 3 + 3*1 + (each pair: edge yes/no => 3*2) ... enumerate and count distinct
    got3 = list(all_subgraphs(cycle(3)))
    assert len(got3) == 1 + 3 + 3 * 2 + 1 * 8


def test_json_round_trip(tmp_path):
    g = Graph([0, 1, 2], {"a": (0, 1), "b": (1, 2)})
    obj = graph_to_json(g)
    assert obj == {"vertices": [0, 1, 2],
                   "edges": [{"id": "a", "ends": [0, 1]}, {"id": "b", "ends": [1, 2]}]}
    assert graph_from_json(obj) == g
    p = tmp_path / "g.json"
    p.write_text(__import__("json").dumps(obj))
    assert load_graph(p) == g


def test_edge_list_parsing(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a path\n0 1\n1 2\n\n7\n")
    g = load_graph(p)
    assert set(g.vertices) == {0, 1, 2, 7}
    assert len(g.edges) == 2
    assert g.ends["e0"] == frozenset({0, 1})


def test_duplicate_edge_id_rejected():
    with pytest.raises(InvalidGraphError):
        graph_from_json({"vertices": [0, 1], "edges": [
            {"id": "e", "ends": [0, 1]}, {"id": "e", "ends": [1, 0]}]})
