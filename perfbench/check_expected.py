"""Self-test of the benchmark's expected-verdict table.

`expected.json` holds the verdict of every (formula, shape) pair, written
down from the hand rules below. This script checks each entry against the
rule and against the brute-force oracle (`exact_treewidth` and
`search_supergraph`), which shares no code with the solver, and exits 0
when all three agree everywhere:

    python3 perfbench/check_expected.py

Rules, at treewidth bound T (every shape is connected, with >= 2 vertices):
- no_isolated_vertex: YES iff tw(G) <= T (G itself qualifies).
- even_order: YES iff tw(G) <= T (add a pendant vertex when |V| is odd).
- diam=1 (simple witnesses): YES iff G is simple and |V| <= T+1, since a
  simple graph of diameter <= 1 is complete and tw(K_n) = n-1.
- vertex_cover=1 (simple witnesses): YES iff G is simple and one vertex
  touches every edge (a simple graph with a 1-vertex cover is a star plus
  isolated vertices).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from supertw.cmso.generators import gen_diam, gen_vertex_cover  # noqa: E402
from supertw.cmso.parser import parse  # noqa: E402
from supertw.graph import graph_from_json  # noqa: E402
from supertw.oracle import (SupergraphBudget, exact_treewidth,  # noqa: E402
                            search_supergraph)

from workloads import (FORMULA_FILES, FORMULAS, PRESETS, SHAPES, T,  # noqa: E402
                       shape_graph_json)

# enough room for every YES: a pendant vertex, or nothing at all
ORACLE_BOUNDS = {"max_extra_vertices": 1, "max_extra_edges": 2}


def formula_ast(name):
    if name == "diam=1":
        return gen_diam(1)
    if name == "vertex_cover=1":
        return gen_vertex_cover(1)
    return parse((HERE / FORMULA_FILES[name]).read_text(encoding="utf-8"))


def is_simple(g):
    pairs = [g.ends[e] for e in g.edges]
    return len(pairs) == len(set(pairs))


def rule_verdict(name, g):
    if name in ("no_isolated_vertex", "even_order"):
        return exact_treewidth(g) <= T
    if not is_simple(g):
        return False
    if name == "diam=1":
        return len(g.vertices) <= T + 1
    return any(all(v in g.ends[e] for e in g.edges) for v in g.vertices)


def oracle_verdict(name, g):
    preset = name in PRESETS
    budget = SupergraphBudget(simple_only=preset, **ORACLE_BOUNDS)
    found = search_supergraph(g, formula_ast(name), T, budget)
    return found is not None and (not preset or is_simple(found))


def main():
    table = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["verdicts"]
    bad = 0
    for name in FORMULAS:
        for shape in SHAPES:
            g = graph_from_json(shape_graph_json(shape))
            got = {"rule": rule_verdict(name, g), "oracle": oracle_verdict(name, g),
                   "table": table[name][shape]}
            if len(set(got.values())) != 1:
                bad += 1
                print(f"MISMATCH {name} {shape}: {got}")
    total = len(FORMULAS) * len(SHAPES)
    print(f"{total - bad}/{total} expected verdicts agree with rule and oracle")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
