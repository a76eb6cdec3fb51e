"""Instance shapes, formulas and the three workloads of the benchmark.

Every instance is a (formula, graph) pair solved at treewidth bound T. A
workload's pass is a fixed multiset of (formula, shape) pairs, so the
figures of two seeds measure the same work; the seed draws the
presentation of each graph (vertex ids, edge ids, edge order), the shape
where a workload offers a choice, and the order of the pass.

A run makes at least `min_passes` passes; the warm workloads make three,
each in its own child with its own hash seed, so that set-up is measured
three times and witnesses are compared across hash seeds. `dominant` names
the layers expected to carry most of a workload's solve
time outside set-up; the traced run reports their combined share.

Expected verdicts come from `expected.json`, which `check_expected.py`
derives from hand rules and cross-checks against the brute-force oracle;
none of them comes from the solver.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

T = 2

# shape name -> (vertex count, edge list); parallel edges are repeated pairs
SHAPES = {
    "P2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "K3": (3, [(0, 1), (1, 2), (0, 2)]),
    "K2x2": (2, [(0, 1), (0, 1)]),
    "K2x3": (2, [(0, 1), (0, 1), (0, 1)]),
    "P3x2": (3, [(0, 1), (0, 1), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "P4x2": (4, [(0, 1), (0, 1), (1, 2), (2, 3)]),
}

# solve_named presets (simple witnesses) and formula-file sentences
PRESETS = {"diam=1": {"diam": 1}, "vertex_cover=1": {"vertex_cover": 1}}
FORMULA_FILES = {
    "even_order": "formulas/even_order.cmso",
    "no_isolated_vertex": "formulas/no_isolated_vertex.cmso",
}
FORMULAS = tuple(PRESETS) + tuple(FORMULA_FILES)

# the graph every warm child solves once per formula to fill the caches
WARMUP_SHAPE = "P2"

WORKLOADS = {
    # one fresh interpreter per solve, as each `supertw solve` pays
    "cold_compile": {
        "fresh_per_instance": True,
        "min_passes": 2,
        "dominant": ("cmso.compile.compile", "subdecomp.sub_closure"),
        "warmup": (),
        "witness": False,
        "pass": (("diam=1", ("P2", "P3")),
                 ("vertex_cover=1", ("P2", "P3")),
                 ("even_order", ("P2", "P3")),
                 ("no_isolated_vertex", ("P2", "P3"))),
    },
    # formulas compiled and closed in setup; decide-only solves where the
    # decompositions of G dominate; a YES (emptiness exits early) between
    # two NOs (it exhausts), of well-separated costs so that the pooled
    # median is the YES instance's time, not a mean of two instances
    "warm_decide": {
        "fresh_per_instance": False,
        "min_passes": 3,
        "dominant": ("all_decomps.build_all_decompositions",),
        "warmup": ("no_isolated_vertex", "vertex_cover=1"),
        "witness": False,
        "pass": (("vertex_cover=1", ("C4",)),
                 ("no_isolated_vertex", ("paw",)),
                 ("vertex_cover=1", ("P4x2",))),
    },
    # formula and paired closure built in setup; witness solves on YES
    # instances of at most three vertices, parallel edges included
    "warm_witness": {
        "fresh_per_instance": False,
        "min_passes": 3,
        "dominant": ("tree_automata.intersect", "tree_automata.trim",
                     "tree_automata.extract_witness", "solver.lift_to_pairs",
                     "solver.verify"),
        "warmup": ("no_isolated_vertex",),
        "witness": True,
        "pass": tuple(("no_isolated_vertex", (s,))
                      for s in ("P2", "P3", "K3", "K2x2", "K2x3", "P3x2")),
    },
}


def shape_graph_json(shape, rng=None):
    """Graph JSON of a shape; with rng, a seeded isomorphic presentation."""
    n, edges = SHAPES[shape]
    names = list(range(n))
    eids = [f"e{i}" for i in range(len(edges))]
    order = list(range(len(edges)))
    if rng is not None:
        names = rng.sample(range(10, 100), n)
        eids = [f"e{k}" for k in rng.sample(range(10, 100), len(edges))]
        rng.shuffle(order)
    out = []
    for i in order:
        ends = [names[edges[i][0]], names[edges[i][1]]]
        if rng is not None:
            rng.shuffle(ends)
        out.append({"id": eids[i], "ends": ends})
    return {"vertices": names, "edges": out}


def make_pass(workload, seed):
    """The seeded instance list of one pass of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i, (formula, shapes) in enumerate(WORKLOADS[workload]["pass"]):
        shape = rng.choice(shapes)
        out.append({"id": f"i{i}", "formula": formula, "shape": shape,
                    "graph": shape_graph_json(shape, rng)})
    rng.shuffle(out)
    return out


def load_expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["verdicts"]
