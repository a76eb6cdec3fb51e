"""Small graph builders and helpers shared across the test suite.

`is_isomorphic`, `is_subgraph`, `all_subgraphs` and `tautology` check
and drive the pipeline from the tests; nothing in the package uses them.
"""

import gc
import inspect
import sys
from itertools import combinations

from supertw.cmso.ast import TrueF
from supertw.graph import Graph, _edge_profile
from supertw.tree_automata import TreeAutomaton
from supertw.util import osorted


def collections_inside(entry, call):
    """Run call(); return the generation of every cyclic-GC collection that
    started while the body of `entry` (undecorated) was on the call stack."""
    code = inspect.unwrap(entry).__code__
    seen = []

    def on_gc(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is code:
                seen.append(info["generation"])
                break
            frame = frame.f_back

    gc.callbacks.append(on_gc)
    try:
        call()
    finally:
        gc.callbacks.remove(on_gc)
    return seen


def make_automaton(alphabet, final, transitions, states=()):
    """An automaton whose states are derived from `transitions` and `final`."""
    sts = set(states)
    sts.update(final)
    for children, _sym, q in transitions:
        sts.add(q)
        sts.update(children)
    return TreeAutomaton(alphabet, sts, final, transitions)


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


def star(leaves):
    return Graph(range(leaves + 1), {f"e{i}": (0, i + 1) for i in range(leaves)})


def single_vertex():
    return Graph([0], {})


def multi_edge(k=2):
    """Two vertices joined by k parallel edges."""
    return Graph([0, 1], {f"e{i}": (0, 1) for i in range(k)})


def paw():
    """Triangle plus a pendant vertex."""
    return Graph(range(4), {"e0": (0, 1), "e1": (1, 2), "e2": (2, 0), "e3": (2, 3)})


def diamond():
    """K_4 minus one edge."""
    return Graph(range(4), {"e0": (0, 1), "e1": (1, 2), "e2": (2, 3),
                            "e3": (3, 0), "e4": (0, 2)})


def spider():
    """Three legs of length 2 from a hub; a tree on 7 vertices."""
    edges = {}
    k = 0
    for leg in range(3):
        a, b = 1 + 2 * leg, 2 + 2 * leg
        edges[f"e{k}"] = (0, a)
        k += 1
        edges[f"e{k}"] = (a, b)
        k += 1
    return Graph(range(7), edges)


def grid_2x3():
    #  0-1-2
    #  | | |
    #  3-4-5
    return Graph(range(6), {"e0": (0, 1), "e1": (1, 2), "e2": (3, 4), "e3": (4, 5),
                            "e4": (0, 3), "e5": (1, 4), "e6": (2, 5)})


def bull():
    """Triangle with two horns."""
    return Graph(range(5), {"e0": (0, 1), "e1": (1, 2), "e2": (2, 0),
                            "e3": (1, 3), "e4": (2, 4)})


def connected_small_corpus():
    """Connected graphs used by solver/oracle agreement sweeps (|V| <= 5, Δ <= 3)."""
    return [
        ("K1", single_vertex()),
        ("P2", path(2)),
        ("P3", path(3)),
        ("P4", path(4)),
        ("P5", path(5)),
        ("C3", cycle(3)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("star3", star(3)),
        ("paw", paw()),
        ("bull", bull()),
        ("multi2", multi_edge(2)),
    ]


def tautology():
    return TrueF()


def is_isomorphic(g: Graph, h: Graph):
    """Exhaustive isomorphism test; returns a vertex bijection or None.

    Multigraph-aware: a vertex bijection works iff endpoint-pair multiplicities
    match (parallel edges are interchangeable). Intended for small graphs.
    """
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degree(v) for v in g.vertices) != sorted(h.degree(v) for v in h.vertices):
        return None
    gprof = _edge_profile(g)
    hprof = _edge_profile(h)
    if gprof.get(None, 0) != hprof.get(None, 0):
        return None

    gs = osorted(g.vertices)
    hs = list(h.vertices)

    def extend(i, mapping, used):
        if i == len(gs):
            return dict(mapping)
        v = gs[i]
        for u in hs:
            if u in used or h.degree(u) != g.degree(v):
                continue
            ok = True
            for w, uw in mapping.items():
                need = gprof.get(frozenset((v, w)), 0)
                have = hprof.get(frozenset((u, uw)), 0)
                if need != have:
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used.add(u)
                got = extend(i + 1, mapping, used)
                if got is not None:
                    return got
                del mapping[v]
                used.discard(u)
        return None

    return extend(0, {}, set())


def is_subgraph(h: Graph, g: Graph) -> bool:
    """True iff h's vertices/edges/incidence are literally contained in g's."""
    return (set(h.vertices) <= set(g.vertices)
            and set(h.edges) <= set(g.edges)
            and all(h.ends[e] == g.ends[e] for e in h.edges))


def all_subgraphs(g: Graph):
    """Yield every subgraph (V' ⊆ V with all edges whose endpoints fit, chosen freely)."""
    vs = list(g.vertices)
    for k in range(len(vs) + 1):
        for vsel in combinations(vs, k):
            vset = set(vsel)
            eligible = [e for e in g.edges if g.ends[e] <= vset]
            for m in range(len(eligible) + 1):
                for esel in combinations(eligible, m):
                    yield Graph(vsel, {e: g.ends[e] for e in esel})
