from itertools import combinations, combinations_with_replacement

import pytest

from corpus import (complete, cycle, diamond, grid_2x3, multi_edge, path,
                    single_vertex, spider, star)
from supertw.decomp import is_valid_decomposition, td_width
from supertw.errors import SizeLimitError
from supertw.graph import Graph
from supertw.cmso.evaluate import eval_direct
from supertw.cmso.generators import even_order, gen_diam, gen_vertex_cover
from supertw.cmso.parser import parse
from supertw.oracle import (SupergraphBudget, exact_treewidth,
                            optimal_decomposition, search_supergraph)
from supertw.util import osorted


@pytest.mark.parametrize("g,expected", [
    (Graph([], {}), -1),
    (single_vertex(), 0),
    (path(2), 1),
    (path(5), 1),
    (star(4), 1),
    (spider(), 1),
    (cycle(3), 2),
    (cycle(4), 2),
    (cycle(6), 2),
    (complete(4), 3),
    (complete(5), 4),
    (diamond(), 2),
    (grid_2x3(), 2),
    (multi_edge(3), 1),
])
def test_exact_treewidth_frozen_values(g, expected):
    assert exact_treewidth(g) == expected


def test_treewidth_disconnected_is_max_of_components():
    g = Graph(range(5), {"e0": (0, 1), "e1": (2, 3), "e2": (3, 4), "e3": (2, 4)})
    assert exact_treewidth(g) == 2


def test_size_limit():
    g = Graph(range(14), {})
    with pytest.raises(SizeLimitError):
        exact_treewidth(g)


@pytest.mark.parametrize("g", [
    single_vertex(), path(4), cycle(5), complete(4), diamond(), grid_2x3(),
    spider(), multi_edge(2), star(5),
])
def test_optimal_decomposition_is_valid_and_tight(g):
    tw, td = optimal_decomposition(g)
    assert tw == exact_treewidth(g)
    assert is_valid_decomposition(g, td)
    assert td_width(td) == tw


def test_optimal_decomposition_empty():
    tw, td = optimal_decomposition(Graph([], {}))
    assert tw == -1
    assert td.bag == frozenset()


def search_reference(g, phi, t, budget):
    """Every candidate in search_supergraph's order, with no skipping."""
    base_edges = {e: g.ends[e] for e in g.edges}
    existing = {g.ends[e] for e in g.edges if g.ends[e]}
    if g.vertices and exact_treewidth(g) > t:
        return None
    for kv in range(budget.max_extra_vertices + 1):
        verts = list(g.vertices) + [f"w{i}" for i in range(kv)]
        pairs = [frozenset(p) for p in combinations(osorted(verts), 2)]
        if budget.simple_only:
            pairs = [p for p in pairs if p not in existing]
        chooser = (combinations if budget.simple_only
                   else combinations_with_replacement)
        for ke in range(budget.max_extra_edges + 1):
            for combo in chooser(pairs, ke):
                edges = dict(base_edges)
                for i, p in enumerate(combo):
                    edges[f"x{i}"] = p
                cand = Graph(verts, edges)
                if eval_direct(phi, cand) and exact_treewidth(cand) <= t:
                    return cand
    return None


MIN_DEGREE_2 = parse("forall v x. exists e y. exists e z. (not y = z) and "
                     "inc(x, y) and inc(x, z)")
# two adjacent vertices of degree >= 2 and no isolated vertex: from P2 at
# treewidth 1 the first such supergraph is the path w0-0-1-w1, where the
# fresh vertices play different roles
ADJACENT_DEGREE_2 = parse(
    "(forall v x. exists e y. inc(x, y)) and exists v a. exists v b. "
    "exists e y. (not a = b) and inc(a, y) and inc(b, y) and "
    "(exists e p. exists e q. (not p = q) and inc(a, p) and inc(a, q)) and "
    "(exists e p. exists e q. (not p = q) and inc(b, p) and inc(b, q))")


def graph_key(g):
    if g is None:
        return None
    return (sorted(map(str, g.vertices)),
            sorted((e, sorted(map(str, g.ends[e]))) for e in g.edges))


@pytest.mark.parametrize("g,phi,t,budget", [
    (single_vertex(), MIN_DEGREE_2, 2, SupergraphBudget(3, 4)),
    (single_vertex(), MIN_DEGREE_2, 1, SupergraphBudget(3, 4)),
    (single_vertex(), MIN_DEGREE_2, 1, SupergraphBudget(3, 3, False)),
    (path(2), even_order(), 1, SupergraphBudget(3, 4)),
    (path(2), ADJACENT_DEGREE_2, 1, SupergraphBudget(2, 2)),
    (path(3), gen_diam(1), 2, SupergraphBudget(2, 4)),
    (path(4), gen_diam(2), 1, SupergraphBudget(2, 4)),
    (path(3), gen_vertex_cover(1), 2, SupergraphBudget(3, 3)),
    (multi_edge(2), MIN_DEGREE_2, 2, SupergraphBudget(2, 3, False)),
])
def test_search_supergraph_matches_plain_enumeration(g, phi, t, budget):
    # search_supergraph skips candidates that are isomorphic to earlier ones
    # and candidates with too many adjacent pairs for treewidth t; neither
    # may change the first supergraph found
    assert graph_key(search_supergraph(g, phi, t, budget)) == \
        graph_key(search_reference(g, phi, t, budget))
