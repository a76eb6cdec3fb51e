"""Independent brute-force reference implementations.

Nothing here touches the automata pipeline: treewidth is an exhaustive
elimination-ordering DP, and the supergraph search enumerates candidate
supergraphs directly and checks them with the direct CMSO evaluator. The
solver's verdicts are cross-checked against these at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations

from .decomp import TDNode
from .errors import SizeLimitError
from .graph import Graph
from .util import osorted

MAX_EXACT_VERTICES = 13


def _simple_adjacency(g: Graph):
    vs = osorted(g.vertices)
    idx = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for e in g.edges:
        if g.ends[e]:
            u, v = g.ends[e]
            adj[idx[u]] |= 1 << idx[v]
            adj[idx[v]] |= 1 << idx[u]
    return vs, adj


def _q_size(adj, n, S, v):
    """|Q(S, v)|: vertices outside S∪{v} joined to v by a path inside S."""
    region = 1 << v
    frontier = adj[v] & S
    while frontier:
        region |= frontier
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & S & ~region
    out = 0
    m = region
    while m:
        low = m & -m
        out |= adj[low.bit_length() - 1]
        m ^= low
    out &= ~S & ~(1 << v)
    return bin(out).count("1")


def exact_treewidth(g: Graph) -> int:
    """Treewidth by DP over elimination orderings; -1 for the empty graph."""
    return _treewidth_dp(g)[0]


def _treewidth_dp(g: Graph):
    vs, adj = _simple_adjacency(g)
    n = len(vs)
    if n > MAX_EXACT_VERTICES:
        raise SizeLimitError(f"exact treewidth limited to {MAX_EXACT_VERTICES} vertices")
    if n == 0:
        return -1, vs
    full = (1 << n) - 1
    f = [0] * (full + 1)
    best_v = [0] * (full + 1)
    f[0] = -1
    for S in range(1, full + 1):
        best = None
        choice = 0
        m = S
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            prev = S ^ low
            cost = max(f[prev], _q_size(adj, n, prev, v))
            if best is None or cost < best:
                best = cost
                choice = v
        f[S] = best
        best_v[S] = choice
    order = []
    S = full
    while S:
        v = best_v[S]
        order.append(v)
        S ^= 1 << v
    order.reverse()  # elimination order: first eliminated first
    return f[full], (vs, adj, order)


def optimal_decomposition(g: Graph):
    """(treewidth, TDNode) for a small graph; the tree realizes that width."""
    tw, data = _treewidth_dp(g)
    if tw == -1 and not g.vertices:
        return -1, TDNode(frozenset())
    vs, adj, order = data
    n = len(vs)
    fill = list(adj)
    bags = []
    parents = [None] * n
    pos = {v: i for i, v in enumerate(order)}
    eliminated = 0
    for i, v in enumerate(order):
        nb = fill[v] & ~eliminated & ~(1 << v)
        bags.append(frozenset([vs[v]] + [vs[u] for u in _bits(nb)]))
        later = [u for u in _bits(nb)]
        if later:
            parents[i] = min(pos[u] for u in later)
        elif i + 1 < n:
            parents[i] = i + 1
        # make the neighborhood a clique
        for u in _bits(nb):
            fill[u] |= nb & ~(1 << u)
        eliminated |= 1 << v
    children = [[] for _ in range(n)]
    root_idx = None
    for i, p in enumerate(parents):
        if p is None:
            root_idx = i
        else:
            children[p].append(i)

    def build(i):
        return TDNode(bags[i], [build(c) for c in children[i]])

    return f_width(bags), build(root_idx)


def f_width(bags):
    return max(len(b) for b in bags) - 1


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class SupergraphBudget:
    """Bounds for the exhaustive supergraph search."""
    max_extra_vertices: int = 2
    max_extra_edges: int = 4
    simple_only: bool = True


def _fresh_ids(taken, prefix, count):
    out = []
    i = 0
    while len(out) < count:
        cand = f"{prefix}{i}"
        if cand not in taken:
            out.append(cand)
        i += 1
    return out


def search_supergraph(g: Graph, phi, t: int, budget: SupergraphBudget | None = None):
    """First supergraph (deterministic order) with treewidth <= t satisfying
    phi, or None within the budget. Candidates grow by at most
    `max_extra_vertices` fresh vertices and `max_extra_edges` new edges."""
    from .cmso.evaluate import eval_direct

    if budget is None:
        budget = SupergraphBudget()
    if g.vertices and exact_treewidth(g) > t:
        # treewidth is monotone under subgraphs, so no supergraph qualifies
        return None
    base_vertices = list(g.vertices)
    base_edges = {e: g.ends[e] for e in g.edges}
    existing_pairs = {g.ends[e] for e in g.edges if g.ends[e]}
    base_adjacent = {p for p in existing_pairs if len(p) == 2}

    for kv in range(budget.max_extra_vertices + 1):
        extra = _fresh_ids(set(base_vertices), "w", kv)
        verts = base_vertices + extra
        pairs = [frozenset(p) for p in combinations(osorted(verts), 2)]
        if budget.simple_only:
            pairs = [p for p in pairs if p not in existing_pairs]
        chooser = combinations if budget.simple_only else combinations_with_replacement
        relabelings = _fresh_relabelings(pairs, extra)
        # a graph of treewidth <= t on n > t vertices has at most
        # t*n - t(t+1)/2 adjacent pairs, as many as a t-tree
        n = len(verts)
        max_adjacent = t * n - t * (t + 1) // 2 if n > t else None
        for ke in range(budget.max_extra_edges + 1):
            eids = _fresh_ids(set(base_edges), "x", ke)
            for combo in chooser(range(len(pairs)), ke):
                # the fresh vertices are interchangeable: when renaming them
                # maps this candidate to an earlier one, it is isomorphic to
                # that one, which was checked already and failed
                if any(tuple(sorted(image[i] for i in combo)) < combo
                       for image in relabelings):
                    continue
                if max_adjacent is not None and len(
                        base_adjacent.union(pairs[i] for i in combo)) > max_adjacent:
                    continue
                edges = dict(base_edges)
                for eid, i in zip(eids, combo):
                    edges[eid] = pairs[i]
                cand = Graph(verts, edges)
                # evaluate phi first: much cheaper than the treewidth DP
                if eval_direct(phi, cand) and exact_treewidth(cand) <= t:
                    return cand
    return None


def _fresh_relabelings(pairs, extra):
    """For each non-identity permutation of the fresh vertices `extra`, the
    map it induces on indices into `pairs`, which it permutes."""
    index = {p: i for i, p in enumerate(pairs)}
    out = []
    for perm in permutations(extra):
        if list(perm) == extra:
            continue
        rename = dict(zip(extra, perm))
        out.append(tuple(index[frozenset(rename.get(v, v) for v in p)]
                         for p in pairs))
    return out
