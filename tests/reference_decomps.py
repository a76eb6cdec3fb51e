"""The paper's reference construction of the decompositions of G.

The enriched automaton of build_gt_automaton works over (G,t)-concrete
bags: each label of a bag names a concrete vertex of G and carries the
set of that vertex's incident edges realized so far, so the five local
conditions C1-C5 can be checked per transition. Projecting the
enrichment away and intersecting with the vertex-counting automaton of
build_count_automaton yields the language of terms that decode to a
graph isomorphic to G.

`supertw.all_decomps.DecompMachine` fuses that projection and count into
one construction over plain bags. These constructions share no code
with it, so the tests use them as an independent cross-check.
"""

from __future__ import annotations

from itertools import combinations, permutations

from supertw.decomp import ConcreteBag, bag, bag_alphabet
from supertw.errors import InvalidBagError
from supertw.graph import Graph
from supertw.tree_automata import TreeAutomaton, trim
from supertw.util import Budget, osorted


class GtBag:
    """Enriched bag: labels name concrete vertices and account for edges.

    nu maps each label of B to a distinct vertex; eta maps each label to
    the set of edges (incident with its vertex) realized in the subtree
    rooted here; y is the edge realized at this position, present exactly
    when b is nonempty; rho marks the labels whose component ends here.
    """

    __slots__ = ("B", "b", "nu", "eta", "y", "rho", "_hash")

    def __init__(self, B, b, nu, eta, y, rho):
        self.B = frozenset(B)
        self.b = frozenset(b)
        self.nu = dict(nu)
        self.eta = {s: frozenset(es) for s, es in dict(eta).items()}
        self.y = frozenset(y)
        self.rho = frozenset(rho)
        if not self.b <= self.B:
            raise InvalidBagError("b must be a subset of B")
        if len(self.b) not in (0, 2):
            raise InvalidBagError("b must have 0 or 2 elements")
        if set(self.nu) != self.B or set(self.eta) != self.B:
            raise InvalidBagError("nu and eta must be defined exactly on B")
        if len(set(self.nu.values())) != len(self.nu):
            raise InvalidBagError("nu must be injective")
        if not self.rho <= self.B:
            raise InvalidBagError("rho must be a subset of B")
        if len(self.y) > 1:
            raise InvalidBagError("y holds at most one edge")
        if (len(self.y) == 1) != (len(self.b) == 2):
            raise InvalidBagError("y holds an edge exactly when b is nonempty")
        for s in self.b:
            if not self.y <= self.eta[s]:
                raise InvalidBagError("y must be accounted in eta of flagged labels")
        self._hash = hash(self.sort_key())

    def sort_key(self):
        return (tuple(sorted(self.B)), tuple(sorted(self.b)),
                tuple(sorted(self.nu.items())),
                tuple((s, tuple(osorted(es))) for s, es in sorted(self.eta.items())),
                tuple(osorted(self.y)), tuple(sorted(self.rho)))

    def __eq__(self, other):
        return isinstance(other, GtBag) and self.sort_key() == other.sort_key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GtBag(B={sorted(self.B)}, b={sorted(self.b)}, nu={self.nu})"

    def project(self) -> ConcreteBag:
        return bag(self.B, self.b)


def is_gt_compatible(children, parent: GtBag, g: Graph) -> bool:
    """The five local conditions linking a bag to its children's bags.

    1. A label shared with a child names the same vertex.
    2. An edge position realizes an edge of G incident with both flagged
       labels' vertices (and only edge positions carry one).
    3. Per label, the realized edges are the disjoint union of the
       children's contributions plus this position's own edge if flagged.
    4. A label marked as ending has realized its vertex's full incidence.
    5. A child's end-markings are exactly its labels this bag drops.
    """
    for ch in children:
        for s in ch.B:
            if s in parent.B and ch.nu[s] != parent.nu[s]:
                return False
            if (s in ch.rho) != (s not in parent.B):
                return False
    if parent.b:
        (e,) = parent.y
        for s in parent.b:
            if parent.nu[s] not in g.ends[e]:
                return False
    for s in parent.B:
        seen = set(parent.y) if s in parent.b else set()
        total = len(seen)
        for ch in children:
            if s in ch.B:
                es = ch.eta[s]
                seen |= es
                total += len(es)
        if total != len(seen) or seen != parent.eta[s]:
            return False
        if not seen <= set(g.incident_edges(parent.nu[s])):
            return False
    for s in parent.rho:
        if parent.eta[s] != frozenset(g.incident_edges(parent.nu[s])):
            return False
    return True


def _gt_parents(children, g: Graph, t: int):
    """All bags compatible with the given child bags (0, 1, or 2 of them).

    A parent must keep exactly the child labels not marked as ending, with
    the same vertices; fresh labels, the flagged pair, and the end-marking
    are free choices within the conditions.
    """
    keep_nu = {}
    keep_eta = {}
    for ch in children:
        for s in ch.B:
            if s in ch.rho:
                continue
            v = ch.nu[s]
            if s in keep_nu:
                if keep_nu[s] != v or keep_eta[s] & ch.eta[s]:
                    return
                keep_eta[s] = keep_eta[s] | ch.eta[s]
            else:
                keep_nu[s] = v
                keep_eta[s] = ch.eta[s]
    if len(set(keep_nu.values())) != len(keep_nu):
        return
    blocked = set(keep_nu)
    for ch in children:
        # a label cannot end in one child yet continue in a sibling
        if ch.rho & keep_nu.keys():
            return
        blocked |= ch.rho
    used = set(keep_nu.values())
    labels = [s for s in range(1, t + 1) if s not in blocked]
    free = [v for v in g.vertices if v not in used]
    for k in range(len(labels) + 1):
        for fresh in combinations(labels, k):
            for vs in permutations(free, k):
                nu = dict(keep_nu)
                nu.update(zip(fresh, vs))
                B = frozenset(nu)
                base = {s: keep_eta.get(s, frozenset()) for s in B}
                for b, y, eta in _flag_choices(B, nu, base, g):
                    full = [s for s in B
                            if eta[s] == frozenset(g.incident_edges(nu[s]))]
                    for rk in range(len(full) + 1):
                        for rho in combinations(full, rk):
                            yield GtBag(B, b, nu, eta, y, rho)


def _flag_choices(B, nu, base, g: Graph):
    """Every (b, y, eta) completion: no edge, or one realizable edge."""
    yield frozenset(), frozenset(), base
    for s, s2 in combinations(sorted(B), 2):
        u, w = nu[s], nu[s2]
        for e in g.incident_edges(u):
            if g.ends[e] == frozenset((u, w)) and e not in base[s] and e not in base[s2]:
                eta = dict(base)
                eta[s] = eta[s] | {e}
                eta[s2] = eta[s2] | {e}
                yield frozenset((s, s2)), frozenset((e,)), eta


def build_gt_automaton(g: Graph, t: int, budget: Budget | None = None) -> TreeAutomaton:
    """Enriched automaton whose accepted terms satisfy C1-C5 everywhere.

    States are the reachable enriched bags themselves; final states are
    the bags whose labels all end at the root. Intended for small graphs
    and label counts; build_all_decompositions scales further.
    """
    budget = budget or Budget()
    known: dict = {}
    order: list = []
    transitions: dict = {}

    def discover(bags, children):
        for pb in bags:
            tr = (children, pb, pb)
            if tr not in transitions:
                transitions[tr] = None
                budget.spend(1, "gt-automaton")
            if pb not in known:
                known[pb] = None
                order.append(pb)

    discover(_gt_parents([], g, t), ())
    frontier = 0
    while frontier < len(order):
        q = order[frontier]
        frontier += 1
        discover(_gt_parents([q], g, t), (q,))
        for other in order[:frontier]:
            discover(_gt_parents([q, other], g, t), (q, other))
            if other is not q:
                discover(_gt_parents([other, q], g, t), (other, q))

    final = [q for q in order if q.rho == q.B]
    alphabet = osorted(known)
    trs = {(tuple(ch), sym, tgt): None for (ch, sym, tgt) in transitions}
    return trim(TreeAutomaton.raw(alphabet, order, final,
                                  [(ch, sym, tgt) for (ch, sym, tgt) in trs]), budget)


def build_count_automaton(t: int, n: int, budget: Budget | None = None) -> TreeAutomaton:
    """Automaton over plain bags accepting terms that decode to n vertices.

    A state (B, rho, j) claims the root bag is B, the labels in rho are
    roots of their components, and j components are rooted in the subtree.
    A parent validates each child's claim exactly: a child label is a
    component root if and only if the parent bag drops it; the root of the
    whole term keeps every claim, so final states have rho = B.
    """
    budget = budget or Budget()
    alphabet = osorted(bag_alphabet(t))
    by_B: dict = {}
    for sym in alphabet:
        by_B.setdefault(sym.B, []).append(sym)

    states = []
    for size in range(t + 1):
        for Bsel in combinations(range(1, t + 1), size):
            B = frozenset(Bsel)
            for rk in range(size + 1):
                for rho in combinations(Bsel, rk):
                    for j in range(n + 1):
                        states.append((B, frozenset(rho), j))

    transitions: dict = {}

    def emit(children, B):
        base = sum(j for (_, _, j) in children)
        for sym in by_B[B]:
            for rk in range(len(B) + 1):
                for rho in combinations(sorted(B), rk):
                    j = base + rk
                    if j <= n:
                        transitions[(children, sym, (B, frozenset(rho), j))] = None
                        budget.spend(1, "count-automaton")

    all_B = [frozenset(c) for size in range(t + 1)
             for c in combinations(range(1, t + 1), size)]
    for B in all_B:
        emit((), B)
        compat = [q for q in states if q[1] == q[0] - B]
        for q1 in compat:
            emit((q1,), B)
            for q2 in compat:
                emit((q1, q2), B)

    final = [q for q in states if q[1] == q[0] and q[2] == n]
    return trim(TreeAutomaton.raw(alphabet, states, final, transitions), budget)
