"""Automaton accepting exactly the t-concrete decompositions of one graph.

Two constructions cooperate here. The enriched automaton of
build_gt_automaton works over (G,t)-concrete bags: each label of a bag
names a concrete vertex of G and carries the set of that vertex's
incident edges realized so far, so the five local conditions C1-C5 can
be checked per transition. Projecting the enrichment away and
intersecting with a vertex-counting automaton yields the language of
terms that decode to a graph isomorphic to G.

build_all_decompositions implements that projection-and-count product
directly over plain bags: a state is the map from live labels to
(vertex, realized-edge mask) plus a count of closed components. Label
deaths are visible on plain-bag transitions (a label of the child bag
missing from the parent bag), so the root markings of the enriched
construction need no guessing here, and the fused state space stays
small enough to materialize.
"""

from __future__ import annotations

from itertools import chain, combinations, islice, permutations

from .decomp import ConcreteBag, bag, bag_alphabet
from .errors import InvalidBagError, NotConnectedError
from .graph import Graph, is_connected
from .terms import Term
from .tree_automata import TreeAutomaton, reduce_bisim, trim
from .util import Budget, osorted


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


class DecompMachine:
    """Transition engine for the decompositions-of-G automaton.

    A state is (live, closed): live maps each label of the current root
    bag to its concrete vertex and a bitmask of realized incident edges;
    closed counts components already ended. The engine exposes a step
    function on zero, one or two child states and the acceptance test;
    `materialize` explores it by bottom-up reachability.

    The step reads one bag set B and returns the targets for every symbol
    with that bag set (`bag_sets[B]`, in alphabet order) at once: the
    symbols differ only in the edge they realize, after all the work of
    merging the children. It is a pure function of the children and B,
    and symmetric in its two children, so a caller may reuse one result
    for both orders of a pair.

    For binary steps it also exposes a pair key per (state, bag set) and
    a compatibility test on two keys. They mirror the step's early
    returns: two child states whose keys are incompatible under B get no
    target under any symbol of B, so an exploration may skip them unseen.
    """

    def __init__(self, g: Graph, t: int):
        if not is_connected(g):
            raise NotConnectedError("decomposition automaton needs a connected graph")
        self.g = g
        self.t = t
        self.n = len(g.vertices)
        self.full = {v: (1 << len(g.incident_edges(v))) - 1 for v in g.vertices}
        bit = {}
        for v in g.vertices:
            for i, e in enumerate(g.incident_edges(v)):
                bit[(v, e)] = 1 << i
        # (u, w) -> the mask bits, at u and at w, of each u-w edge in
        # u's incidence order
        self._between: dict = {}
        for u in g.vertices:
            for e in g.incident_edges(u):
                (w,) = g.ends[e] - {u}
                self._between.setdefault((u, w), []).append(
                    (bit[(u, e)], bit[(w, e)]))
        self.alphabet = tuple(osorted(bag_alphabet(t)))
        self.bag_sets: dict = {}
        for sym in self.alphabet:
            self.bag_sets.setdefault(sym.B, []).append(sym)
        # B -> its labels ascending, and per symbol of bag_sets[B] the
        # positions of its flagged pair among them (None for no edge)
        self._layout: dict = {}
        for B, syms in self.bag_sets.items():
            labels = sorted(B)
            self._layout[B] = (labels, [
                tuple(labels.index(s) for s in sorted(sym.b)) if sym.b else None
                for sym in syms])
        self._cut_cache: dict = {}

    def _cut(self, live, B):
        """Split live labels against a parent bag: survivors and deaths.

        Returns None when a dropped label has unrealized incidence (its
        component cannot end here); otherwise (kept, deaths).
        """
        key = (live, B)
        hit = self._cut_cache.get(key, 0)
        if hit != 0:
            return hit
        kept = []
        deaths = 0
        for s, v, mask in live:
            if s in B:
                kept.append((s, v, mask))
            elif mask == self.full[v]:
                deaths += 1
            else:
                self._cut_cache[key] = None
                return None
        out = (tuple(kept), deaths)
        self._cut_cache[key] = out
        return out

    def step_bag_set(self, children, B):
        """All states the machine may enter over child states, reading
        each symbol of bag set B: one sequence per symbol of bag_sets[B].

        Everything before the edge choice depends on the children and B
        alone: their cuts, the label merge, the vertex-collision check and
        the placements of fresh labels. It runs once; each symbol then
        realizes its own edge, if any, on every placement. The results do
        not depend on the order of the children: the merge is a union of
        disjoint masks, the closed count a sum, and the targets are
        packed by label and enumerated by the free vertices' order.
        """
        labels, flags = self._layout[B]
        none = ((),) * len(flags)
        merged = {}
        closed = 0
        for state in children:
            cut = self._cut(state[0], B)
            if cut is None:
                return none
            kept, deaths = cut
            closed += state[1] + deaths
            for entry in kept:
                s = entry[0]
                seen = merged.get(s)
                if seen is None:
                    merged[s] = entry
                elif seen[1] != entry[1] or seen[2] & entry[2]:
                    return none
                else:
                    merged[s] = (s, entry[1], seen[2] | entry[2])
        if closed + len(B) > self.n:
            return none
        used = {v for _, v, _ in merged.values()}
        if len(used) != len(merged):
            return none
        fresh = [s for s in labels if s not in merged]
        free = [v for v in self.g.vertices if v not in used]
        out = [[] for _ in flags]
        for vs in permutations(free, len(fresh)):
            nu = dict(merged)
            for s, v in zip(fresh, vs):
                nu[s] = (s, v, 0)
            live = [nu[s] for s in labels]
            for targets, flag in zip(out, flags):
                if flag is None:
                    targets.append((tuple(live), closed))
                    continue
                i1, i2 = flag
                s1, u, m1 = live[i1]
                s2, w, m2 = live[i2]
                for b1, b2 in self._between.get((u, w), ()):
                    if m1 & b1 or m2 & b2:
                        continue
                    both = list(live)
                    both[i1] = (s1, u, m1 | b1)
                    both[i2] = (s2, w, m2 | b2)
                    targets.append((tuple(both), closed))
        return out

    def pair_key(self, state, B):
        """What the step reads of a child state before its masks: the
        label->vertex map of the live labels that survive into B, and
        the components closed once the others die there. None when the
        cut fails, so the step rejects every pair with this state under B."""
        cut = self._cut(state[0], B)
        if cut is None:
            return None
        kept, deaths = cut
        return tuple((s, v) for s, v, _ in kept), state[1] + deaths

    def compatible(self, k1, k2, size) -> bool:
        """Whether the step may pair children with pair keys k1 and k2
        under a bag set of `size` labels: shared labels name the same
        vertex, the merged labels name distinct vertices, and the closed
        components plus the bag's labels number at most n. A pair failing
        this gets no target in either order; mask overlap is left to the
        step."""
        (nu1, c1), (nu2, c2) = k1, k2
        if c1 + c2 + size > self.n:
            return False
        nu = dict(nu1)
        used = set(nu.values())
        for s, v in nu2:
            w = nu.get(s)
            if w is None:
                if v in used:
                    return False
                used.add(v)
            elif w != v:
                return False
        return True

    def is_final(self, state) -> bool:
        live, closed = state
        if closed + len(live) != self.n:
            return False
        return all(mask == self.full[v] for _, v, mask in live)


class _PairIndex:
    """Expanded states grouped by their pair key under one bag B.

    Groups are kept in first-seen order, each with its state indices in
    discovery order. Each key remembers how many groups it has been
    tested against and the member lists of the compatible ones, so a key
    pair is tested once.
    """

    def __init__(self, machine: DecompMachine, B):
        self.machine = machine
        self.size = len(B)
        self.groups: dict = {}  # key -> state indices, ascending
        self.tested: dict = {}  # key -> [groups tested, compatible member lists]

    def add(self, key, i):
        """File state i under key; return, ascending, the indices of the
        states filed so far (i included) that step may pair it with."""
        self.groups.setdefault(key, []).append(i)
        memo = self.tested.setdefault(key, [0, []])
        for k, members in islice(self.groups.items(), memo[0], None):
            if self.machine.compatible(key, k, self.size):
                memo[1].append(members)
        memo[0] = len(self.groups)
        return sorted(chain.from_iterable(memo[1]))


def materialize(machine: DecompMachine, budget: Budget | None = None) -> TreeAutomaton:
    """The reachable part of a DecompMachine, unreduced.

    Bottom-up reachability: expanding state q steps it alone under every
    symbol and pairs it, both ways round, with each state expanded so far
    (q included) in discovery order. A pairing index per bag set keeps
    that order but skips the partners whose pair key is incompatible with
    q's: the step gives them no target under any symbol of the bag set.

    The step serves all symbols of a bag set at once and is symmetric in
    its two children, so each unordered pair {q, other} is merged once
    per bag set. Its lists are then emitted per symbol, in alphabet
    order, for (q, other) and then (other, q). So the states, the
    transitions, their order and every budget charge are those of
    stepping every ordered pair under every symbol one at a time.
    """
    budget = budget or Budget()
    known: dict = {}
    order: list = []
    transitions: list = []

    # Each (children, symbol) is discovered once and its targets are
    # distinct, so every transition is new: no duplicate check is needed.
    def discover(children, sym, targets):
        for q in targets:
            transitions.append((children, sym, q))
            budget.spend(1, "decompositions-of-g")
            if q not in known:
                known[q] = None
                order.append(q)

    # each symbol with its bag set and its position among that set's symbols
    slots = [(sym, sym.B, machine.bag_sets[sym.B].index(sym))
             for sym in machine.alphabet]
    leaves = {B: machine.step_bag_set((), B) for B in machine.bag_sets}
    for sym, B, j in slots:
        discover((), sym, leaves[B][j])
    indexes = {B: _PairIndex(machine, B) for B in machine.bag_sets}
    frontier = 0
    while frontier < len(order):
        q = order[frontier]
        alone = {}
        pairs = {}
        for B, index in indexes.items():
            alone[B] = machine.step_bag_set((q,), B)
            key = machine.pair_key(q, B)
            if key is None:
                pairs[B] = ()
                continue
            partners = []
            for i in index.add(key, frontier):
                other = order[i]
                lists = machine.step_bag_set((q, other), B)
                if any(lists):
                    partners.append((other, lists))
            pairs[B] = partners
        frontier += 1
        for sym, B, j in slots:
            discover((q,), sym, alone[B][j])
            for other, lists in pairs[B]:
                targets = lists[j]
                discover((q, other), sym, targets)
                if other is not q:
                    discover((other, q), sym, targets)

    final = [q for q in order if machine.is_final(q)]
    return TreeAutomaton.raw(machine.alphabet, order, final, transitions)


def build_all_decompositions(g: Graph, t: int, budget: Budget | None = None) -> TreeAutomaton:
    """Automaton over plain bags accepting exactly the decompositions of g.

    Materializes the DecompMachine (see `materialize`, which skips the
    child pairs the step rejects by pair key) and reduces the result;
    accepted terms decode to graphs isomorphic to g.
    """
    budget = budget or Budget()
    aut = materialize(DecompMachine(g, t), budget)
    return reduce_bisim(trim(aut, budget), budget)
