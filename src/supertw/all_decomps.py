"""Automaton accepting exactly the t-concrete decompositions of one graph.

The paper builds it from an enriched automaton over (G,t)-concrete bags,
in which each label names a concrete vertex of G and carries the set of
that vertex's incident edges realized so far, projected to plain bags
and intersected with a vertex-counting automaton. DecompMachine fuses
that projection-and-count product into one construction over plain
bags: a state is the map from live labels to (vertex, realized-edge
mask) plus a count of closed components. Label deaths are visible on
plain-bag transitions (a label of the child bag missing from the parent
bag), so the root markings of the enriched construction need no
guessing here, and the fused state space stays small enough to
materialize.
"""

from __future__ import annotations

from itertools import chain, islice, permutations

from .decomp import bag_alphabet
from .errors import NotConnectedError
from .graph import Graph, is_connected
from .tree_automata import TreeAutomaton, reduce_bisim, trim
from .util import Budget, osorted


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

    def _cut(self, live, B):
        """Split live labels against a parent bag: survivors and deaths.

        Returns None when a dropped label has unrealized incidence (its
        component cannot end here); otherwise (kept, deaths).
        """
        kept = []
        deaths = 0
        for s, v, mask in live:
            if s in B:
                kept.append((s, v, mask))
            elif mask == self.full[v]:
                deaths += 1
            else:
                return None
        return tuple(kept), deaths

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


def materialize(machine: DecompMachine, budget: Budget | None = None):
    """The reachable part of a DecompMachine, unreduced, and its machine
    states: (automaton, the states in discovery order).

    The automaton's states are the ids 0..n-1 of the machine states in
    discovery order, the order `to_json` numbers them by; its transitions
    and final states carry those ids, and its symbols are the machine
    alphabet's own objects.

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
    known: dict = {}  # machine state -> id
    order: list = []  # id -> machine state
    transitions: list = []

    # Each (children, symbol) is discovered once and its targets are
    # distinct, so every transition is new: no duplicate check is needed.
    def discover(children, sym, targets):
        for q in targets:
            i = known.get(q)
            if i is None:
                i = known[q] = len(order)
                order.append(q)
            transitions.append((children, sym, i))
            budget.spend(1, "decompositions-of-g")

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
                lists = machine.step_bag_set((q, order[i]), B)
                if any(lists):
                    partners.append((i, lists))
            pairs[B] = partners
        for sym, B, j in slots:
            discover((frontier,), sym, alone[B][j])
            for i, lists in pairs[B]:
                targets = lists[j]
                discover((frontier, i), sym, targets)
                if i != frontier:
                    discover((i, frontier), sym, targets)
        frontier += 1

    final = [i for i, q in enumerate(order) if machine.is_final(q)]
    aut = TreeAutomaton.raw(machine.alphabet, range(len(order)), final,
                            transitions)
    return aut, order


def build_all_decompositions(g: Graph, t: int, budget: Budget | None = None) -> TreeAutomaton:
    """Automaton over plain bags accepting exactly the decompositions of g.

    Materializes the DecompMachine (see `materialize`, which skips the
    child pairs the step rejects by pair key) and reduces the result;
    accepted terms decode to graphs isomorphic to g. The states are ints,
    0..n-1 in the order `to_json` numbers them, and the symbols are the
    objects of the machine's alphabet, `bag_alphabet(t)` in canonical order.
    """
    budget = budget or Budget()
    aut, _ = materialize(DecompMachine(g, t), budget)
    return reduce_bisim(trim(aut, budget), budget)
