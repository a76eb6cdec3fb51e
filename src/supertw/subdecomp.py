"""Closure of a decomposition language under sub-decompositions.

Given an automaton A over the t-concrete bag alphabet, Sub(A) accepts
exactly the terms T for which some T' in L(A) has the same shape,
pointwise super-bags, and arc-consistent label removal (conditions
S1-S3). Decoded, those are precisely the subgraphs of the graphs decoded
from L(A).

States are built lazily as (q, B, B'): q a state of A, B' the root bag
labels of the super-run, B <= B' the labels kept by the sub-term. The
paired variant keeps the super-bag inside the symbol so a witness run
reconstructs the super-decomposition alongside the sub one.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .decomp import ConcreteBag, bag, bag_alphabet, sub_bags
from .errors import AlphabetMismatchError
from .tree_automata import TreeAutomaton
from .util import Budget, osorted


class PairBag:
    """Symbol of a paired sub/super decomposition term."""

    __slots__ = ("sub", "sup", "_hash")

    def __init__(self, sub: ConcreteBag, sup: ConcreteBag):
        if not (sub.B <= sup.B and sub.b <= sup.b):
            raise ValueError("first component must be a sub-bag of the second")
        self.sub = sub
        self.sup = sup
        self._hash = hash((sub, sup))

    def __eq__(self, other):
        return (isinstance(other, PairBag)
                and self.sub == other.sub and self.sup == other.sup)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.sub.sort_key(), self.sup.sort_key())

    def __repr__(self):
        return f"PairBag({self.sub!r}, {self.sup!r})"

    def to_obj(self):
        return {"k": "pairbag", "sub": self.sub.to_obj(), "sup": self.sup.to_obj()}


def pair_alphabet(t: int):
    """All (sub-bag, super-bag) symbol pairs over B(t)."""
    out = []
    for sup in bag_alphabet(t):
        for sub in sub_bags(sup):
            out.append(PairBag(sub, sup))
    return tuple(osorted(out))


def _bag_arity_t(aut) -> int:
    """Validate that the alphabet is exactly B(t) and return t."""
    labels = set()
    for sym in aut.alphabet:
        if not isinstance(sym, ConcreteBag):
            raise AlphabetMismatchError("expected an automaton over concrete bags")
        labels |= sym.B
    t = max(labels) if labels else 1
    if set(aut.alphabet) != set(bag_alphabet(t)):
        raise AlphabetMismatchError("expected the full bag alphabet B(t)")
    return t


def _combos_with(st, children, anns):
    """Discovered child-state tuples for `children` that include st.

    Pairing a fresh state only with states discovered no later than itself
    covers every tuple exactly once across the whole worklist run.
    """
    base = st[0]
    if len(children) == 1:
        yield (st,)
        return
    c1, c2 = children
    if c1 == base:
        for b in tuple(anns.get(c2, ())):
            yield (st, b)
    if c2 == base:
        for a in tuple(anns.get(c1, ())):
            if c1 == base and a == st:
                continue
            yield (a, st)


def _closure(aut: TreeAutomaton, paired: bool, budget: Budget | None):
    """Shared worklist for sub_closure and sub_closure_paired.

    States are (q, B, B'): q a state of aut, B' the super root labels, B
    the kept labels. For every original rule and every tuple of discovered
    child states, the kept set B is forced on labels shared with a child
    (all-or-nothing per label component, condition S3) and free on labels
    new at this bag; the edge survives only when both endpoints do.
    """
    t = _bag_arity_t(aut)
    if budget is None:
        budget = Budget()

    states: dict = {}
    trs: dict = {}
    queue = deque()
    by_child: dict = {}
    for children, sym, q in aut.transitions:
        if children:
            for c in set(children):
                by_child.setdefault(c, []).append((children, sym, q))

    def add(st):
        if st not in states:
            states[st] = None
            queue.append(st)

    def emit(children, sub: ConcreteBag, sup: ConcreteBag, tgt):
        sym = PairBag(sub, sup) if paired else sub
        tr = (children, sym, tgt)
        if tr not in trs:
            trs[tr] = None
            budget.spend(1, "sub_closure")

    def expand(combo, sup: ConcreteBag, q):
        forced = {}
        for _cq, cB, csupB in combo:
            for s in sup.B & csupB:
                want = s in cB
                got = forced.get(s)
                if got is None:
                    forced[s] = want
                elif got != want:
                    return
        base = frozenset(s for s, keep in forced.items() if keep)
        free = sorted(sup.B - set(forced))
        for k in range(len(free) + 1):
            for extra in combinations(free, k):
                B = base | frozenset(extra)
                tgt = (q, B, sup.B)
                emit(combo, bag(B), sup, tgt)
                add(tgt)
                if sup.b and sup.b <= B:
                    emit(combo, bag(B, sup.b), sup, tgt)
                    add(tgt)

    for children, sym, q in aut.transitions:
        if not children:
            expand((), sym, q)

    anns: dict = {}
    while queue:
        st = queue.popleft()
        anns.setdefault(st[0], []).append(st)
        for children, sym, q in by_child.get(st[0], ()):
            for combo in _combos_with(st, children, anns):
                expand(combo, sym, q)

    final = [st for st in states if st[0] in aut.final]
    alphabet = pair_alphabet(t) if paired else aut.alphabet
    return TreeAutomaton.raw(alphabet, states, final, trs)


def sub_closure(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Automaton accepting the sub-decompositions of members of L(aut)."""
    return _closure(aut, False, budget)


def sub_closure_paired(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Pair-term variant: symbols are (sub-bag, super-bag).

    The second projection of an accepted term lies in L(aut) and the first
    is one of its sub-decompositions; projecting every symbol to its first
    component recovers sub_closure(aut) exactly.
    """
    return _closure(aut, True, budget)
