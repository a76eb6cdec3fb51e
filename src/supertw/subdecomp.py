"""Closure of a decomposition language under sub-decompositions.

Given an automaton A over the t-concrete bag alphabet, Sub(A) accepts
exactly the terms T for which some T' in L(A) has the same shape,
pointwise super-bags, and arc-consistent label removal (conditions
S1-S3). Decoded, those are precisely the subgraphs of the graphs decoded
from L(A).

A state stands for a triple (q, B, B'): q a state of A, B' the root bag
labels of the super-run, B <= B' the labels kept by the sub-term. The
triples are found by a worklist and numbered as they are found, so the
closure's states are the ids 0..n-1 in discovery order, and its symbols
are the objects of its alphabet. The paired variant keeps the super-bag
inside the symbol so a witness run reconstructs the super-decomposition
alongside the sub one.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .decomp import ConcreteBag, bag_alphabet, sub_bags
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


def _mask(labels) -> int:
    """The bitmask of a set of labels: bit s for label s."""
    return sum(1 << s for s in labels)


def _kept_sets(free: int, base: int):
    """base plus each subset of the labels in free, as masks: by size,
    then lexicographically."""
    bits = [1 << s for s in range(free.bit_length()) if free >> s & 1]
    return [base | sum(extra)
            for k in range(len(bits) + 1) for extra in combinations(bits, k)]


def _combos_with(st, base, children, anns):
    """Discovered child-state tuples for `children` that include state st,
    whose state of A is base.

    Pairing a fresh state only with states discovered no later than itself
    covers every tuple exactly once across the whole worklist run.
    """
    if len(children) == 1:
        yield (st,)
        return
    c1, c2 = children
    if c1 == base:
        for b in anns.get(c2, ()):
            yield (st, b)
    if c2 == base:
        for a in anns.get(c1, ()):
            if c1 == base and a == st:
                continue
            yield (a, st)


def _closure(aut: TreeAutomaton, paired: bool, budget: Budget | None):
    """Shared worklist for sub_closure and sub_closure_paired.

    A state stands for (q, B, B'): q a state of aut, B' the super root
    labels, B the kept labels. For every original rule and every tuple of
    discovered child states, the kept set B is forced on labels shared
    with a child (all-or-nothing per label component, condition S3) and
    free on labels new at this bag; the edge survives only when both
    endpoints do.

    Each (q, B, B') is numbered when first found, so the result's states
    are the ids 0..n-1 in discovery order, the order `to_json` numbers
    them by. Label sets are bitmasks. Each input symbol maps each kept
    set B to the alphabet positions of its sub-bags with bag set B, in
    `sub_bags` order, so the output symbols are the output alphabet's own
    objects, looked up and not built. A transition is recorded as
    (children ids, symbol position, target id) and decoded once at the
    end. Plain mode needs that deduplication: rules with super-bags
    (B', ∅) and (B', b') both give bag(B) when the edge is dropped.
    """
    t = _bag_arity_t(aut)
    if budget is None:
        budget = Budget()
    stage = "sub_closure_paired" if paired else "sub_closure"
    alphabet = pair_alphabet(t) if paired else aut.alphabet
    pos = {a: i for i, a in enumerate(alphabet)}
    # per input symbol: its label mask, per kept mask the output positions
    # of its sub-bags with that bag set, and the kept sets met per
    # (forced, base) with their positions
    specs = {}
    for sup in aut.alphabet:
        table = {}
        for sub in sub_bags(sup):
            table.setdefault(_mask(sub.B), []).append(
                pos[PairBag(sub, sup) if paired else sub])
        specs[sup] = (_mask(sup.B), table, {})

    ids: dict = {}    # (q, B, B') -> state id
    info: list = []   # state id -> (q, B, B')
    trs: dict = {}    # (children ids, symbol position, target id) -> None
    queue = deque()
    by_child: dict = {}
    for children, sym, q in aut.transitions:
        if children:
            for c in set(children):
                by_child.setdefault(c, []).append((children, specs[sym], q))

    def expand(combo, spec, q):
        supB, table, memo = spec
        # forced: the labels shared with a child; base: those of them kept.
        # A label shared with both children is kept by both or by neither.
        forced = base = 0
        for c in combo:
            _cq, cB, csupB = info[c]
            shared = supB & csupB
            kept = cB & shared
            if (kept ^ base) & shared & forced:
                return
            forced |= shared
            base |= kept
        outs = memo.get((forced, base))
        if outs is None:
            outs = memo[forced, base] = [
                (B, table[B]) for B in _kept_sets(supB & ~forced, base)]
        for B, positions in outs:
            st = (q, B, supB)
            tgt = ids.get(st)
            if tgt is None:
                tgt = ids[st] = len(info)
                info.append(st)
                queue.append(tgt)
            for si in positions:
                tr = (combo, si, tgt)
                if tr not in trs:
                    trs[tr] = None
                    budget.spend(1, stage)

    for children, sym, q in aut.transitions:
        if not children:
            expand((), specs[sym], q)

    anns: dict = {}   # state of aut -> ids of the states over it, in order
    while queue:
        st = queue.popleft()
        base = info[st][0]
        anns.setdefault(base, []).append(st)
        for children, spec, q in by_child.get(base, ()):
            for combo in _combos_with(st, base, children, anns):
                expand(combo, spec, q)

    final = [i for i, (q, _B, _S) in enumerate(info) if q in aut.final]
    trs = [(ch, alphabet[si], q) for ch, si, q in trs]
    return TreeAutomaton.raw(alphabet, range(len(info)), final, trs)


def sub_closure(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Automaton accepting the sub-decompositions of members of L(aut).

    Its states are the ids 0..n-1 of the (q, B, B') triples in discovery
    order, and its symbols are the objects of aut's alphabet, B(t). It
    spends under the stage "sub_closure"."""
    return _closure(aut, False, budget)


def sub_closure_paired(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Pair-term variant: symbols are (sub-bag, super-bag).

    The second projection of an accepted term lies in L(aut) and the first
    is one of its sub-decompositions; projecting every symbol to its first
    component recovers sub_closure(aut) exactly.

    Its states are the ids 0..n-1 of the (q, B, B') triples in discovery
    order, and its symbols are the objects of `pair_alphabet(t)`. It
    spends under the stage "sub_closure_paired", the name of its stage
    in the solver's stats.
    """
    return _closure(aut, True, budget)
