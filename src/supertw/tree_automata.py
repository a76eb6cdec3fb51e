"""Bottom-up nondeterministic tree automata over arity <= 2 alphabets.

An automaton is (alphabet, states, final, transitions) with transitions of
the form (children, symbol, target) where children is a tuple of 0, 1 or 2
states. A term is accepted when some bottom-up run lands in a final state.

All constructions (product, union, subset construction, complement,
projection) iterate in a canonical order so their output is reproducible
byte for byte; they spend against a `util.Budget` and raise
ResourceExceededError when a product outgrows it.
"""

from __future__ import annotations

from collections import deque

from .errors import AlphabetMismatchError, UnknownSymbolError
from .terms import Term, term
from .util import Budget, ordkey, osorted


class TreeAutomaton:
    __slots__ = ("alphabet", "states", "final", "transitions", "_index")

    def __init__(self, alphabet, states, final, transitions):
        self.alphabet = tuple(osorted(set(alphabet)))
        self.states = tuple(osorted(set(states)))
        self.final = frozenset(final)
        # sort transitions canonically via integer surrogates so deep state
        # keys are derived once per state, not once per comparison element
        sidx = {s: i for i, s in enumerate(self.states)}
        aidx = {a: i for i, a in enumerate(self.alphabet)}
        uniq = set(transitions)

        def tkey(tr):
            children, sym, q = tr
            return (tuple(sidx[c] for c in children), aidx[sym], sidx[q])

        try:
            self.transitions = tuple(sorted(uniq, key=tkey))
        except KeyError:
            raise ValueError("transition references unknown state or symbol")
        if not self.final <= set(sidx):
            raise ValueError("final states not among states")
        for children, _sym, _q in uniq:
            if len(children) > 2:
                raise ValueError("arity at most 2")
        self._index = None

    @classmethod
    def raw(cls, alphabet, states, final, transitions):
        """Trusted constructor for the automaton-building pipelines.

        Skips sorting and validation: `alphabet` must already be in canonical
        order, `states` and `transitions` duplicate-free in a deterministic
        (construction) order. Use the regular constructor for anything
        assembled by hand.
        """
        self = object.__new__(cls)
        self.alphabet = tuple(alphabet)
        self.states = tuple(states)
        self.final = frozenset(final)
        self.transitions = tuple(transitions)
        self._index = None
        return self

    def size(self):
        return len(self.states) + len(self.transitions)

    def __repr__(self):
        return (f"TreeAutomaton(|Q|={len(self.states)}, |F|={len(self.final)}, "
                f"|Δ|={len(self.transitions)}, |Σ|={len(self.alphabet)})")

    def index(self):
        """transitions grouped as {symbol: {arity: [(children, target), ...]}}"""
        if self._index is None:
            idx = {}
            for children, sym, q in self.transitions:
                idx.setdefault(sym, {}).setdefault(len(children), []).append((children, q))
            self._index = idx
        return self._index


def make_automaton(alphabet, final, transitions, states=()):
    """Build an automaton, deriving the state set from transitions and final."""
    sts = set(states)
    sts.update(final)
    for children, _sym, q in transitions:
        sts.add(q)
        sts.update(children)
    return TreeAutomaton(alphabet, sts, final, transitions)


def run(aut: TreeAutomaton, t: Term, cache=None):
    """The set of states reachable at the root of t, as a frozenset."""
    idx = aut.index()
    aset = set(aut.alphabet)
    if cache is None:
        cache = {}

    def go(node):
        got = cache.get(node)
        if got is not None:
            return got
        if node.symbol not in aset:
            raise UnknownSymbolError(f"symbol {node.symbol!r} not in automaton alphabet")
        by_arity = idx.get(node.symbol, {})
        rules = by_arity.get(len(node.children), [])
        if not node.children:
            out = frozenset(q for _c, q in rules)
        elif len(node.children) == 1:
            s1 = go(node.children[0])
            out = frozenset(q for c, q in rules if c[0] in s1)
        else:
            s1 = go(node.children[0])
            s2 = go(node.children[1])
            out = frozenset(q for c, q in rules if c[0] in s1 and c[1] in s2)
        cache[node] = out
        return out

    return go(t)


def accepts(aut: TreeAutomaton, t: Term, cache=None) -> bool:
    return bool(run(aut, t, cache) & aut.final)


def _check_same_alphabet(a: TreeAutomaton, b: TreeAutomaton, op):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"{op}: operand alphabets differ")


def intersect(a: TreeAutomaton, b: TreeAutomaton, budget: Budget | None = None):
    """Product automaton restricted to reachable state pairs."""
    _check_same_alphabet(a, b, "intersect")
    if budget is None:
        budget = Budget()
    ai, bi = a.index(), b.index()

    # per-symbol child indexes for the worklist join
    def child_indexes(idx):
        u = {}          # sym -> {child: [target]}
        b1 = {}         # sym -> {child1: [(child2, target)]}
        b2 = {}         # sym -> {child2: [(child1, target)]}
        for sym, by_ar in idx.items():
            for c, q in by_ar.get(1, []):
                u.setdefault(sym, {}).setdefault(c[0], []).append(q)
            for c, q in by_ar.get(2, []):
                b1.setdefault(sym, {}).setdefault(c[0], []).append((c[1], q))
                b2.setdefault(sym, {}).setdefault(c[1], []).append((c[0], q))
        return u, b1, b2

    aU, aB1, aB2 = child_indexes(ai)
    bU, bB1, bB2 = child_indexes(bi)

    pairs = {}
    agenda = deque()
    out = {}

    def discover(p):
        if p not in pairs:
            pairs[p] = len(pairs)
            agenda.append(p)

    def emit(children, sym, target):
        tr = (children, sym, target)
        if tr not in out:
            out[tr] = None
            budget.spend(1, "intersect")
        discover(target)

    for sym in a.alphabet:
        for ca, qa in ai.get(sym, {}).get(0, []):
            for cb, qb in bi.get(sym, {}).get(0, []):
                emit((), sym, (qa, qb))

    while agenda:
        p = agenda.popleft()
        pa, pb = p
        for sym in a.alphabet:
            for qa in aU.get(sym, {}).get(pa, ()):
                for qb in bU.get(sym, {}).get(pb, ()):
                    emit((p,), sym, (qa, qb))
            la = aB1.get(sym, {}).get(pa, ())
            lb = bB1.get(sym, {}).get(pb, ())
            if la and lb:
                for ca2, qa in la:
                    for cb2, qb in lb:
                        if (ca2, cb2) in pairs:
                            emit((p, (ca2, cb2)), sym, (qa, qb))
            la = aB2.get(sym, {}).get(pa, ())
            lb = bB2.get(sym, {}).get(pb, ())
            if la and lb:
                for ca1, qa in la:
                    for cb1, qb in lb:
                        if (ca1, cb1) in pairs:
                            emit(((ca1, cb1), p), sym, (qa, qb))

    final = [p for p in pairs if p[0] in a.final and p[1] in b.final]
    return TreeAutomaton.raw(a.alphabet, pairs, final, out)


def union(a: TreeAutomaton, b: TreeAutomaton):
    """Disjoint union; accepts L(a) ∪ L(b)."""
    _check_same_alphabet(a, b, "union")
    trs = [(tuple((0, c) for c in ch), sym, (0, q)) for ch, sym, q in a.transitions]
    trs += [(tuple((1, c) for c in ch), sym, (1, q)) for ch, sym, q in b.transitions]
    final = [(0, q) for q in a.final] + [(1, q) for q in b.final]
    states = [(0, q) for q in a.states] + [(1, q) for q in b.states]
    return TreeAutomaton.raw(a.alphabet, states, final, trs)


def determinize(a: TreeAutomaton, budget: Budget | None = None):
    """Reachable subset construction; the result is deterministic and complete.

    The empty subset acts as the sink, so every symbol/child combination has
    exactly one transition among the materialized subset states.
    """
    if budget is None:
        budget = Budget()
    ai = a.index()
    subsets: dict[frozenset, int] = {}
    order: list[frozenset] = []
    trs = []

    def intern(s):
        if s not in subsets:
            subsets[s] = len(order)
            order.append(s)
        return s

    for sym in a.alphabet:
        target = frozenset(q for _c, q in ai.get(sym, {}).get(0, []))
        intern(target)
        trs.append(((), sym, target))
        budget.spend(1, "determinize")

    unary = {sym: ai.get(sym, {}).get(1, []) for sym in a.alphabet}
    binary = {sym: ai.get(sym, {}).get(2, []) for sym in a.alphabet}
    done_pairs = set()
    i = 0
    while i < len(order):
        s = order[i]
        i += 1
        for sym in a.alphabet:
            tgt = frozenset(q for c, q in unary[sym] if c[0] in s)
            intern(tgt)
            trs.append(((s,), sym, tgt))
            budget.spend(1, "determinize")
        # pair s with every subset discovered so far (including itself);
        # pairs with later subsets are produced when those are expanded
        for other in list(order):
            for left, right in ((s, other), (other, s)) if s != other else ((s, s),):
                if (left, right) in done_pairs:
                    continue
                done_pairs.add((left, right))
                for sym in a.alphabet:
                    tgt = frozenset(q for c, q in binary[sym]
                                    if c[0] in left and c[1] in right)
                    intern(tgt)
                    trs.append(((left, right), sym, tgt))
                    budget.spend(1, "determinize")

    final = [s for s in order if s & a.final]
    return TreeAutomaton.raw(a.alphabet, order, final, trs)


def complement(a: TreeAutomaton, budget: Budget | None = None):
    """Accepts exactly the terms over a's alphabet that a rejects."""
    d = determinize(a, budget)
    final = [s for s in d.states if s not in d.final]
    return TreeAutomaton.raw(d.alphabet, d.states, final, d.transitions)


def project(a: TreeAutomaton, f, alphabet=None):
    """Relabel every transition symbol through f; states are unchanged.

    The language is the f-image of L(a). `alphabet` defaults to the f-image
    of a's alphabet; pass a larger one to embed into a wider symbol set.
    """
    fmap = {sym: f(sym) for sym in a.alphabet}
    image = set(fmap.values())
    if alphabet is None:
        alphabet = image
    else:
        missing = image - set(alphabet)
        if missing:
            raise AlphabetMismatchError(f"project: image symbols missing from alphabet: {len(missing)}")
    trs = dict.fromkeys((ch, fmap[sym], q) for ch, sym, q in a.transitions)
    return TreeAutomaton.raw(osorted(set(alphabet)), a.states, a.final, trs)


def _inhabited(aut: TreeAutomaton):
    """States reachable by some term, discovered in a deterministic order."""
    by_need = {}
    leaf_targets = []
    for children, _sym, q in aut.transitions:
        if children:
            for c in set(children):
                by_need.setdefault(c, []).append((children, q))
        else:
            leaf_targets.append(q)
    alive = set()
    agenda = deque()

    def add(q):
        if q not in alive:
            alive.add(q)
            agenda.append(q)

    for q in leaf_targets:
        add(q)
    while agenda:
        s = agenda.popleft()
        for children, q in by_need.get(s, ()):
            if q not in alive and all(c in alive for c in children):
                add(q)
    return alive


def is_empty(aut: TreeAutomaton) -> bool:
    return not (_inhabited(aut) & aut.final)


def trim(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Drop states that no term reaches or that cannot lead to acceptance.

    With a budget, its deadline is checked before each of the two passes."""
    if budget is not None:
        budget.check_time("trim")
    alive = _inhabited(aut)
    live_trs = [tr for tr in aut.transitions
                if tr[2] in alive and all(c in alive for c in tr[0])]
    back = {}
    for children, _sym, q in live_trs:
        back.setdefault(q, []).append(children)
    useful = set()
    agenda = deque(q for q in aut.final if q in alive)
    useful.update(agenda)
    while agenda:
        q = agenda.popleft()
        for children in back.get(q, ()):
            for c in children:
                if c not in useful:
                    useful.add(c)
                    agenda.append(c)
    if budget is not None:
        budget.check_time("trim")
    trs = [tr for tr in live_trs
           if tr[2] in useful and all(c in useful for c in tr[0])]
    final = [q for q in aut.final if q in useful]
    states = [q for q in aut.states if q in useful]
    return TreeAutomaton.raw(aut.alphabet, states, final, trs)


def _refine(n, block0, sig_of, budget=None):
    """Partition refinement: split blocks by sig_of(current blocks) until
    stable. Block ids are dense ints in first-seen state order. With a
    budget, its deadline is checked once per round."""
    block = block0
    nblocks = len(set(block))
    while True:
        if budget is not None:
            budget.check_time("reduce_bisim")
        sigs = sig_of(block)
        remap: dict = {}
        newblock = [0] * n
        for i in range(n):
            k = (block[i], sigs[i])
            b = remap.get(k)
            if b is None:
                b = len(remap)
                remap[k] = b
            newblock[i] = b
        if len(remap) == nblocks:
            return newblock
        block, nblocks = newblock, len(remap)


def _quotient(aut: TreeAutomaton, block, sidx):
    # always relabel to dense ints: downstream subset constructions hash
    # and store states constantly, and deep product tuples make that slow
    nblocks = len(set(block))
    out = dict.fromkeys((tuple(block[sidx[c]] for c in ch), sym, block[sidx[q]])
                        for ch, sym, q in aut.transitions)
    final = sorted({block[sidx[q]] for q in aut.final})
    return TreeAutomaton.raw(aut.alphabet, range(nblocks), final, out)


def _reduce_backward(aut: TreeAutomaton, budget=None) -> TreeAutomaton:
    """Quotient by the coarsest backward bisimulation: states merge when
    they are reachable by exactly the same terms, so the language survives
    however finality mixes inside a block."""
    sidx = {s: i for i, s in enumerate(aut.states)}
    aidx = {a: i for i, a in enumerate(aut.alphabet)}
    trs = [(tuple(sidx[c] for c in ch), aidx[sym], sidx[q])
           for ch, sym, q in aut.transitions]
    n = len(aut.states)

    def sig_of(block):
        sigs: list[list] = [[] for _ in range(n)]
        for ch, sy, q in trs:
            sigs[q].append((sy, tuple(block[c] for c in ch)))
        return [frozenset(s) for s in sigs]

    block = _refine(n, [0] * n, sig_of, budget)
    return _quotient(aut, block, sidx)


def _reduce_forward(aut: TreeAutomaton, budget=None) -> TreeAutomaton:
    """Quotient by a forward bisimulation: equally final states merge when
    every rule using one at position i (with the same concrete siblings)
    has a matching rule using the other into an equivalent target."""
    sidx = {s: i for i, s in enumerate(aut.states)}
    aidx = {a: i for i, a in enumerate(aut.alphabet)}
    trs = [(tuple(sidx[c] for c in ch), aidx[sym], sidx[q])
           for ch, sym, q in aut.transitions]
    n = len(aut.states)
    fin = [1 if s in aut.final else 0 for s in aut.states]

    def sig_of(block):
        sigs: list[list] = [[] for _ in range(n)]
        for ch, sy, q in trs:
            bq = block[q]
            if len(ch) == 1:
                sigs[ch[0]].append((sy, 0, -1, bq))
            elif ch:
                l, r = ch
                sigs[l].append((sy, 0, r, bq))
                sigs[r].append((sy, 1, l, bq))
        return [(fin[i], frozenset(sigs[i])) for i in range(n)]

    block = _refine(n, [0] * n, sig_of, budget)
    return _quotient(aut, block, sidx)


def reduce_bisim(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Shrink an automaton by alternating backward and forward
    bisimulation quotients until neither merges anything. The language is
    unchanged; the result is typically far smaller after projections and
    products have multiplied equivalent states. With a budget, its
    deadline is checked once per refinement round."""
    while True:
        before = len(aut.states)
        aut = _reduce_forward(_reduce_backward(aut, budget), budget)
        if len(aut.states) == before:
            return aut


def extract_witness(aut: TreeAutomaton):
    """A minimal-depth accepted term, or None if the language is empty.

    Deterministic: states acquire witnesses in breadth-first rounds, scanning
    transitions in their canonical order; the first final state to acquire a
    witness (round order, then scan order) is reported.
    """
    choice = {}   # state -> (symbol, children states)
    depth = {}
    target = None
    round_no = 0
    while target is None:
        round_no += 1
        new = []
        for children, sym, q in aut.transitions:
            if q in choice:
                continue
            if all(c in choice and depth[c] < round_no for c in children):
                choice[q] = (sym, children)
                depth[q] = round_no
                new.append(q)
        if not new:
            return None
        for q in new:
            if q in aut.final:
                target = q
                break

    memo = {}

    def build(q):
        got = memo.get(q)
        if got is None:
            sym, children = choice[q]
            got = term(sym, *[build(c) for c in children])
            memo[q] = got
        return got

    return build(target)


def intersection_nonempty(a: TreeAutomaton, b: TreeAutomaton,
                          budget: Budget | None = None) -> bool:
    """Emptiness of L(a) ∩ L(b), short-circuiting on the first final pair."""
    _check_same_alphabet(a, b, "intersection_nonempty")
    if budget is None:
        budget = Budget()
    ai, bi = a.index(), b.index()

    def child_indexes(idx):
        u, b1, b2 = {}, {}, {}
        for sym, by_ar in idx.items():
            for c, q in by_ar.get(1, []):
                u.setdefault(sym, {}).setdefault(c[0], []).append(q)
            for c, q in by_ar.get(2, []):
                b1.setdefault(sym, {}).setdefault(c[0], []).append((c[1], q))
                b2.setdefault(sym, {}).setdefault(c[1], []).append((c[0], q))
        return u, b1, b2

    aU, aB1, aB2 = child_indexes(ai)
    bU, bB1, bB2 = child_indexes(bi)
    pairs = set()
    agenda = deque()

    def hit(p):
        return p[0] in a.final and p[1] in b.final

    def discover(p):
        if p not in pairs:
            budget.spend(1, "intersection_nonempty")
            pairs.add(p)
            agenda.append(p)
            return hit(p)
        return False

    for sym in a.alphabet:
        for _ca, qa in ai.get(sym, {}).get(0, []):
            for _cb, qb in bi.get(sym, {}).get(0, []):
                if discover((qa, qb)):
                    return True

    while agenda:
        p = agenda.popleft()
        pa, pb = p
        for sym in a.alphabet:
            for qa in aU.get(sym, {}).get(pa, ()):
                for qb in bU.get(sym, {}).get(pb, ()):
                    if discover((qa, qb)):
                        return True
            la, lb = aB1.get(sym, {}).get(pa, ()), bB1.get(sym, {}).get(pb, ())
            for ca2, qa in la:
                for cb2, qb in lb:
                    if (ca2, cb2) in pairs and discover((qa, qb)):
                        return True
            la, lb = aB2.get(sym, {}).get(pa, ()), bB2.get(sym, {}).get(pb, ())
            for ca1, qa in la:
                for cb1, qb in lb:
                    if (ca1, cb1) in pairs and discover((qa, qb)):
                        return True
    return False


# --- serialization ---------------------------------------------------------

_SYMBOL_DECODERS = {}


def register_symbol_codec(tag, decode):
    _SYMBOL_DECODERS[tag] = decode


def symbol_to_obj(sym):
    to = getattr(sym, "to_obj", None)
    if to is not None:
        return to()
    if isinstance(sym, (int, str, bool)):
        return sym
    raise UnknownSymbolError(f"no JSON encoding for symbol {sym!r}")


def symbol_from_obj(obj):
    if isinstance(obj, dict):
        tag = obj.get("k")
        dec = _SYMBOL_DECODERS.get(tag)
        if dec is None:
            raise UnknownSymbolError(f"unknown symbol tag {tag!r}")
        return dec(obj)
    return obj


def to_json(aut: TreeAutomaton) -> dict:
    """Canonical JSON object: states densely renumbered in sorted order."""
    index = {q: i for i, q in enumerate(aut.states)}
    return {
        "alphabet": [symbol_to_obj(s) for s in aut.alphabet],
        "states": len(aut.states),
        "final": sorted(index[q] for q in aut.final),
        "transitions": [
            {"children": [index[c] for c in ch],
             "symbol": symbol_to_obj(sym),
             "to": index[q]}
            for ch, sym, q in aut.transitions
        ],
    }


def from_json(obj) -> TreeAutomaton:
    alphabet = [symbol_from_obj(s) for s in obj["alphabet"]]
    states = range(obj["states"])
    final = obj["final"]
    trs = [(tuple(rec["children"]), symbol_from_obj(rec["symbol"]), rec["to"])
           for rec in obj["transitions"]]
    return TreeAutomaton(alphabet, states, final, trs)
