"""Bottom-up nondeterministic tree automata over arity <= 2 alphabets.

An automaton is (alphabet, states, final, transitions) with transitions of
the form (children, symbol, target) where children is a tuple of 0, 1 or 2
states. A term is accepted when some bottom-up run lands in a final state.

The transitions are stored in four parallel int columns, each an
`array("i")`: left child, right child (-1 where absent), symbol position
in the alphabet and target, with states given by their positions in
`states`. That is 16 bytes a transition, where a (children, symbol,
target) tuple takes about 130. The tuple view `.transitions` is derived
from the columns on first read and cached on the automaton;
`n_transitions` counts without it. Every construction here reads and
writes columns, so none of them builds the tuple view.

The constructions here are the ones the pipeline runs: product,
projection, `trim`, `reduce_bisim` and witness extraction. The product
is one join, `_product`, behind three wrappers: `intersect` builds the
product automaton, `witness_prefix` builds it only until its witness is
decided, and `intersection_nonempty` stops at its first final pair
without building transitions. Negation needs no subset
construction in this module: `cmso.compile` subtracts from the validity
automaton. Every construction iterates in a canonical order so its output
is reproducible byte for byte. The products spend against a `util.Budget`
and raise ResourceExceededError when they outgrow it. `to_json` dumps an
automaton; nothing reads a dump back.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import chain

from .errors import AlphabetMismatchError, UnknownSymbolError
from .terms import Term, term
from .util import Budget, osorted


def int_columns(rows=()):
    """Four int columns (left, right, symbol, target) of `array("i")`,
    filled from `rows`, an iterable of such 4-tuples, in its order."""
    cols = (array("i"), array("i"), array("i"), array("i"))
    ls, rs, ss, qs = (col.append for col in cols)
    for l, r, s, q in rows:
        ls(l)
        rs(r)
        ss(s)
        qs(q)
    return cols


def _is_dense(states):
    return states == tuple(range(len(states)))


class TreeAutomaton:
    """The transitions live in `columns`, four parallel `array("i")`:
    left child, right child (-1 where absent), symbol position and target,
    by state position. `.transitions`, the (children, symbol, target)
    tuples in column order, is derived on first read and cached in
    `_trs`. `final_ids` holds the positions of the final states; when the
    states are 0..n-1, `final` is that same frozenset."""

    # _index and _groups are lazily built join indexes (`_child_indexes`,
    # `_partner_group`); they live and die with the automaton, so dropping
    # a cached automaton (`solver.clear_caches`) frees them too
    __slots__ = ("alphabet", "states", "final", "columns", "final_ids", "_trs",
                 "_index", "_groups")

    def __init__(self, alphabet, states, final, transitions):
        alphabet = tuple(osorted(set(alphabet)))
        states = tuple(osorted(set(states)))
        sidx = {s: i for i, s in enumerate(states)}
        aidx = {a: i for i, a in enumerate(alphabet)}
        uniq = set(transitions)
        for children, _sym, _q in uniq:
            if len(children) > 2:
                raise ValueError("arity at most 2")
        # sorted by (left, right, symbol, target) positions, with -1 for
        # an absent child: the order of (children, symbol, target) keys
        try:
            rows = sorted(_encode(uniq, sidx, aidx))
        except KeyError:
            raise ValueError("transition references unknown state or symbol")
        if not set(final) <= set(sidx):
            raise ValueError("final states not among states")
        self._set(alphabet, states, [sidx[q] for q in final], int_columns(rows))

    @classmethod
    def raw(cls, alphabet, states, final, transitions):
        """Trusted constructor from (children, symbol, target) tuples.

        Skips sorting, validation and deduplication: `alphabet` must be in
        canonical order, `states` and `transitions` duplicate-free in a
        deterministic order, and every symbol and state of a transition
        among `alphabet` and `states`. The tuples are encoded into columns
        and dropped. Use the regular constructor for anything assembled by
        hand.
        """
        alphabet = tuple(alphabet)
        states = tuple(states)
        aidx = {a: i for i, a in enumerate(alphabet)}
        if _is_dense(states):
            sidx = None
            fin = final
        else:
            sidx = {s: i for i, s in enumerate(states)}
            fin = [sidx[q] for q in final]
        return cls.from_columns(alphabet, states, fin,
                                int_columns(_encode(transitions, sidx, aidx)))

    @classmethod
    def from_columns(cls, alphabet, states, final_ids, cols):
        """Trusted constructor from int columns, as `int_columns` builds them.

        `final_ids` are the positions of the final states. The columns are
        kept, not copied, so they must not change afterwards; the same
        trust as `raw` applies."""
        self = object.__new__(cls)
        self._set(tuple(alphabet), tuple(states), final_ids, cols)
        return self

    def _set(self, alphabet, states, final_ids, cols):
        self.alphabet = alphabet
        self.states = states
        self.final_ids = frozenset(final_ids)
        self.final = (self.final_ids if _is_dense(states)
                      else frozenset(states[i] for i in self.final_ids))
        self.columns = cols
        self._trs = None
        self._index = None
        self._groups = None

    @property
    def transitions(self):
        """The (children, symbol, target) tuples in column order, decoded
        on first read and kept."""
        trs = self._trs
        if trs is None:
            st, al = self.states, self.alphabet
            trs = self._trs = tuple(
                (() if l < 0 else (st[l],) if r < 0 else (st[l], st[r]),
                 al[s], st[q]) for l, r, s, q in zip(*self.columns))
        return trs

    @property
    def n_transitions(self):
        return len(self.columns[3])

    def size(self):
        return len(self.states) + self.n_transitions

    def __repr__(self):
        return (f"TreeAutomaton(|Q|={len(self.states)}, |F|={len(self.final)}, "
                f"|Δ|={self.n_transitions}, |Σ|={len(self.alphabet)})")


def _encode(transitions, sidx, aidx):
    """(left, right, symbol, target) rows of (children, symbol, target)
    tuples; sidx maps states to positions, None when they are their own."""
    for children, sym, q in transitions:
        if sidx is not None:
            children = [sidx[c] for c in children]
            q = sidx[q]
        n = len(children)
        yield (children[0] if n else -1, children[1] if n == 2 else -1,
               aidx[sym], q)


def run(aut: TreeAutomaton, t: Term, cache=None):
    """The set of states reachable at the root of t, as a frozenset.

    A `cache` passed in keeps, per subterm, the state positions reached;
    pass it only with the same automaton."""
    pos, leaf, unary, left, _right = _child_indexes(aut)
    _, rcol, _, qcol = aut.columns
    if cache is None:
        cache = {}

    def go(node):
        got = cache.get(node)
        if got is not None:
            return got
        si = pos.get(node.symbol)
        if si is None:
            raise UnknownSymbolError(f"symbol {node.symbol!r} not in automaton alphabet")
        if not node.children:
            out = frozenset(leaf[si])
        elif len(node.children) == 1:
            by_child = unary[si]
            out = frozenset(q for c in go(node.children[0]) for q in by_child.get(c, ()))
        else:
            by_left = left[si]
            s1 = go(node.children[0])
            s2 = go(node.children[1])
            out = frozenset(qcol[k] for c in s1 for k in by_left.get(c, ())
                            if rcol[k] in s2)
        cache[node] = out
        return out

    out = go(t)
    if aut.final is aut.final_ids:  # dense states: positions are the states
        return out
    return frozenset(aut.states[i] for i in out)


def accepts(aut: TreeAutomaton, t: Term, cache=None) -> bool:
    return bool(run(aut, t, cache) & aut.final)


def _check_same_alphabet(a: TreeAutomaton, b: TreeAutomaton, op):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"{op}: operand alphabets differ")


def _child_indexes(aut: TreeAutomaton):
    """Indexes for `run` and the worklist joins, built once per automaton.

    (symbol -> alphabet position, then per position: leaf targets
    [target], unary {child: [target]}, binary by left child {child1:
    positions} and by right child {child2: positions}), over state
    positions. A binary entry holds the column positions of its rules in
    an `array("i")`; every list is in transition order. It is kept in the
    automaton's `_index` slot, beside the lazy partner groups of
    `_partner_group`."""
    got = aut._index
    if got is None:
        pos = {a: i for i, a in enumerate(aut.alphabet)}
        leaf = [[] for _ in pos]
        unary = [{} for _ in pos]
        left = [{} for _ in pos]
        right = [{} for _ in pos]
        for k, (l, r, si, q) in enumerate(zip(*aut.columns)):
            if l < 0:
                leaf[si].append(q)
            elif r < 0:
                unary[si].setdefault(l, []).append(q)
            else:
                by = left[si].get(l)
                if by is None:
                    by = left[si][l] = array("i")
                by.append(k)
                by = right[si].get(r)
                if by is None:
                    by = right[si][r] = array("i")
                by.append(k)
        got = aut._index = (pos, leaf, unary, left, right)
    return got


class _Stop(Exception):
    """A `_product` with a stopping rule met it."""


def _product(a: TreeAutomaton, b: TreeAutomaton, budget, stage, stop=None):
    """The product join behind `intersect`, `witness_prefix` and
    `intersection_nonempty`.

    Returns (pairs, cols, stopped): pairs[id] is (qa, qb, id of the pair
    whose pop found it, -1 for a leaf pair), state positions numbered in
    discovery order; cols are the transitions' columns (`int_columns`)
    over pair ids in emission order, each appended once with one
    `budget.spend(1, stage)`. Three stopping rules share the join and
    number the pairs alike:

    - `stop=None` builds everything (`intersect`);
    - `stop="final"` builds no transition: each new pair spends 1
      instead, and the first final pair stops the join
      (`intersection_nonempty`);
    - `stop="witness"` stops right after the transition from which
      `extract_witness` would build its witness on the whole product, or
      at the pop that makes it certain (`witness_prefix`).

    `stopped` says whether the rule fired before the join ran out.

    Pairs are popped in id order, and each pop checks the deadline. The
    pop of p = (pa, pb) runs every rule pair of a and b with child pa and
    pb on the same side, in rule order (a's rule outer), and makes a
    transition when the other children form a known pair: the partner c.

    The join reads only the rules that can fire. Per a-state the known
    b-partners are kept with their pair ids. b's rules with child pb on
    one side are grouped by their other child (`_partner_group`, built
    lazily and kept on b), so an a-rule with other child ca looks up the
    groups of ca's partners and visits those b-rules in rule order. Pass
    the long-lived operand, such as a cached closure, as b: its groups
    serve every later join against it.

    A pair can meet p at both pops. Say the pop of `born` found p. A
    partner c with born < c < p met p at its own pop, so it is skipped; on
    the right side born < c <= p is skipped, since the left side already
    met p with itself. `born` met p if p was found before their rule pair
    came up in that pop: each pop keeps, per partner it found itself, the
    transitions it made with it (`met`), and the partner's pop skips
    those. A skipped meeting finds no new pair. So once the pop of p
    completes, every transition whose children are all pairs of id <= p
    has been emitted.

    An a-rule whose target is its own other child (qa == ca) gives ca a
    new partner with each pair it finds, and b-rules later in the same
    loop may join with that partner. Such a rule visits its b-rules from a
    heap, into which the group of each new partner is merged from the
    current rule position on. So every pair and transition comes out in
    the same order as with a plain scan of all rule pairs that tests each
    pair of other children as it goes.
    """
    _check_same_alphabet(a, b, stage)
    if budget is None:
        budget = Budget()
    _, aL, aU, aB1, aB2 = _child_indexes(a)
    _, bL, bU, bB1, bB2 = _child_indexes(b)
    a_left, a_right, _, a_target = a.columns
    b_left, b_right, _, b_target = b.columns
    afin, bfin = a.final_ids, b.final_ids
    decide = stop == "final"
    spend = budget.spend
    partners = {}  # qa -> {qb: id of the pair (qa, qb)}, in discovery order
    pairs = []     # id -> (qa, qb, id of the pair whose pop found it)
    cols = int_columns()  # the transitions over pair ids, in emission order
    add_l, add_r, add_s, add_q = (col.append for col in cols)
    met = {}       # id c -> {(left, right, si, target)} its finder's pop made with c
    due = -1       # with stop="witness", the pop after which a round settles
    if stop == "witness":
        spend, settle = _witness_watch(pairs, cols, afin, bfin, spend)

    def targets(qa):
        """qa's known partners, kept live in `partners`."""
        got = partners.get(qa)
        if got is None:
            got = partners[qa] = {}
        return got

    def number(tq, qa, qb, born):
        """Number the new pair (qa, qb), found by the pop of `born`."""
        t = tq[qb] = len(pairs)
        pairs.append((qa, qb, born))
        if decide:
            spend(1, stage)
            if qa in afin and qb in bfin:
                raise _Stop
        return t

    def cross(la, lb, child, si, born):
        """Pair every target of la with every target of lb: the leaf
        (child -1) or unary rules of one symbol."""
        for qa in la:
            tq = targets(qa)
            for qb in lb:
                t = tq.get(qb)
                if t is None:
                    t = number(tq, qa, qb, born)
                if not decide:
                    add_l(child)
                    add_r(-1)
                    add_s(si)
                    add_q(t)
                    spend(1, stage)

    def join(la, lb, side, si, p, pb, born, hi, start, seen):
        """Run a's rules la against b's rules lb (column positions), both
        with the popped pair p (child pb of b) on `side`; partner pairs
        with born < id < hi are skipped, and so are the transitions with
        partner `born` in `seen`. Transitions with a partner of id >=
        start are kept in `met`."""
        a_other, b_other = (a_right, b_right) if side == 0 else (a_left, b_left)
        grp = None
        for k in la:
            ca = a_other[k]
            part = partners.get(ca)
            if not part:
                continue
            if grp is None:
                grp = _partner_group(b, side, si, pb)
            if len(part) < len(grp):
                hits = [g for cb, c in part.items()
                        if not born < c < hi and (g := grp.get(cb))]
            else:
                hits = [g for cb, g in grp.items()
                        if (c := part.get(cb)) is not None and not born < c < hi]
            if not hits:
                continue
            qa = a_target[k]
            tq = targets(qa)
            if qa == ca:
                heap = list(chain.from_iterable(hits))
                heapify(heap)
                order = _drain(heap)
            elif len(hits) == 1:
                order = hits[0]
            else:
                order = sorted(chain.from_iterable(hits))
            for i in order:
                kb = lb[i]
                qb = b_target[kb]
                t = tq.get(qb)
                if t is None:
                    t = number(tq, qa, qb, p)
                    if qa == ca:
                        for i2 in grp.get(qb, ()):
                            if i2 > i:
                                heappush(heap, i2)
                if decide:
                    continue
                c = part[b_other[kb]]
                l, r = (c, p) if side else (p, c)
                if c == born and seen and (l, r, si, t) in seen:
                    continue
                add_l(l)
                add_r(r)
                add_s(si)
                add_q(t)
                spend(1, stage)
                if c >= start:
                    got = met.get(c)
                    if got is None:
                        got = met[c] = set()
                    got.add((l, r, si, t))

    try:
        for si, (la, lb) in enumerate(zip(aL, bL)):
            cross(la, lb, -1, si, -1)
        if stop == "witness":
            due = settle(-1)

        nsym = len(a.alphabet)
        p = 0
        while p < len(pairs):
            budget.check_time(stage)
            pa, pb, born = pairs[p]
            start = len(pairs)
            seen = met.pop(p, None)
            for si in range(nsym):
                la = aU[si].get(pa)
                if la:
                    lb = bU[si].get(pb)
                    if lb:
                        cross(la, lb, p, si, p)
                la = aB1[si].get(pa)
                if la:
                    lb = bB1[si].get(pb)
                    if lb:
                        join(la, lb, 0, si, p, pb, born, p, start, seen)
                la = aB2[si].get(pa)
                if la:
                    lb = bB2[si].get(pb)
                    if lb:
                        join(la, lb, 1, si, p, pb, born, p + 1, start, seen)
            if p == due:
                due = settle(p)
            p += 1
    except _Stop:
        return pairs, cols, True
    return pairs, cols, False


def _witness_watch(pairs, cols, afin, bfin, spend):
    """The stopping rule of `witness_prefix` over a `_product`'s growing
    `pairs` and `cols`, with the rounds kept by a `_Rounds`: (the spend to
    call per emitted transition, the settle to call after the pop that
    settles a round). The spend stops the join at a transition into a
    final pair whose children are all settled. `settle(p)` admits what was
    emitted, takes every round that pop p settled, and stops the join if
    a round readied a transition into a final pair; else it returns the
    pop that settles the next round, or -1 once no pair is left to take.
    Both stop by raising `_Stop`."""
    rounds = _Rounds(cols)
    choice = rounds.choice
    left, right, _, target = cols

    def final(t):
        qa, qb, _ = pairs[t]
        return qa in afin and qb in bfin

    def watched(n, stage):
        spend(n, stage)
        k = len(target) - 1
        if final(target[k]):
            l, r = left[k], right[k]
            if (l < 0 or l in choice) and (r < 0 or r in choice):
                raise _Stop

    def settle(p):
        while True:
            rounds.admit()
            taken = rounds.take()
            if not taken:
                return -1
            rounds.release(taken)
            if any(final(target[k]) for k in rounds.ready):
                raise _Stop
            last = max(taken)
            if last > p:
                return last

    return watched, settle


def _drain(heap):
    """Pop `heap` until it is empty, taking pushes made in between."""
    while heap:
        yield heappop(heap)


def _pair_automaton(a, b, pairs, cols):
    """The automaton over pair ids of a `_product`'s pairs and columns."""
    afin, bfin = a.final_ids, b.final_ids
    final = [i for i, (qa, qb, _) in enumerate(pairs) if qa in afin and qb in bfin]
    return TreeAutomaton.from_columns(a.alphabet, range(len(pairs)), final, cols)


def intersect(a: TreeAutomaton, b: TreeAutomaton, budget: Budget | None = None):
    """Product automaton restricted to reachable state pairs.

    Its states are the pair ids 0..n-1 of `_product`, in discovery order,
    not the pairs; `to_json` numbers states by position, so the dump is
    the one the pair states would give. Transitions come out in emission
    order, as columns, each charged 1 under "intersect"; each pop checks
    the deadline.
    """
    pairs, cols, _ = _product(a, b, budget, "intersect")
    return _pair_automaton(a, b, pairs, cols)


def witness_prefix(a: TreeAutomaton, b: TreeAutomaton, budget: Budget | None = None):
    """The part of `intersect(a, b)` that decides its witness.

    The first n transitions of `intersect(a, b)`, in its order, over the
    pairs found so far, where `_product` stops on the `"witness"` rule
    (`_witness_watch`): `extract_witness` returns the same term on it as
    on the whole product. A transition's round is one more than its last
    child's (0 for a leaf), and a pair's is that of the first transition
    ready into it. Once the pop of pair id N completes, every transition
    whose children both have ids <= N has been emitted, so once the pop of
    the largest id of round <= r completes, every pair of round r + 1 and
    every transition it could take are known at their final positions.
    While no pair of the settled rounds is final, the first transition
    into a final pair whose children are all settled is the witness root:
    the join stops right after it, or at the settlement that readies it
    if it came out before its children settled. Emission is
    `intersect`'s, only cut short, so the rounds up to the witness's, the
    candidates and their positions, and so the tie-break, are
    `intersect`'s. An empty product is built whole.

    Each transition is charged 1 under "intersect", and each pop checks
    the deadline, as in `intersect`.
    """
    pairs, cols, _ = _product(a, b, budget, "intersect", "witness")
    return _pair_automaton(a, b, pairs, cols)


def intersection_nonempty(a: TreeAutomaton, b: TreeAutomaton,
                          budget: Budget | None = None) -> bool:
    """Emptiness of L(a) ∩ L(b), short-circuiting on the first final pair.

    Runs the `_product` join without building transitions. Each pair found
    is charged 1 under "intersection_nonempty", so a YES charges the first
    final pair's id + 1 and a NO the number of reachable pairs; each pop
    checks the deadline.
    """
    return _product(a, b, budget, "intersection_nonempty", "final")[2]


def project(a: TreeAutomaton, f, alphabet=None):
    """Relabel every transition symbol through f; states are unchanged.

    The language is the f-image of L(a). `alphabet` defaults to the f-image
    of a's alphabet; pass a larger one to embed into a wider symbol set.
    Relabelled transitions that coincide are kept once, at the first.
    """
    fmap = {sym: f(sym) for sym in a.alphabet}
    image = set(fmap.values())
    if alphabet is None:
        alphabet = image
    else:
        missing = image - set(alphabet)
        if missing:
            raise AlphabetMismatchError(f"project: image symbols missing from alphabet: {len(missing)}")
    alphabet = osorted(set(alphabet))
    apos = {sym: i for i, sym in enumerate(alphabet)}
    spos = [apos[fmap[sym]] for sym in a.alphabet]
    left, right, syms, target = a.columns
    rows = dict.fromkeys(zip(left, right, map(spos.__getitem__, syms), target))
    return TreeAutomaton.from_columns(alphabet, a.states, a.final_ids, int_columns(rows))


def _alive(aut: TreeAutomaton) -> bytearray:
    """Flags, by state position, of the states that some term reaches
    (Horn propagation), plus one last flag that is set: flags[-1], the
    absent child, reads as reached.

    One pass in transition order. A transition whose children are all
    inhabited inhabits its target; one that still misses a child waits on
    that child's watch list and is retried when the child becomes
    inhabited. In automata built forwards (products, closures) a state's
    first incoming rule comes before every rule that reads it, so nothing
    waits there.
    """
    alive = bytearray(len(aut.states) + 1)
    alive[-1] = 1
    watch = {}  # missing child -> [(left, right, target)] waiting on it
    left, right, _, target = aut.columns
    for l, r, q in zip(left, right, target):
        if alive[q]:
            continue
        if not alive[l]:
            watch.setdefault(l, []).append((l, r, q))
        elif not alive[r]:
            watch.setdefault(r, []).append((l, r, q))
        else:
            alive[q] = 1
            if not watch:
                continue
            woken = [q]
            while woken:
                for l2, r2, t in watch.pop(woken.pop(), ()):
                    if alive[t]:
                        continue
                    if not alive[l2]:
                        watch.setdefault(l2, []).append((l2, r2, t))
                    elif not alive[r2]:
                        watch.setdefault(r2, []).append((l2, r2, t))
                    else:
                        alive[t] = 1
                        woken.append(t)
    return alive


def trim(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Drop states that no term reaches or that cannot lead to acceptance.

    The kept states, final states and transitions stay in the input's
    order, so a dump of the result does not depend on how the states are
    encoded (dense ints or deep tuples). Runs on the columns: one pass
    flags the inhabited states (`_alive`), one collects per target the
    set of children of the rules among them, for the backward search
    from the final states, and one copies the rules among the useful
    states into new columns, renumbered. The sets hold each (target,
    child) once, however many rules repeat it. With nothing to drop, the
    input itself is returned.

    With a budget, its deadline is checked before the first pass and
    before the last."""
    if budget is not None:
        budget.check_time("trim")
    n = len(aut.states)
    alive = _alive(aut)
    all_alive = alive.count(1) == n + 1
    left, right, syms, target = aut.columns
    back = defaultdict(set)  # target -> children of its inhabited rules
    for l, r, q in zip(left, right, target):
        if l >= 0 and (all_alive or alive[q] and alive[l] and alive[r]):
            got = back[q]
            got.add(l)
            got.add(r)  # -1 for a unary rule, which reads as useful
    useful = bytearray(n + 1)
    useful[-1] = 1
    agenda = [q for q in aut.final_ids if alive[q]]
    for q in agenda:
        useful[q] = 1
    while agenda:
        for c in back.pop(agenda.pop(), ()):
            if not useful[c]:
                useful[c] = 1
                agenda.append(c)
    back = None
    if budget is not None:
        budget.check_time("trim")
    if useful.count(1) == n + 1:
        return aut
    # new position by old, -1 (also at [-1]) for a dropped state
    renumber = [-1] * (n + 1)
    kept = []
    for i in range(n):
        if useful[i]:
            renumber[i] = len(kept)
            kept.append(i)
    cols = int_columns()
    add_l, add_r, add_s, add_q = (col.append for col in cols)
    for l, r, s, q in zip(left, right, syms, target):
        if useful[q] and useful[l] and useful[r]:
            add_l(renumber[l])
            add_r(renumber[r])
            add_s(s)
            add_q(renumber[q])
    states = aut.states
    return TreeAutomaton.from_columns(
        aut.alphabet, [states[i] for i in kept],
        [renumber[q] for q in aut.final_ids if useful[q]], cols)


def _refine(n, sig_of, budget=None):
    """Partition refinement of states 0..n-1, starting from one block:
    split blocks by sig_of(current blocks, their count) until stable.
    Block ids are dense ints in first-seen state order.

    A discrete partition (n blocks) cannot split, so it is returned
    without a further round; in first-seen order it is the identity. Any
    other partition is returned after one round that splits nothing. Each
    round's signatures are dropped before the next sig_of call, so one
    round's are alive at a time. With a budget, its deadline is checked
    before every round and before the discrete test, so at least once
    even for 0 or 1 states."""
    block = [0] * n
    nblocks = 1 if n else 0
    while True:
        if budget is not None:
            budget.check_time("reduce_bisim")
        if nblocks == n:
            return block, nblocks
        sigs = sig_of(block, nblocks)
        remap: dict = {}
        newblock = [remap.setdefault(key, len(remap)) for key in zip(block, sigs)]
        count = len(remap)
        sigs = remap = None
        if count == nblocks:
            return newblock, nblocks
        block, nblocks = newblock, count


def _by_arity(cols):
    """Split transition columns into parallel int columns by arity: leaf
    (targets, symbols), unary (children, symbols, targets) and binary
    (lefts, rights, symbols, targets)."""
    lq, ls, uc, us, uq, bl, br, bs, bq = (array("i") for _ in range(9))
    for l, r, sy, q in zip(*cols):
        if l < 0:
            lq.append(q)
            ls.append(sy)
        elif r < 0:
            uc.append(l)
            us.append(sy)
            uq.append(q)
        else:
            bl.append(l)
            br.append(r)
            bs.append(sy)
            bq.append(q)
    return (lq, ls), (uc, us, uq), (bl, br, bs, bq)


def _frozen(sigs):
    """Replace each per-state list by its frozenset, one at a time, so the
    lists and the sets of a round are never all alive together."""
    for i, s in enumerate(sigs):
        sigs[i] = frozenset(s)
    return sigs


def _backward_sigs(n, leaves, unary, binary):
    """Signature of state q: the rules into q, children read as blocks.
    Keys: ~symbol for a leaf rule, even for unary, odd for binary rules.
    Finality does not enter it."""
    def sig_of(block, nb):
        sigs = [[] for _ in range(n)]
        for q, sy in zip(*leaves):
            sigs[q].append(~sy)
        for c, sy, q in zip(*unary):
            sigs[q].append(2 * (sy * nb + block[c]))
        for l, r, sy, q in zip(*binary):
            sigs[q].append(2 * ((sy * nb + block[l]) * nb + block[r]) + 1)
        return _frozen(sigs)
    return sig_of


def _forward_sigs(n, fin, unary, binary):
    """Signature of state c: its finality (key -1) and the rules reading c,
    as (symbol, position, concrete sibling or none, target block)."""
    def sig_of(block, nb):
        sigs = [[-1] if i in fin else [] for i in range(n)]
        for c, sy, q in zip(*unary):
            sigs[c].append(2 * sy * (n + 1) * nb + block[q])
        for l, r, sy, q in zip(*binary):
            bq = block[q]
            sigs[l].append((2 * sy * (n + 1) + r + 1) * nb + bq)
            sigs[r].append(((2 * sy + 1) * (n + 1) + l + 1) * nb + bq)
        return _frozen(sigs)
    return sig_of


def reduce_bisim(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Shrink an automaton by alternating backward and forward
    bisimulation quotients until neither merges anything. The language is
    unchanged; the result is typically far smaller after projections and
    products have multiplied equivalent states.

    Backward: states merge when they are reachable by exactly the same
    terms, so the language survives however finality mixes inside a
    block. Forward: equally final states merge when every rule using one
    at position i (with the same concrete siblings) has a matching rule
    using the other into an equivalent target.

    Refinement runs on the columns, split by arity (`_refine`: it stops
    at a discrete partition and keeps one round of signatures alive). A
    pass that merges something quotients the columns: the transitions
    are deduplicated in first-occurrence order and the blocks numbered in
    first-seen state order. The result's states are therefore 0..n-1 in
    the order `to_json` numbers them, and its dump does not depend on how
    the input's states are encoded. When nothing merges, the result is
    the input itself if its states are 0..n-1, else the input's columns
    over the states 0..n-1. With a budget, its deadline is checked once
    per refinement round and at least once per call."""
    n = len(aut.states)
    fin = aut.final_ids
    cols = aut.columns
    leaves, unary, binary = _by_arity(cols)
    merged = False
    while True:
        before = n
        for backward in (True, False):
            sig_of = (_backward_sigs(n, leaves, unary, binary) if backward
                      else _forward_sigs(n, fin, unary, binary))
            block, nb = _refine(n, sig_of, budget)
            if nb == n:
                continue
            block.append(-1)  # block[-1]: an absent child stays absent
            left, right, syms, target = cols
            blk = block.__getitem__
            cols = int_columns(dict.fromkeys(zip(map(blk, left), map(blk, right),
                                             syms, map(blk, target))))
            fin = {block[q] for q in fin}
            n = nb
            leaves, unary, binary = _by_arity(cols)
            merged = True
        if n == before:
            break
    if not merged and _is_dense(aut.states):
        return aut
    return TreeAutomaton.from_columns(aut.alphabet, range(n), fin, cols)


def extract_witness(aut: TreeAutomaton, budget: Budget | None = None):
    """A minimal-depth accepted term, or None if the language is empty.

    Deterministic: states acquire witnesses in breadth-first rounds
    (`_Rounds`). A transition becomes ready in the round after the last of
    its children acquires one, and each state takes the first ready
    transition into it in transition order; the first final state to
    acquire a witness (round order, then the order of the transitions
    taken) is reported. Each transition waits on one missing child at a
    time, so the whole search reads each transition a bounded number of
    times. It runs on the columns, with transition positions in
    `array("i")` wait lists. With a budget, its deadline is checked once
    per round.
    """
    rounds = _Rounds(aut.columns)
    rounds.admit()
    fin = aut.final_ids
    while rounds.ready:
        if budget is not None:
            budget.check_time("extract_witness")
        taken = rounds.take()
        hits = [k for q, k in taken.items() if q in fin]
        if hits:
            return _build_term(rounds.target[min(hits)], rounds.choice, aut, {})
        rounds.release(taken)
    return None


class _Rounds:
    """The breadth-first rounds of `extract_witness` over transition
    columns, which may grow between rounds.

    `admit` enters the transitions appended since its last call: a
    transition is ready once all its children have been chosen, and until
    then waits on the first that has not. `take` runs one round: each
    state not yet chosen takes the first ready transition into it, in
    position order. `release` then readies, or moves on to their next
    missing child, the transitions that waited on the states just taken.
    So a leaf is ready in round 0, and a transition in the round after its
    last child's."""

    __slots__ = ("left", "right", "target", "choice", "ready", "waiting", "admitted")

    def __init__(self, cols):
        self.left, self.right, _, self.target = cols
        self.choice = {}         # state -> position of the transition it took
        self.ready = array("i")  # positions of the transitions ready next round
        self.waiting = {}        # state -> positions of the transitions waiting on it
        self.admitted = 0        # the positions below it have been admitted

    def admit(self):
        left, ready, waiting = self.left, self.ready, self.waiting
        start, end = self.admitted, len(left)
        for k, l in enumerate(left[start:end], start):
            if l < 0:
                ready.append(k)
            else:
                got = waiting.get(l)
                if got is None:
                    got = waiting[l] = array("i")
                got.append(k)
        self.admitted = end
        if self.choice:  # what waits on a state already chosen moves on now
            self.release([q for q in waiting if q in self.choice])

    def take(self):
        """{state: position of its transition} of the states new this round."""
        target, choice = self.target, self.choice
        taken = {}
        for k in self.ready:
            q = target[k]
            if q not in choice and taken.get(q, k) >= k:
                taken[q] = k
        choice.update(taken)
        self.ready = array("i")
        return taken

    def release(self, taken):
        waiting = self.waiting
        for q in taken:
            self._park(waiting.pop(q, ()))

    def _park(self, ks):
        """Ready each transition of ks, none of them a leaf, whose children
        have all been chosen, and let the others wait on their first child
        that has not."""
        left, right, target, choice = self.left, self.right, self.target, self.choice
        ready, waiting = self.ready, self.waiting
        for k in ks:
            if target[k] in choice:
                continue
            l, r = left[k], right[k]
            c = l if l not in choice else r if r >= 0 and r not in choice else None
            if c is None:
                ready.append(k)
            else:
                got = waiting.get(c)
                if got is None:
                    got = waiting[c] = array("i")
                got.append(k)


def _build_term(q, choice, aut, memo):
    """The term of state q from the chosen transition per state."""
    got = memo.get(q)
    if got is None:
        k = choice[q]
        l, r = aut.columns[0][k], aut.columns[1][k]
        children = () if l < 0 else (l,) if r < 0 else (l, r)
        got = memo[q] = term(aut.alphabet[aut.columns[2][k]],
                             *[_build_term(c, choice, aut, memo) for c in children])
    return got


def _partner_group(aut: TreeAutomaton, side, si, c):
    """The binary rules of symbol position si with child c on `side` (0:
    left, 1: right), grouped by their other child: {other: (positions in
    the rule list of `_child_indexes`)}, each ascending. List positions
    are small ints, which Python shares, where column positions are not.

    Built on first use per (side, si, c) and kept in the automaton's
    `_groups` slot, so a long-lived automaton pays only for the groups
    the joins against it have touched."""
    groups = aut._groups
    if groups is None:
        n = len(aut.alphabet)
        groups = aut._groups = ([{} for _ in range(n)], [{} for _ in range(n)])
    got = groups[side][si].get(c)
    if got is None:
        got = {}
        other = aut.columns[1 - side]
        for i, k in enumerate(_child_indexes(aut)[3 + side][si][c]):
            got.setdefault(other[k], []).append(i)
        # tuples: the groups of a cached automaton live as long as it does
        got = groups[side][si][c] = {o: tuple(ks) for o, ks in got.items()}
    return got


# --- serialization ---------------------------------------------------------

def symbol_to_obj(sym):
    to = getattr(sym, "to_obj", None)
    if to is not None:
        return to()
    if isinstance(sym, (int, str, bool)):
        return sym
    raise UnknownSymbolError(f"no JSON encoding for symbol {sym!r}")


def to_json(aut: TreeAutomaton) -> dict:
    """Canonical JSON object: states densely renumbered in sorted order.
    Each alphabet symbol is encoded once and its encoding shared. Read
    from the columns, whose state positions are the dump's numbers."""
    enc = [symbol_to_obj(sym) for sym in aut.alphabet]
    return {
        "alphabet": enc,
        "states": len(aut.states),
        "final": sorted(aut.final_ids),
        "transitions": [
            {"children": [] if l < 0 else [l] if r < 0 else [l, r],
             "symbol": enc[s], "to": q}
            for l, r, s, q in zip(*aut.columns)
        ],
    }
