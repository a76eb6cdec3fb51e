"""Bottom-up nondeterministic tree automata over arity <= 2 alphabets.

An automaton is (alphabet, states, final, transitions) with transitions of
the form (children, symbol, target) where children is a tuple of 0, 1 or 2
states. A term is accepted when some bottom-up run lands in a final state.

The constructions here are the ones the pipeline runs: product,
projection, `trim`, `reduce_bisim` and witness extraction. The product
is one join, `_product`, behind two wrappers: `intersect` builds the
product automaton and `intersection_nonempty` stops at its first final
pair without building transitions. Negation needs no subset
construction in this module: `cmso.compile` subtracts from the validity
automaton. Every construction iterates in a canonical order so its output
is reproducible byte for byte. The products spend against a `util.Budget`
and raise ResourceExceededError when they outgrow it. `to_json` dumps an
automaton; nothing reads a dump back.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain

from .errors import AlphabetMismatchError, UnknownSymbolError
from .terms import Term, term
from .util import Budget, osorted


class TreeAutomaton:
    # _index and _groups are lazily built join indexes (`_child_indexes`,
    # `_partner_group`); they live and die with the automaton, so dropping
    # a cached automaton (`solver.clear_caches`) frees them too
    __slots__ = ("alphabet", "states", "final", "transitions", "_index", "_groups")

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
        self._groups = None

    @classmethod
    def raw(cls, alphabet, states, final, transitions):
        """Trusted constructor for the automaton-building pipelines.

        Skips sorting, validation and deduplication: `alphabet` must be in
        canonical order, `states` and `transitions` duplicate-free (as the
        pipeline's constructions emit them) in a deterministic order. Use
        the regular constructor for anything assembled by hand.
        """
        self = object.__new__(cls)
        self.alphabet = tuple(alphabet)
        self.states = tuple(states)
        self.final = frozenset(final)
        self.transitions = tuple(transitions)
        self._index = None
        self._groups = None
        return self

    def size(self):
        return len(self.states) + len(self.transitions)

    def __repr__(self):
        return (f"TreeAutomaton(|Q|={len(self.states)}, |F|={len(self.final)}, "
                f"|Δ|={len(self.transitions)}, |Σ|={len(self.alphabet)})")


def run(aut: TreeAutomaton, t: Term, cache=None):
    """The set of states reachable at the root of t, as a frozenset."""
    pos, leaf, unary, left, _right = _child_indexes(aut)
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
            out = frozenset(q for c in s1 for (_, c2), _s, q in by_left.get(c, ())
                            if c2 in s2)
        cache[node] = out
        return out

    return go(t)


def accepts(aut: TreeAutomaton, t: Term, cache=None) -> bool:
    return bool(run(aut, t, cache) & aut.final)


def _check_same_alphabet(a: TreeAutomaton, b: TreeAutomaton, op):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"{op}: operand alphabets differ")


def _child_indexes(aut: TreeAutomaton):
    """Indexes for `run` and the worklist joins, built once per automaton.

    (symbol -> alphabet position, then per position: leaf targets
    [target], unary {child: [target]}, binary by left child {child1:
    [transition]} and by right child {child2: [transition]}). Each list is
    in transition order, and the binary maps share the automaton's own
    transition tuples. It is kept in the automaton's `_index` slot, beside
    the lazy partner groups of `_partner_group`."""
    got = aut._index
    if got is None:
        pos = {a: i for i, a in enumerate(aut.alphabet)}
        leaf = [[] for _ in pos]
        unary = [{} for _ in pos]
        left = [{} for _ in pos]
        right = [{} for _ in pos]
        for tr in aut.transitions:
            children, sym, q = tr
            si = pos[sym]
            if not children:
                leaf[si].append(q)
            elif len(children) == 1:
                unary[si].setdefault(children[0], []).append(q)
            else:
                left[si].setdefault(children[0], []).append(tr)
                right[si].setdefault(children[1], []).append(tr)
        got = aut._index = (pos, leaf, unary, left, right)
    return got


class _FinalPair(Exception):
    """A deciding `_product` found its first final pair."""


def _product(a: TreeAutomaton, b: TreeAutomaton, budget, stage, decide):
    """The product join behind `intersect` and `intersection_nonempty`.

    Returns (pairs, trs): pairs[id] is (qa, qb, id of the pair whose pop
    found it, -1 for a leaf pair), numbered in discovery order; trs are
    the transitions (children ids, symbol, target id) in emission order,
    each appended once with one `budget.spend(1, stage)`. With `decide`
    no transition is built: each new pair spends 1 instead, and the first
    final pair raises `_FinalPair`. Both modes number the pairs alike.

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
    those. A skipped meeting finds no new pair.

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
    alphabet = a.alphabet
    afin, bfin = a.final, b.final
    spend = budget.spend
    partners = {}  # qa -> {qb: id of the pair (qa, qb)}, in discovery order
    pairs = []     # id -> (qa, qb, id of the pair whose pop found it)
    trs = []       # (children ids, symbol, target id), in emission order
    met = {}       # id c -> {(children, si, target)} its finder's pop made with c

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
                raise _FinalPair
        return t

    def cross(la, lb, ch, sym, born):
        """Pair every target of la with every target of lb: the leaf
        (ch == ()) or unary rules of one symbol."""
        for qa in la:
            tq = targets(qa)
            for qb in lb:
                t = tq.get(qb)
                if t is None:
                    t = number(tq, qa, qb, born)
                if not decide:
                    trs.append((ch, sym, t))
                    spend(1, stage)

    def join(la, lb, side, si, p, pb, born, hi, start, seen):
        """Run a's rules la against b's rules lb, both with the popped pair
        p (child pb of b) on `side`; partner pairs with born < id < hi are
        skipped, and so are the transitions with partner `born` in `seen`.
        Transitions with a partner of id >= start are kept in `met`."""
        other = 1 - side
        sym = alphabet[si]
        grp = None
        for children, _s, qa in la:
            ca = children[other]
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
            tq = targets(qa)
            if qa == ca:
                heap = list(chain.from_iterable(hits))
                heapify(heap)
                order = _drain(heap)
            elif len(hits) == 1:
                order = hits[0]
            else:
                order = sorted(chain.from_iterable(hits))
            for k in order:
                cch, _s, qb = lb[k]
                t = tq.get(qb)
                if t is None:
                    t = number(tq, qa, qb, p)
                    if qa == ca:
                        for k2 in grp.get(qb, ()):
                            if k2 > k:
                                heappush(heap, k2)
                if decide:
                    continue
                c = part[cch[other]]
                ch = (c, p) if side else (p, c)
                if c == born and seen and (ch, si, t) in seen:
                    continue
                trs.append((ch, sym, t))
                spend(1, stage)
                if c >= start:
                    got = met.get(c)
                    if got is None:
                        got = met[c] = set()
                    got.add((ch, si, t))

    for si, (la, lb) in enumerate(zip(aL, bL)):
        cross(la, lb, (), alphabet[si], -1)

    nsym = len(alphabet)
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
                    cross(la, lb, (p,), alphabet[si], p)
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
        p += 1
    return pairs, trs


def _drain(heap):
    """Pop `heap` until it is empty, taking pushes made in between."""
    while heap:
        yield heappop(heap)


def intersect(a: TreeAutomaton, b: TreeAutomaton, budget: Budget | None = None):
    """Product automaton restricted to reachable state pairs.

    Its states are the pair ids 0..n-1 of `_product`, in discovery order,
    not the pairs; `to_json` numbers states by position, so the dump is
    the one the pair states would give. Transitions come out in emission
    order, each charged 1 under "intersect"; each pop checks the deadline.
    """
    pairs, trs = _product(a, b, budget, "intersect", False)
    afin, bfin = a.final, b.final
    final = [i for i, (qa, qb, _) in enumerate(pairs) if qa in afin and qb in bfin]
    return TreeAutomaton.raw(a.alphabet, range(len(pairs)), final, trs)


def intersection_nonempty(a: TreeAutomaton, b: TreeAutomaton,
                          budget: Budget | None = None) -> bool:
    """Emptiness of L(a) ∩ L(b), short-circuiting on the first final pair.

    Runs the `_product` join without building transitions. Each pair found
    is charged 1 under "intersection_nonempty", so a YES charges the first
    final pair's id + 1 and a NO the number of reachable pairs; each pop
    checks the deadline.
    """
    try:
        _product(a, b, budget, "intersection_nonempty", True)
    except _FinalPair:
        return True
    return False


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


def _inhabited(aut: TreeAutomaton) -> set:
    """The set of states that some term reaches (Horn propagation).

    One pass in transition order. A transition whose children are all
    inhabited inhabits its target; one that still misses a child waits on
    that child's watch list and is retried when the child becomes
    inhabited. In automata built forwards (products, closures) a state's
    first incoming rule comes before every rule that reads it, so nothing
    waits there. The result is a set: it carries no order.
    """
    alive = set()
    watch = {}  # missing child -> [(children, target)] waiting on it
    for children, _sym, q in aut.transitions:
        if q in alive:
            continue
        for c in children:
            if c not in alive:
                watch.setdefault(c, []).append((children, q))
                break
        else:
            alive.add(q)
            if not watch:
                continue
            woken = [q]
            while woken:
                for ch, t in watch.pop(woken.pop(), ()):
                    if t in alive:
                        continue
                    for c in ch:
                        if c not in alive:
                            watch.setdefault(c, []).append((ch, t))
                            break
                    else:
                        alive.add(t)
                        woken.append(t)
    return alive


def _within(trs, keep):
    """The transitions whose target and children all lie in `keep`."""
    return [tr for tr in trs if tr[2] in keep
            and (not tr[0] or (tr[0][0] in keep
                               and (len(tr[0]) == 1 or tr[0][1] in keep)))]


def trim(aut: TreeAutomaton, budget: Budget | None = None) -> TreeAutomaton:
    """Drop states that no term reaches or that cannot lead to acceptance.

    The kept states, final states and transitions stay in the input's
    order, so a dump of the result does not depend on how the states are
    encoded (dense ints or deep tuples). When every state is inhabited the
    first filter is skipped, and when every inhabited state is useful the
    second; with nothing to drop, the input itself is returned.

    With a budget, its deadline is checked before each of the two passes."""
    if budget is not None:
        budget.check_time("trim")
    alive = _inhabited(aut)
    all_alive = len(alive) == len(aut.states)
    live_trs = aut.transitions if all_alive else _within(aut.transitions, alive)
    back = {}
    for children, _sym, q in live_trs:
        if children:
            back.setdefault(q, []).append(children)
    useful = {q for q in aut.final if q in alive}
    agenda = list(useful)
    while agenda:
        for children in back.get(agenda.pop(), ()):
            for c in children:
                if c not in useful:
                    useful.add(c)
                    agenda.append(c)
    if budget is not None:
        budget.check_time("trim")
    if len(useful) == len(alive):
        if all_alive:
            return aut
        trs = live_trs
    else:
        trs = _within(live_trs, useful)
    final = [q for q in aut.final if q in useful]
    states = [q for q in aut.states if q in useful]
    return TreeAutomaton.raw(aut.alphabet, states, final, trs)


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


def _by_arity(trs):
    """Split int transitions (children, symbol, target) into parallel int
    columns: leaf (targets, symbols), unary (children, symbols, targets)
    and binary (lefts, rights, symbols, targets)."""
    lq, ls, uc, us, uq, bl, br, bs, bq = ([] for _ in range(9))
    for ch, sy, q in trs:
        if not ch:
            lq.append(q)
            ls.append(sy)
        elif len(ch) == 1:
            uc.append(ch[0])
            us.append(sy)
            uq.append(q)
        else:
            bl.append(ch[0])
            br.append(ch[1])
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

    States and symbols are encoded once as their positions, refinement
    runs on per-arity int columns (`_refine`: it stops at a discrete
    partition and keeps one round of signatures alive), and the result is
    decoded once. A pass that merges something quotients the int
    transitions: they are deduplicated in first-occurrence order and the
    blocks numbered in first-seen state order. The result's states are
    therefore 0..n-1 in the order `to_json` numbers them, and its dump
    does not depend on how the input's states are encoded. An input whose
    states already are 0..n-1 is read in place, and its int transition
    list is built only if a pass merges; when nothing merges, the result
    is the input itself. Any other input is relabelled by position. With a
    budget, its deadline is checked once per refinement round and at
    least once per call."""
    states, alphabet = aut.states, aut.alphabet
    n = len(states)
    dense = states == tuple(range(n))
    aidx = {a: i for i, a in enumerate(alphabet)}
    if dense:
        trs = None
        fin = set(aut.final)
    else:
        sidx = {s: i for i, s in enumerate(states)}
        trs = [(tuple([sidx[c] for c in ch]), aidx[sym], sidx[q])
               for ch, sym, q in aut.transitions]
        fin = {sidx[q] for q in aut.final}

    def int_trs():
        if trs is None:
            return ((ch, aidx[sym], q) for ch, sym, q in aut.transitions)
        return trs

    leaves, unary, binary = _by_arity(int_trs())
    merged = False
    while True:
        before = n
        for backward in (True, False):
            sig_of = (_backward_sigs(n, leaves, unary, binary) if backward
                      else _forward_sigs(n, fin, unary, binary))
            block, nb = _refine(n, sig_of, budget)
            if nb == n:
                continue
            trs = list(dict.fromkeys(
                (ch if not ch else (block[ch[0]],) if len(ch) == 1
                 else (block[ch[0]], block[ch[1]]), sy, block[q])
                for ch, sy, q in int_trs()))
            fin = {block[q] for q in fin}
            n = nb
            leaves, unary, binary = _by_arity(trs)
            merged = True
        if n == before:
            break
    if not merged:
        if dense:
            return aut
        trs = dict.fromkeys(trs)
    return TreeAutomaton.raw(alphabet, range(n), fin,
                             [(ch, alphabet[sy], q) for ch, sy, q in trs])


def extract_witness(aut: TreeAutomaton, budget: Budget | None = None):
    """A minimal-depth accepted term, or None if the language is empty.

    Deterministic: states acquire witnesses in breadth-first rounds. A
    transition becomes ready in the round after the last of its children
    acquires one, and each state takes the first ready transition into it
    in transition order; the first final state to acquire a witness (round
    order, then the order of the transitions taken) is reported. Each
    transition waits on one missing child at a time, so the whole search
    reads each transition a bounded number of times. With a budget, its
    deadline is checked once per round.
    """
    trs = aut.transitions
    ready = []    # positions of the transitions ready in the next round
    waiting = {}  # state -> positions of the transitions waiting on it
    for k, (children, _sym, _q) in enumerate(trs):
        if children:
            waiting.setdefault(children[0], []).append(k)
        else:
            ready.append(k)
    choice = {}   # state -> (children, symbol) of the transition it took
    while ready:
        if budget is not None:
            budget.check_time("extract_witness")
        taken = {}  # state new this round -> position of its first ready rule
        for k in ready:
            q = trs[k][2]
            if q not in choice and taken.get(q, k) >= k:
                taken[q] = k
        for q, k in taken.items():
            choice[q] = trs[k][:2]
        hits = [k for q, k in taken.items() if q in aut.final]
        if hits:
            return _build_term(trs[min(hits)][2], choice, {})
        ready = []
        for q in taken:
            for k in waiting.pop(q, ()):
                children, _sym, target = trs[k]
                if target in choice:
                    continue
                for c in children:
                    if c not in choice:
                        waiting.setdefault(c, []).append(k)
                        break
                else:
                    ready.append(k)
    return None


def _build_term(q, choice, memo):
    """The term of state q from the chosen (children, symbol) per state."""
    got = memo.get(q)
    if got is None:
        children, sym = choice[q]
        got = memo[q] = term(sym, *[_build_term(c, choice, memo) for c in children])
    return got


def _partner_group(aut: TreeAutomaton, side, si, c):
    """The binary rules of symbol position si with child c on `side` (0:
    left, 1: right), grouped by their other child: {other: (positions in
    the rule list of `_child_indexes`)}, each ascending.

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
        other = 1 - side
        for k, (children, _s, _q) in enumerate(_child_indexes(aut)[3 + side][si][c]):
            got.setdefault(children[other], []).append(k)
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
    Each alphabet symbol is encoded once and its encoding shared."""
    index = {q: i for i, q in enumerate(aut.states)}
    enc = {sym: symbol_to_obj(sym) for sym in aut.alphabet}
    return {
        "alphabet": [enc[s] for s in aut.alphabet],
        "states": len(aut.states),
        "final": sorted(index[q] for q in aut.final),
        "transitions": [
            {"children": [index[c] for c in ch],
             "symbol": enc[sym] if sym in enc else symbol_to_obj(sym),
             "to": index[q]}
            for ch, sym, q in aut.transitions
        ],
    }

