"""Bottom-up nondeterministic tree automata over arity <= 2 alphabets.

An automaton is (alphabet, states, final, transitions) with transitions of
the form (children, symbol, target) where children is a tuple of 0, 1 or 2
states. A term is accepted when some bottom-up run lands in a final state.

The constructions here are the ones the pipeline runs: product
(`intersect`, `intersection_nonempty`), projection, `trim`,
`reduce_bisim` and witness extraction. Negation needs no subset
construction in this module: `cmso.compile` subtracts from the validity
automaton. Every construction iterates in a canonical order so its output
is reproducible byte for byte. The products spend against a `util.Budget`
and raise ResourceExceededError when they outgrow it. `to_json` dumps an
automaton; nothing reads a dump back.
"""

from __future__ import annotations

from collections import deque

from .errors import AlphabetMismatchError, UnknownSymbolError
from .terms import Term, term
from .util import Budget, osorted


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
    transition tuples."""
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


def intersect(a: TreeAutomaton, b: TreeAutomaton, budget: Budget | None = None):
    """Product automaton restricted to reachable state pairs.

    Each pair (qa, qb) is numbered when it is discovered, so the result's
    states are the dense ids 0..n-1 in discovery order, not the pairs;
    `to_json` numbers states by position, so the dump is the one the pair
    states would give. Transitions come out in emission order, with one
    `budget.spend` per new transition.

    States are popped in id order, and the pop of p joins p with every
    partner discovered so far, so a pair can meet at both pops. The
    second meeting would emit nothing new and is skipped: each pair meets
    once per rule pair. Say the pop of `born` found p. A partner c with
    born < c < p met p at its own pop; on the right, so did p itself, on
    the left. `born` met p if p was found before their rule pair came up
    in that pop, that is, if the rule pair's transition is already out.
    """
    _check_same_alphabet(a, b, "intersect")
    if budget is None:
        budget = Budget()
    _, aL, aU, aB1, aB2 = _child_indexes(a)
    _, bL, bU, bB1, bB2 = _child_indexes(b)
    nsym = len(a.alphabet)

    ids = {}          # (qa, qb) -> product state id
    agenda = deque()  # (qa, qb, id, id of the state whose pop found it)
    out = {}          # (children ids, symbol position, target id) -> None
    popped = -1       # the state being popped; -1 while seeding leaves

    def emit(children, si, qa, qb):
        """Transition into the pair (qa, qb), numbering it if new."""
        p = (qa, qb)
        target = ids.get(p)
        if target is None:
            target = ids[p] = len(ids)
            agenda.append((qa, qb, target, popped))
        tr = (children, si, target)
        if tr not in out:
            out[tr] = None
            budget.spend(1, "intersect")

    for si in range(nsym):
        for qa in aL[si]:
            for qb in bL[si]:
                emit((), si, qa, qb)

    while agenda:
        pa, pb, p, born = agenda.popleft()
        popped = p
        for si in range(nsym):
            la = aU[si].get(pa)
            lb = bU[si].get(pb)
            if la and lb:
                for qa in la:
                    for qb in lb:
                        emit((p,), si, qa, qb)
            la = aB1[si].get(pa)
            lb = bB1[si].get(pb)
            if la and lb:
                for (_, ca2), _s, qa in la:
                    for (_, cb2), _s, qb in lb:
                        c = ids.get((ca2, cb2))
                        if c is None or born < c < p:
                            continue
                        if c == born and ((p, c), si, ids.get((qa, qb))) in out:
                            continue
                        emit((p, c), si, qa, qb)
            la = aB2[si].get(pa)
            lb = bB2[si].get(pb)
            if la and lb:
                for (ca1, _), _s, qa in la:
                    for (cb1, _), _s, qb in lb:
                        c = ids.get((ca1, cb1))
                        if c is None or born < c <= p:
                            continue
                        if c == born and ((c, p), si, ids.get((qa, qb))) in out:
                            continue
                        emit((c, p), si, qa, qb)

    final = [i for (qa, qb), i in ids.items() if qa in a.final and qb in b.final]
    alphabet = a.alphabet
    trs = [(ch, alphabet[si], q) for ch, si, q in out]
    return TreeAutomaton.raw(alphabet, range(len(ids)), final, trs)


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
    Block ids are dense ints in first-seen state order. With a budget,
    its deadline is checked once per round."""
    block = [0] * n
    nblocks = 1 if n else 0
    while True:
        if budget is not None:
            budget.check_time("reduce_bisim")
        sigs = sig_of(block, nblocks)
        remap: dict = {}
        newblock = [remap.setdefault((block[i], sigs[i]), len(remap))
                    for i in range(n)]
        if len(remap) == nblocks:
            return newblock, nblocks
        block, nblocks = newblock, len(remap)


def _by_arity(trs):
    """Split int transitions into leaf (target, symbol), unary (child,
    symbol, target) and binary (left, right, symbol, target) lists."""
    leaves, unary, binary = [], [], []
    for ch, sy, q in trs:
        if not ch:
            leaves.append((q, sy))
        elif len(ch) == 1:
            unary.append((ch[0], sy, q))
        else:
            binary.append((ch[0], ch[1], sy, q))
    return leaves, unary, binary


def _backward_sigs(n, fin, leaves, unary, binary):
    """Signature of state q: the rules into q, children read as blocks.
    Keys: ~symbol for a leaf rule, even for unary, odd for binary rules.
    Finality does not enter it."""
    def sig_of(block, nb):
        sigs = [[] for _ in range(n)]
        for q, sy in leaves:
            sigs[q].append(~sy)
        for c, sy, q in unary:
            sigs[q].append(2 * (sy * nb + block[c]))
        for l, r, sy, q in binary:
            sigs[q].append(2 * ((sy * nb + block[l]) * nb + block[r]) + 1)
        return [frozenset(s) for s in sigs]
    return sig_of


def _forward_sigs(n, fin, leaves, unary, binary):
    """Signature of state c: its finality (key -1) and the rules reading c,
    as (symbol, position, concrete sibling or none, target block)."""
    def sig_of(block, nb):
        sigs = [[-1] if i in fin else [] for i in range(n)]
        for c, sy, q in unary:
            sigs[c].append(2 * sy * (n + 1) * nb + block[q])
        for l, r, sy, q in binary:
            bq = block[q]
            sigs[l].append((2 * sy * (n + 1) + r + 1) * nb + bq)
            sigs[r].append(((2 * sy + 1) * (n + 1) + l + 1) * nb + bq)
        return [frozenset(s) for s in sigs]
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
    runs on per-arity int lists, and the result is decoded once. A pass
    that merges something quotients the int transitions: they are
    deduplicated in first-occurrence order and the blocks numbered in
    first-seen state order. The result's states are therefore 0..n-1 in
    the order `to_json` numbers them, and its dump does not depend on how
    the input's states are encoded. When nothing merges, the result is
    the input relabelled by position: the input itself if its states
    already are 0..n-1. With a budget, its deadline is checked once per
    refinement round."""
    states, alphabet = aut.states, aut.alphabet
    n = len(states)
    dense = states == tuple(range(n))
    aidx = {a: i for i, a in enumerate(alphabet)}
    if dense:
        trs = [(ch, aidx[sym], q) for ch, sym, q in aut.transitions]
        fin = set(aut.final)
    else:
        sidx = {s: i for i, s in enumerate(states)}
        trs = [(tuple([sidx[c] for c in ch]), aidx[sym], sidx[q])
               for ch, sym, q in aut.transitions]
        fin = {sidx[q] for q in aut.final}
    arity = _by_arity(trs)
    merged = False
    while True:
        before = n
        for make_sigs in (_backward_sigs, _forward_sigs):
            block, nb = _refine(n, make_sigs(n, fin, *arity), budget)
            if nb == n:
                continue
            trs = list(dict.fromkeys(
                (ch if not ch else (block[ch[0]],) if len(ch) == 1
                 else (block[ch[0]], block[ch[1]]), sy, block[q])
                for ch, sy, q in trs))
            fin = {block[q] for q in fin}
            n = nb
            arity = _by_arity(trs)
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


def intersection_nonempty(a: TreeAutomaton, b: TreeAutomaton,
                          budget: Budget | None = None) -> bool:
    """Emptiness of L(a) ∩ L(b), short-circuiting on the first final pair."""
    _check_same_alphabet(a, b, "intersection_nonempty")
    if budget is None:
        budget = Budget()
    _, aL, aU, aB1, aB2 = _child_indexes(a)
    _, bL, bU, bB1, bB2 = _child_indexes(b)
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

    for la, lb in zip(aL, bL):
        for qa in la:
            for qb in lb:
                if discover((qa, qb)):
                    return True

    while agenda:
        p = agenda.popleft()
        pa, pb = p
        for si in range(len(a.alphabet)):
            for qa in aU[si].get(pa, ()):
                for qb in bU[si].get(pb, ()):
                    if discover((qa, qb)):
                        return True
            la, lb = aB1[si].get(pa, ()), bB1[si].get(pb, ())
            for (_, ca2), _s, qa in la:
                for (_, cb2), _s, qb in lb:
                    if (ca2, cb2) in pairs and discover((qa, qb)):
                        return True
            la, lb = aB2[si].get(pa, ()), bB2[si].get(pb, ())
            for (ca1, _), _s, qa in la:
                for (cb1, _), _s, qb in lb:
                    if (ca1, cb1) in pairs and discover((qa, qb)):
                        return True
    return False


# --- serialization ---------------------------------------------------------

def symbol_to_obj(sym):
    to = getattr(sym, "to_obj", None)
    if to is not None:
        return to()
    if isinstance(sym, (int, str, bool)):
        return sym
    raise UnknownSymbolError(f"no JSON encoding for symbol {sym!r}")


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

