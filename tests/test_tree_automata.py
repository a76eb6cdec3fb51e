import hashlib
import json
import random
from collections import deque

import pytest

from supertw.errors import (AlphabetMismatchError, ResourceExceededError,
                            UnknownSymbolError)
from supertw.terms import enumerate_terms, map_symbols, term
from supertw.tree_automata import (TreeAutomaton, _alive, _refine, accepts,
                                   extract_witness, intersect,
                                   intersection_nonempty, project,
                                   reduce_bisim, run, to_json, trim,
                                   witness_prefix)
from supertw.util import Budget
from corpus import make_automaton

AB = ["a", "b"]


def even_b_automaton():
    """Accepts terms with an even number of b symbols."""
    trs = []
    for sym, flip in (("a", 0), ("b", 1)):
        trs.append(((), sym, flip))
        for c1 in (0, 1):
            trs.append(((c1,), sym, (c1 + flip) % 2))
            for c2 in (0, 1):
                trs.append(((c1, c2), sym, (c1 + c2 + flip) % 2))
    return make_automaton(AB, [0], trs)


def count_b(t):
    return (t.symbol == "b") + sum(count_b(c) for c in t.children)


def random_automaton(seed, n_states=3, alphabet=AB, p_final=0.5):
    rng = random.Random(seed)
    states = list(range(n_states))
    trs = []
    for sym in alphabet:
        for q in states:
            if rng.random() < 0.5:
                trs.append(((), sym, q))
            for c1 in states:
                if rng.random() < 0.3:
                    trs.append(((c1,), sym, q))
                for c2 in states:
                    if rng.random() < 0.15:
                        trs.append(((c1, c2), sym, q))
    final = [q for q in states if rng.random() < p_final]
    return TreeAutomaton(alphabet, states, final, trs)


TERMS3 = list(enumerate_terms(AB, 3))


def language(aut, terms=TERMS3):
    cache = {}
    return {t for t in terms if accepts(aut, t, cache)}


def nonempty(aut):
    return bool(_inhabited(aut) & aut.final)


def test_even_b_language():
    aut = even_b_automaton()
    for t in TERMS3:
        assert accepts(aut, t) == (count_b(t) % 2 == 0)


def test_run_unknown_symbol():
    aut = even_b_automaton()
    with pytest.raises(UnknownSymbolError):
        run(aut, term("z"))


def test_alphabet_mismatch():
    a = even_b_automaton()
    b = make_automaton(["a"], [0], [((), "a", 0)])
    with pytest.raises(AlphabetMismatchError):
        intersect(a, b)
    with pytest.raises(AlphabetMismatchError):
        intersection_nonempty(a, b)


@pytest.mark.parametrize("seed", range(8))
def test_boolean_operations_against_enumeration(seed):
    a = random_automaton(seed)
    b = random_automaton(seed + 100)
    la, lb = language(a), language(b)
    assert language(intersect(a, b)) == la & lb


@pytest.mark.parametrize("seed", range(8))
def test_trim_preserves_language(seed):
    a = random_automaton(seed)
    tr = trim(a)
    assert language(tr) == language(a)
    assert tr.size() <= a.size()


def test_projection_renaming_and_merging():
    a = even_b_automaton()
    ren = project(a, lambda s: s.upper())
    assert set(ren.alphabet) == {"A", "B"}
    for t in TERMS3:
        assert accepts(a, t) == accepts(ren, map_symbols(str.upper, t))
    # merging both symbols: image term accepted iff some preimage was
    merged = project(a, lambda s: "c")
    for t in enumerate_terms(["c"], 3):
        pre_accepted = any(
            accepts(a, u) for u in _preimages(t))
        assert accepts(merged, t) == pre_accepted


def _preimages(t):
    if not t.children:
        return [term(s) for s in AB]
    kids = [_preimages(c) for c in t.children]
    out = []
    if len(kids) == 1:
        for s in AB:
            for k in kids[0]:
                out.append(term(s, k))
    else:
        for s in AB:
            for k1 in kids[0]:
                for k2 in kids[1]:
                    out.append(term(s, k1, k2))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_emptiness_and_witness(seed):
    a = random_automaton(seed, n_states=3)
    # a nonempty 3-state automaton accepts something of depth <= 4
    terms4 = list(enumerate_terms(AB, 4))
    cache = {}
    accepted_depths = [t.depth for t in terms4 if accepts(a, t, cache)]
    assert nonempty(a) == bool(accepted_depths)
    w = extract_witness(a)
    if accepted_depths:
        assert w is not None
        assert accepts(a, w)
        assert w.depth == min(accepted_depths)
    else:
        assert w is None


@pytest.mark.parametrize("seed", range(6))
def test_intersection_nonempty_short_circuit(seed):
    a = random_automaton(seed)
    b = random_automaton(seed + 17)
    assert intersection_nonempty(a, b) == nonempty(intersect(a, b))


def test_budget_enforced():
    a = random_automaton(1, n_states=4)
    b = random_automaton(2, n_states=4)
    with pytest.raises(ResourceExceededError):
        intersect(a, b, budget=Budget(max_transitions=3))


@pytest.mark.parametrize("seed", range(4))
def test_trim_and_reduce_check_the_deadline(seed):
    a = random_automaton(seed, n_states=5)
    for op, stage in ((trim, "trim"), (reduce_bisim, "reduce_bisim")):
        with pytest.raises(ResourceExceededError) as err:
            op(a, Budget(None, timeout_secs=-1))
        assert err.value.stage == stage
        live = Budget(None, timeout_secs=3600)
        assert to_json(op(a, live)) == to_json(op(a))
        assert live.used == 0


def test_reduce_bisim_checks_the_deadline_on_tiny_automata():
    # with 0 or 1 states the partition is discrete before any round runs
    one = TreeAutomaton.raw(AB, range(1), [0], [((), "a", 0), ((0,), "b", 0)])
    none = TreeAutomaton.raw(AB, range(0), [], [])
    for a in (one, none):
        with pytest.raises(ResourceExceededError) as err:
            reduce_bisim(a, Budget(None, timeout_secs=-1))
        assert err.value.stage == "reduce_bisim"
        assert reduce_bisim(a, Budget(None, timeout_secs=3600)) is a


def counting(sig):
    """sig_of for `_refine` that counts its calls in `.calls`."""
    def sig_of(block, nb):
        sig_of.calls += 1
        return sig(block, nb)
    sig_of.calls = 0
    return sig_of


@pytest.mark.parametrize("n", range(6))
def test_refine_stops_at_a_discrete_partition(n):
    # a path read towards its end: state i's signature is the block of
    # i + 1, so each round splits one more state off and singletons come
    # after n - 1 rounds, with no round to confirm them
    sig_of = counting(lambda block, nb: block[1:] + [-1])
    assert _refine(n, sig_of) == (list(range(n)), n)
    assert sig_of.calls == max(n - 1, 0)


def test_refine_confirms_a_partition_with_fewer_blocks():
    # parity splits 6 states into 2 blocks in the first round; the second
    # round splits nothing and ends the refinement
    sig_of = counting(lambda block, nb: [i % 2 for i in range(6)])
    assert _refine(6, sig_of) == ([0, 1, 0, 1, 0, 1], 2)
    assert sig_of.calls == 2


@pytest.mark.parametrize("seed", range(4))
def test_extract_witness_checks_the_deadline(seed):
    a = random_automaton(seed, n_states=5)
    with pytest.raises(ResourceExceededError) as err:
        extract_witness(a, Budget(None, timeout_secs=-1))
    assert err.value.stage == "extract_witness"
    live = Budget(None, timeout_secs=3600)
    assert extract_witness(a, live) == extract_witness(a) is not None
    assert live.used == 0


# --- the dense-int kernels change nothing --------------------------------
# The kernels below are the generic ones `trim`, `reduce_bisim` and
# `intersect` replaced: they work on the states as given and relabel by
# position after every pass. The new kernels must reproduce their states,
# final sets and transitions, order included.

def _inhabited(aut):
    """The states `trim` finds inhabited (`_alive`), as a set."""
    return {q for q, f in zip(aut.states, _alive(aut)) if f}


def inhabited_reference(aut):
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


def trim_reference(aut):
    alive = inhabited_reference(aut)
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
    trs = [tr for tr in live_trs
           if tr[2] in useful and all(c in useful for c in tr[0])]
    final = [q for q in aut.final if q in useful]
    states = [q for q in aut.states if q in useful]
    return TreeAutomaton.raw(aut.alphabet, states, final, trs)


def refine_reference(n, block0, sig_of):
    block = block0
    nblocks = len(set(block))
    while True:
        sigs = sig_of(block)
        remap = {}
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


def quotient_reference(aut, block, sidx):
    nblocks = len(set(block))
    out = dict.fromkeys((tuple(block[sidx[c]] for c in ch), sym, block[sidx[q]])
                        for ch, sym, q in aut.transitions)
    final = sorted({block[sidx[q]] for q in aut.final})
    return TreeAutomaton.raw(aut.alphabet, range(nblocks), final, out)


def reduce_backward_reference(aut):
    sidx = {s: i for i, s in enumerate(aut.states)}
    aidx = {a: i for i, a in enumerate(aut.alphabet)}
    trs = [(tuple(sidx[c] for c in ch), aidx[sym], sidx[q])
           for ch, sym, q in aut.transitions]
    n = len(aut.states)

    def sig_of(block):
        sigs = [[] for _ in range(n)]
        for ch, sy, q in trs:
            sigs[q].append((sy, tuple(block[c] for c in ch)))
        return [frozenset(s) for s in sigs]

    return quotient_reference(aut, refine_reference(n, [0] * n, sig_of), sidx)


def reduce_forward_reference(aut):
    sidx = {s: i for i, s in enumerate(aut.states)}
    aidx = {a: i for i, a in enumerate(aut.alphabet)}
    trs = [(tuple(sidx[c] for c in ch), aidx[sym], sidx[q])
           for ch, sym, q in aut.transitions]
    n = len(aut.states)
    fin = [1 if s in aut.final else 0 for s in aut.states]

    def sig_of(block):
        sigs = [[] for _ in range(n)]
        for ch, sy, q in trs:
            bq = block[q]
            if len(ch) == 1:
                sigs[ch[0]].append((sy, 0, -1, bq))
            elif ch:
                l, r = ch
                sigs[l].append((sy, 0, r, bq))
                sigs[r].append((sy, 1, l, bq))
        return [(fin[i], frozenset(sigs[i])) for i in range(n)]

    return quotient_reference(aut, refine_reference(n, [0] * n, sig_of), sidx)


def reduce_bisim_reference(aut):
    while True:
        before = len(aut.states)
        aut = reduce_forward_reference(reduce_backward_reference(aut))
        if len(aut.states) == before:
            return aut


def intersect_reference(a, b, budget):
    def by_symbol(aut):
        """{symbol: {arity: [(children, target)]}} in transition order"""
        idx = {}
        for children, sym, q in aut.transitions:
            idx.setdefault(sym, {}).setdefault(len(children), []).append((children, q))
        return idx

    ai, bi = by_symbol(a), by_symbol(b)

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
        for _ca, qa in ai.get(sym, {}).get(0, []):
            for _cb, qb in bi.get(sym, {}).get(0, []):
                emit((), sym, (qa, qb))
    while agenda:
        p = agenda.popleft()
        pa, pb = p
        for sym in a.alphabet:
            for qa in aU.get(sym, {}).get(pa, ()):
                for qb in bU.get(sym, {}).get(pb, ()):
                    emit((p,), sym, (qa, qb))
            for ca2, qa in aB1.get(sym, {}).get(pa, ()):
                for cb2, qb in bB1.get(sym, {}).get(pb, ()):
                    if (ca2, cb2) in pairs:
                        emit((p, (ca2, cb2)), sym, (qa, qb))
            for ca1, qa in aB2.get(sym, {}).get(pa, ()):
                for cb1, qb in bB2.get(sym, {}).get(pb, ()):
                    if (ca1, cb1) in pairs:
                        emit(((ca1, cb1), p), sym, (qa, qb))
    final = [p for p in pairs if p[0] in a.final and p[1] in b.final]
    return TreeAutomaton.raw(a.alphabet, pairs, final, out)


def extract_witness_reference(aut):
    """The round scan that `extract_witness` replaced: every round reads
    all transitions in order, and a transition fires when its target has
    no witness yet and all its children got theirs in earlier rounds."""
    choice = {}
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

    def build(q):
        sym, children = choice[q]
        return term(sym, *[build(c) for c in children])

    return build(target)


def chain_automaton(k):
    """a, a(a), ..., a^k each reach their own state; only a^k is accepted.
    Every state is inhabited, useful and distinct from every other."""
    trs = [((), "a", 0)] + [((i,), "a", i + 1) for i in range(k)]
    return TreeAutomaton(["a"], range(k + 1), [k], trs)


ENCODINGS = {
    "int": lambda i: i,
    "str": lambda i: f"q{i:02d}",
    "tuple": lambda i: (i % 3, ("deep", frozenset({i})), i),
}


def raw_random_automaton(seed, encode, n_states=7, extra=2, clones=2):
    """A sparse raw automaton over encoded states, its transitions shuffled
    out of any topological order. `extra` states are never a target, so
    they stay uninhabited; some inhabited states lead nowhere final; and
    `clones` states get a twin with the same rules, which reduce_bisim
    merges back."""
    rng = random.Random(seed)
    n = n_states
    trs = set()
    for sym in AB:
        for q in range(n):
            if rng.random() < 0.3:
                trs.add(((), sym, q))
            for c1 in range(n + extra):
                if rng.random() < 0.1:
                    trs.add(((c1,), sym, q))
                for c2 in range(n + extra):
                    if rng.random() < 0.02:
                        trs.add(((c1, c2), sym, q))
    final = {q for q in range(n) if rng.random() < 0.3}
    for k, q in enumerate(rng.sample(range(n), clones)):
        twin = n + extra + k
        swap = [tr for tr in trs if q in tr[0] or tr[2] == q]
        for ch, sym, tgt in swap:
            trs.add((tuple(twin if c == q else c for c in ch), sym,
                     twin if tgt == q else tgt))
        if q in final:
            final.add(twin)
    trs = sorted(trs)
    rng.shuffle(trs)
    states = list(range(n + extra + clones))
    rng.shuffle(states)
    return TreeAutomaton.raw(
        AB, [encode(q) for q in states], [encode(q) for q in sorted(final)],
        [(tuple(encode(c) for c in ch), sym, encode(q)) for ch, sym, q in trs])


def parts(aut):
    return aut.alphabet, aut.states, aut.final, aut.transitions


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("seed", range(12))
def test_trim_matches_reference(seed, encoding):
    a = raw_random_automaton(seed, ENCODINGS[encoding])
    assert _inhabited(a) == inhabited_reference(a)
    assert parts(trim(a)) == parts(trim_reference(a))


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("seed", range(12))
def test_extract_witness_matches_reference(seed, encoding):
    a = raw_random_automaton(seed, ENCODINGS[encoding])
    w = extract_witness(a)
    assert w == extract_witness_reference(a)
    assert w == extract_witness(trim(a))


def test_extract_witness_takes_the_first_ready_rule():
    # 2 is final, and its first rule waits on 1; the later leaf rule into 2
    # wins round one, so the witness is the leaf
    trs = [((1,), "a", 2), ((1, 1), "b", 4), ((), "b", 2), ((), "a", 1)]
    a = TreeAutomaton.raw(AB, range(5), [2], trs)
    assert extract_witness(a) == extract_witness_reference(a) == term("b")
    # the final states 3 and 4 are both reached in round two; 4 by its
    # second rule, which is listed before the rule into 3, so 4 is reported
    trs = [((3, 1), "a", 4), ((1, 1), "b", 4), ((1,), "a", 3),
           ((), "a", 0), ((), "b", 1), ((5,), "a", 0), ((), "a", 5)]
    a = TreeAutomaton.raw(AB, range(6), [3, 4], trs)
    w = extract_witness(a)
    assert w == extract_witness_reference(a) == term("b", term("b"), term("b"))
    # rules woken out of list order: the rule reading 0 becomes ready before
    # the earlier-listed rule reading 1, yet the earlier-listed rule wins,
    # for the choice into 2 and for the first final state (3 over 4)
    trs = [((1,), "a", 2), ((), "a", 0), ((), "b", 1), ((0,), "b", 2)]
    a = TreeAutomaton.raw(AB, range(3), [2], trs)
    assert extract_witness(a) == extract_witness_reference(a) == term("a", term("b"))
    trs = [((1,), "b", 3), ((), "a", 0), ((), "b", 1), ((0,), "a", 4)]
    a = TreeAutomaton.raw(AB, range(5), [3, 4], trs)
    assert extract_witness(a) == extract_witness_reference(a) == term("b", term("b"))


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("seed", range(12))
def test_reduce_bisim_matches_reference(seed, encoding):
    a = raw_random_automaton(seed, ENCODINGS[encoding])
    for aut in (a, trim_reference(a)):
        assert parts(reduce_bisim(aut)) == parts(reduce_bisim_reference(aut))


def test_watch_list_is_exercised():
    # each rule is listed before the rules that inhabit its children; the rule
    # into 3 waits on 1, then once 1 is inhabited, on 2
    trs = [((1, 2), "b", 3), ((0,), "a", 1), ((), "a", 0), ((1,), "b", 2)]
    a = TreeAutomaton.raw(AB, range(4), [3], trs)
    assert _inhabited(a) == {0, 1, 2, 3} == inhabited_reference(a)
    assert parts(trim(a)) == parts(trim_reference(a)) == parts(a)


@pytest.mark.parametrize("mirror", [False, True])
def test_bisim_keys_read_both_children(mirror):
    def rule(x, y):
        return (y, x) if mirror else (x, y)
    # backward: 2 and 3 differ only in one child's block
    backward = TreeAutomaton.raw(AB, range(4), [2], [
        ((), "a", 0), ((), "b", 1), (rule(0, 0), "a", 2), (rule(0, 1), "a", 3)])
    # forward: 0 and 1 are read only by rules into 4 that differ only in
    # the concrete sibling, 2 or 3
    forward = TreeAutomaton.raw(["a", "b", "c"], range(5), [4], [
        ((), "a", 0), ((), "b", 1), ((), "c", 2), ((2,), "c", 3),
        (rule(0, 2), "a", 4), (rule(1, 3), "a", 4)])
    for a in (backward, forward):
        assert parts(reduce_bisim(a)) == parts(reduce_bisim_reference(a)) == parts(a)


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_kernels_when_nothing_is_dropped_or_merged(encoding):
    enc = ENCODINGS[encoding]
    for base in (chain_automaton(5), even_b_automaton()):
        a = TreeAutomaton.raw(base.alphabet, [enc(q) for q in base.states],
                              [enc(q) for q in base.final],
                              [(tuple(enc(c) for c in ch), sym, enc(q))
                               for ch, sym, q in base.transitions])
        assert parts(trim(a)) == parts(trim_reference(a)) == parts(a)
        assert parts(reduce_bisim(a)) == parts(reduce_bisim_reference(a))
        assert len(reduce_bisim(a).states) == len(a.states)


# `intersect` appends each transition once, with no dedup pass: a pair met
# twice would show up as a duplicate transition
def same_product(a, b):
    """intersect(a, b), asserted equal to the reference and duplicate-free."""
    new, ref = Budget(None), Budget(None)
    got = intersect(a, b, new)
    assert to_json(got) == to_json(intersect_reference(a, b, ref))
    assert new.used == ref.used == len(got.transitions)
    assert len(set(got.transitions)) == len(got.transitions)
    return got


@pytest.mark.parametrize("seed", range(8))
def test_intersect_matches_reference(seed):
    a = random_automaton(seed)
    b = raw_random_automaton(seed + 50, ENCODINGS["tuple"], n_states=4, extra=1)
    b = TreeAutomaton.raw(a.alphabet, b.states, b.final, b.transitions)
    for x, y in ((a, b), (b, a), (a, random_automaton(seed + 100))):
        same_product(x, y)


# --- emptiness through the partner index ---------------------------------
# `intersection_nonempty` is the `_product` join run without transitions;
# the reference below is the plain scan it replaced, which runs every rule
# pair and tests the other children's pair as it goes. Both must discover
# the same pairs in the same order.

def child_indexes_reference(aut):
    """Per symbol position: leaf targets, unary {child: [target]} and
    binary rules by left and by right child, read from `.transitions`."""
    pos = {sym: i for i, sym in enumerate(aut.alphabet)}
    leaf, unary, left, right = ([[] if k == 0 else {} for _ in pos]
                                for k in range(4))
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
    return leaf, unary, left, right


def intersection_nonempty_reference(a, b, budget=None):
    if budget is None:
        budget = Budget()
    aL, aU, aB1, aB2 = child_indexes_reference(a)
    bL, bU, bB1, bB2 = child_indexes_reference(b)
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


def feeding_automaton(seed, n_states=5):
    """A dense raw automaton, its rules shuffled, in which many binary
    rules target one of their own children."""
    rng = random.Random(seed)
    states = range(n_states)
    trs = set()
    for sym in AB:
        trs.add(((), sym, rng.choice(states)))
        for q in states:
            if rng.random() < 0.3:
                trs.add(((), sym, q))
            for c in states:
                if rng.random() < 0.15:
                    trs.add(((c,), sym, q))
        for c1 in states:
            for c2 in states:
                for q in states:
                    if rng.random() < 0.08:
                        trs.add(((c1, c2), sym, q))
                if rng.random() < 0.3:
                    trs.add(((c1, c2), sym, rng.choice((c1, c2))))
    trs = sorted(trs)
    rng.shuffle(trs)
    final = [q for q in states if rng.random() < 0.3]
    return TreeAutomaton.raw(AB, states, final, trs)


def with_final(aut, final):
    return TreeAutomaton.raw(aut.alphabet, aut.states, final, aut.transitions)


def sweep(a, b, a_states=(), b_states=()):
    """(a, b), then for each x in a_states (y in b_states) the pair with x
    (y) as its only final state and every state of the other operand
    final: there the charge is the position at which x (y) first shows
    up in a pair, so the runs pin the discovery order."""
    a_all, b_all = with_final(a, a.states), with_final(b, b.states)
    return ([(a, b)] + [(with_final(a, [x]), b_all) for x in a_states]
            + [(a_all, with_final(b, [y])) for y in b_states])


def same_as_reference(runs):
    """(answer, charge) of each run, asserted equal for both joins."""
    out = []
    for a, b in runs:
        new, ref = Budget(None), Budget(None)
        got = intersection_nonempty(a, b, new), new.used
        assert got == (intersection_nonempty_reference(a, b, ref), ref.used)
        out.append(got)
    return out


def feeding_pair(case):
    """Case 0..23: two feeding automata; 24..29: two plain random ones."""
    if case < 24:
        return (feeding_automaton(case),
                feeding_automaton(case + 1000, n_states=4 + case % 3))
    return random_automaton(case), random_automaton(case + 17)


@pytest.mark.parametrize("case", range(30))
def test_intersection_nonempty_matches_reference(case):
    a, b = feeding_pair(case)
    same_as_reference(sweep(a, b, a.states, b.states))
    same_as_reference(sweep(b, a, b.states, a.states))


def test_intersection_nonempty_meets_the_pair_that_found_it():
    """The pop of (x, y) finds (u, v) through "u" only after its "b" rules
    ran, so the pop of (u, v) must still meet (x, y), though it found it."""
    a = make_automaton(["a", "b", "u"], ["z"], [((), "a", "x"), (("x",), "u", "u"),
                                               (("u", "x"), "b", "z")])
    b = make_automaton(["a", "b", "u"], ["w"], [((), "a", "y"), (("y",), "u", "v"),
                                               (("v", "y"), "b", "w")])
    for join in (intersection_nonempty, intersection_nonempty_reference):
        budget = Budget(None)
        assert join(a, b, budget)
        assert budget.used == 3


def test_intersection_nonempty_checks_the_deadline_per_pop():
    class CountingBudget(Budget):
        def __init__(self):
            super().__init__(None)
            self.checks = []

        def check_time(self, stage):
            self.checks.append(stage)
            super().check_time(stage)

    for seed in range(6):
        a = with_final(feeding_automaton(seed), [])
        b = feeding_automaton(seed + 1000)
        budget = CountingBudget()
        assert not intersection_nonempty(a, b, budget)
        # every discovered pair is popped once, and each pop checks once
        assert budget.used > 0
        assert budget.checks == ["intersection_nonempty"] * budget.used
        # the product pops the same pairs through the same join
        budget = CountingBudget()
        prod = intersect(a, b, budget)
        assert budget.checks == ["intersect"] * len(prod.states)
    with pytest.raises(ResourceExceededError) as err:
        intersection_nonempty(a, b, Budget(None, timeout_secs=-1))
    assert err.value.stage == "intersection_nonempty"


def budget_error(join, a, b, limit):
    with pytest.raises(ResourceExceededError) as err:
        join(a, b, Budget(limit))
    return err.value.stage, err.value.count


@pytest.mark.parametrize("seed", range(4))
def test_intersection_nonempty_budget_matches_reference(seed):
    a = with_final(feeding_automaton(seed), [])
    b = feeding_automaton(seed + 1000)
    used = Budget(None)
    intersection_nonempty(a, b, used)
    for limit in (0, used.used // 2, used.used - 1):
        assert (budget_error(intersection_nonempty, a, b, limit)
                == budget_error(intersection_nonempty_reference, a, b, limit)
                == ("intersection_nonempty", limit + 1))


@pytest.fixture(scope="module")
def warm_decide_triples():
    """A_G of C4, paw and P4x2 at 3 labels, each with the sub-closure the
    `warm_decide` benchmark workload decides it against."""
    from supertw import solver
    from supertw.all_decomps import build_all_decompositions
    from supertw.cmso.parser import parse
    from supertw.graph import Graph

    vc = solver.preset_formula({"vertex_cover": 1})
    niv = parse("forall v x. exists e y. inc(x, y)")
    shapes = {"C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
              "paw": [(0, 1), (1, 2), (0, 2), (2, 3)],
              "P4x2": [(0, 1), (0, 1), (1, 2), (2, 3)]}
    out = []
    for shape, phi, simple in (("C4", vc, True), ("paw", niv, False),
                               ("P4x2", vc, True)):
        g = Graph(range(4), {f"e{i}": e for i, e in enumerate(shapes[shape])})
        sub, _ = solver._sub_automaton(
            phi, 3, simple, False,
            solver._phi_automaton(phi, 3, simple, Budget(None))[0], Budget(None))
        out.append((shape, build_all_decompositions(g, 3), sub))
    return out


def test_intersection_nonempty_matches_reference_on_warm_decide(warm_decide_triples):
    answers = {}
    for shape, a_g, sub in warm_decide_triples:
        step = len(a_g.states) // 4
        (answer, used), *_ = same_as_reference(sweep(a_g, sub, a_g.states[step::step][:3]))
        answers[shape] = answer
        assert (budget_error(intersection_nonempty, a_g, sub, used // 2)
                == budget_error(intersection_nonempty_reference, a_g, sub, used // 2)
                == ("intersection_nonempty", used // 2 + 1))
    assert answers == {"C4": False, "paw": True, "P4x2": False}


# --- the product through the partner index ------------------------------
# `intersect` is the `_product` join run with transitions; the feeding
# pairs exercise its heap, and `intersect_reference` is the plain scan.

@pytest.mark.parametrize("case", range(30))
def test_intersect_matches_reference_on_feeding_pairs(case):
    a, b = feeding_pair(case)
    same_product(a, b)
    same_product(b, a)


@pytest.mark.parametrize("unary, expected", [
    # the pop of (x, y) finds (u, v) through the unary rule only after its
    # "m" rules ran, so the pop of (u, v) must still meet (x, y)
    ("n", [((), "l"), ((0,), "n"), ((1, 0), "m"), ((0, 1), "m")]),
    # here (u, v) is found first and the pop of (x, y) meets it on both
    # sides, so the pop of (u, v) must skip both transitions
    ("k", [((), "l"), ((0,), "k"), ((0, 1), "m"), ((1, 0), "m")])])
def test_intersect_meets_the_pair_that_found_it(unary, expected):
    alphabet = ["k", "l", "m", "n"]
    a = make_automaton(alphabet, ["z"], [((), "l", "x"), (("x",), unary, "u"),
                                         (("u", "x"), "m", "z"), (("x", "u"), "m", "z")])
    b = make_automaton(alphabet, ["w"], [((), "l", "y"), (("y",), unary, "v"),
                                         (("v", "y"), "m", "w"), (("y", "v"), "m", "w")])
    prod = same_product(a, b)
    assert [(ch, sym) for ch, sym, _q in prod.transitions] == expected


def test_intersect_checks_the_deadline():
    a, b = feeding_pair(0)
    with pytest.raises(ResourceExceededError) as err:
        intersect(a, b, Budget(None, timeout_secs=-1))
    assert err.value.stage == "intersect"


# --- one join, two modes -------------------------------------------------
# Both wrappers number the pairs in one order, so emptiness answers whether
# the product has a final state and charges the pairs up to the first one.

def same_as_product(a, b):
    """Emptiness of (a, b), asserted to read the product's first final pair."""
    budget = Budget(None)
    answer = intersection_nonempty(a, b, budget)
    prod = intersect(a, b, Budget(None))
    assert answer == bool(prod.final)
    assert budget.used == (min(prod.final) + 1 if prod.final else len(prod.states))


@pytest.mark.parametrize("case", range(30))
def test_intersection_nonempty_matches_intersect(case):
    a, b = feeding_pair(case)
    for x, y in sweep(a, b, a.states, b.states) + sweep(b, a, b.states, a.states):
        same_as_product(x, y)


def test_intersection_nonempty_matches_intersect_on_warm_decide(warm_decide_triples):
    for _shape, a_g, sub in warm_decide_triples:
        same_as_product(a_g, sub)


# --- the witness prefix ----------------------------------------------------
# `witness_prefix` is the `_product` join cut short once no later transition
# can change what `extract_witness` reads from the whole product.

def height(t):
    return 1 + max(map(height, t.children)) if t.children else 0


def height_counter(h, seed):
    """A shuffled raw automaton whose least accepted height is h: a leaf
    "a" starts at 0, rules count one up to h from their highest child,
    and some rules jump anywhere."""
    rng = random.Random(seed)
    trs = {((), "a", 0)}
    for sym in AB:
        for i in range(h + 1):
            if rng.random() < 0.6:
                trs.add(((i,), sym, min(i + 1, h)))
            for j in range(h + 1):
                if rng.random() < 0.4:
                    trs.add(((i, j), sym, min(max(i, j) + 1, h)))
                if rng.random() < 0.2:
                    trs.add(((i, j), sym, rng.randrange(h + 1)))
    trs = sorted(trs)
    rng.shuffle(trs)
    return TreeAutomaton.raw(AB, range(h + 1), [h], trs)


def same_witness_as_product(a, b):
    """The witness of (a, b), asserted to be the product's and to come from
    a column prefix of it, charged 1 a transition."""
    full = intersect(a, b, Budget(None))
    budget = Budget(None)
    pre = witness_prefix(a, b, budget)
    n = pre.n_transitions
    assert budget.used == n
    assert all(got == col[:n] for got, col in zip(pre.columns, full.columns))
    assert len(pre.states) <= len(full.states)
    assert pre.final == {q for q in full.final if q < len(pre.states)}
    witness = extract_witness(pre)
    assert witness == extract_witness(full)
    if witness is None:
        assert n == full.n_transitions and len(pre.states) == len(full.states)
    return witness


def test_witness_prefix_matches_the_product():
    heights, empty = set(), 0
    runs = []
    for case in range(30):
        a, b = feeding_pair(case)
        runs += sweep(a, b, a.states, b.states) + sweep(b, a, b.states, a.states)
    runs += [(random_automaton(seed), random_automaton(seed + 5000, n_states=4))
             for seed in range(300)]
    runs += [(height_counter(h, seed), height_counter(seed % 4, seed + 99))
             for h in range(7) for seed in range(12)]
    for a, b in runs:
        witness = same_witness_as_product(a, b)
        if witness is None:
            empty += 1
        else:
            heights.add(height(witness))
    assert heights >= set(range(5)) and empty > 0


def test_witness_prefix_of_an_empty_product_is_the_product():
    a, b = feeding_pair(0)
    a = with_final(a, [])
    assert witness_prefix(a, b).transitions == intersect(a, b).transitions


def test_witness_prefix_stops_when_the_root_settles():
    """(w, y) -> z is emitted at the pop of w, before y's round settles at
    the end of that pop; the settlement must stop the join there, so
    z -> v is never emitted."""
    alphabet = ["a", "b", "u"]
    a = make_automaton(alphabet, ["z"], [((), "a", "x"), ((), "b", "w"),
                                         (("x",), "u", "y"), (("w", "y"), "b", "z"),
                                         (("z",), "u", "v")])
    b = make_automaton(alphabet, ["o"], [((), "a", "o"), ((), "b", "o"),
                                         (("o",), "u", "o"), (("o", "o"), "b", "o")])
    budget = Budget(None)
    pre = witness_prefix(a, b, budget)
    assert pre.transitions == (((), "a", 0), ((), "b", 1), ((0,), "u", 2),
                               ((1, 2), "b", 3))
    assert budget.used == 4 and pre.final == {3}
    assert intersect(a, b).transitions == pre.transitions + (((3,), "u", 4),)
    assert extract_witness(pre) == term("b", term("b"), term("u", term("a")))


def test_witness_prefix_checks_the_deadline():
    a, b = feeding_pair(0)
    with pytest.raises(ResourceExceededError) as err:
        witness_prefix(a, b, Budget(None, timeout_secs=-1))
    assert err.value.stage == "intersect"


WARM_WITNESS_SHAPES = {
    "P2": [(0, 1)], "P3": [(0, 1), (1, 2)], "K3": [(0, 1), (1, 2), (0, 2)],
    "K2x2": [(0, 1), (0, 1)], "K2x3": [(0, 1), (0, 1), (0, 1)],
    "P3x2": [(0, 1), (0, 1), (1, 2)]}


@pytest.fixture(scope="module")
def paired_closure():
    """The paired no_isolated_vertex closure at 3 labels, the b operand of
    every product of the `warm_witness` benchmark workload."""
    from supertw import solver
    from supertw.cmso.parser import parse

    phi = parse("forall v x. exists e y. inc(x, y)")
    return solver._sub_automaton(
        phi, 3, False, True,
        solver._phi_automaton(phi, 3, False, Budget(None))[0], Budget(None))[0]


def dump_digest(aut):
    return hashlib.sha256(json.dumps(to_json(aut), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("shape", sorted(WARM_WITNESS_SHAPES))
def test_intersect_matches_reference_on_warm_witness(shape, paired_closure):
    from supertw.all_decomps import build_all_decompositions
    from supertw.graph import Graph
    from supertw.solver import lift_to_pairs

    edges = WARM_WITNESS_SHAPES[shape]
    g = Graph(range(1 + max(map(max, edges))),
              {f"e{i}": e for i, e in enumerate(edges)})
    a = lift_to_pairs(build_all_decompositions(g, 3), 3)
    new, ref = Budget(None), Budget(None)
    got = intersect(a, paired_closure, new)
    assert (dump_digest(got) == dump_digest(intersect_reference(a, paired_closure, ref)))
    assert new.used == ref.used == len(got.transitions)
    assert len(set(got.transitions)) == len(got.transitions)
    for limit in (0, new.used // 2, new.used - 1):
        assert budget_error(intersect, a, paired_closure, limit) == ("intersect", limit + 1)


def test_witness_deterministic_tie_break():
    # two final leaf states: the canonically first transition wins
    aut = make_automaton(AB, ["x", "y"], [((), "b", "y"), ((), "a", "x")])
    assert extract_witness(aut) == term("a")


def test_json_round_trip_and_stability():
    # nothing reads a dump back, so what is left to check is its stability
    a = random_automaton(5)
    obj = to_json(a)
    # dumping twice gives identical bytes
    assert json.dumps(obj, sort_keys=True) == json.dumps(to_json(a), sort_keys=True)
    # and so does the same automaton assembled in another order
    b = TreeAutomaton(a.alphabet[::-1], a.states[::-1], a.final,
                      a.transitions[::-1])
    assert json.dumps(to_json(b), sort_keys=True) == json.dumps(obj, sort_keys=True)


def test_size():
    a = even_b_automaton()
    assert a.size() == len(a.states) + len(a.transitions)
