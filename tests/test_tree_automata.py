import json
import random
from collections import deque

import pytest

from supertw.errors import (AlphabetMismatchError, ResourceExceededError,
                            UnknownSymbolError)
from supertw.terms import enumerate_terms, map_symbols, term
from supertw.tree_automata import (TreeAutomaton, _inhabited, accepts,
                                   complement, determinize, extract_witness,
                                   from_json, intersect, intersection_nonempty,
                                   is_empty, make_automaton, project,
                                   reduce_bisim, run, to_json, trim, union)
from supertw.util import Budget

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
        union(a, b)


@pytest.mark.parametrize("seed", range(8))
def test_boolean_operations_against_enumeration(seed):
    a = random_automaton(seed)
    b = random_automaton(seed + 100)
    la, lb = language(a), language(b)
    assert language(intersect(a, b)) == la & lb
    assert language(union(a, b)) == la | lb
    assert language(complement(a)) == set(TERMS3) - la


@pytest.mark.parametrize("seed", range(8))
def test_determinize_preserves_language_and_is_deterministic(seed):
    a = random_automaton(seed)
    d = determinize(a)
    assert language(d) == language(a)
    seen = {}
    for children, sym, q in d.transitions:
        key = (children, sym)
        assert key not in seen
        seen[key] = q
    for t in TERMS3[:50]:
        assert len(run(d, t)) == 1


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
    assert is_empty(a) == (not accepted_depths)
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
    assert intersection_nonempty(a, b) == (not is_empty(intersect(a, b)))


def test_budget_enforced():
    a = random_automaton(1, n_states=4)
    b = random_automaton(2, n_states=4)
    with pytest.raises(ResourceExceededError):
        intersect(a, b, budget=Budget(max_transitions=3))
    with pytest.raises(ResourceExceededError):
        determinize(a, budget=Budget(max_transitions=3))


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


@pytest.mark.parametrize("seed", range(8))
def test_intersect_matches_reference(seed):
    a = random_automaton(seed)
    b = raw_random_automaton(seed + 50, ENCODINGS["tuple"], n_states=4, extra=1)
    b = TreeAutomaton.raw(a.alphabet, b.states, b.final, b.transitions)
    for x, y in ((a, b), (b, a), (a, random_automaton(seed + 100))):
        new, ref = Budget(None), Budget(None)
        assert to_json(intersect(x, y, new)) == to_json(intersect_reference(x, y, ref))
        assert new.used == ref.used


def test_witness_deterministic_tie_break():
    # two final leaf states: the canonically first transition wins
    aut = make_automaton(AB, ["x", "y"], [((), "b", "y"), ((), "a", "x")])
    assert extract_witness(aut) == term("a")


def test_json_round_trip_and_stability():
    a = random_automaton(5)
    obj = to_json(a)
    b = from_json(obj)
    assert language(b) == {map_symbols(lambda s: s, t) for t in language(a)}
    # dumping twice gives identical bytes
    assert json.dumps(obj, sort_keys=True) == json.dumps(to_json(a), sort_keys=True)
    # and a rebuilt automaton dumps to an equivalent canonical form
    assert json.dumps(to_json(from_json(obj)), sort_keys=True) == \
        json.dumps(to_json(from_json(to_json(a))), sort_keys=True)


def test_size():
    a = even_b_automaton()
    assert a.size() == len(a.states) + len(a.transitions)
