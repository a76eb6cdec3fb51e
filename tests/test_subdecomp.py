"""Sub-decomposition closure against brute-force enumeration.

Since a sub-decomposition has the same shape (hence depth) as its super
term, comparing languages depth-for-depth against the union of
enumerate_sub_decompositions over L(aut) is exact, not an approximation.

`closure_reference` keeps the states as (q, B, B') triples and builds each
output symbol; the closure on numbered states must match it dump for
dump, charge for charge.
"""

import hashlib
import json
import random
import tracemalloc
from collections import deque
from itertools import combinations

import pytest

from supertw import solver
from supertw.cmso.parser import parse
from supertw.decomp import (ConcreteBag, bag, bag_alphabet,
                            enumerate_sub_decompositions,
                            is_sub_decomposition)
from supertw.errors import AlphabetMismatchError, ResourceExceededError
from supertw.subdecomp import (PairBag, _bag_arity_t, pair_alphabet,
                               sub_closure, sub_closure_paired)
from supertw.terms import enumerate_terms, map_symbols, term
from supertw.tree_automata import TreeAutomaton, accepts, reduce_bisim, to_json
from supertw.util import Budget
from corpus import make_automaton, path


def brute_subs(aut, depth):
    got = set()
    for tm in enumerate_terms(aut.alphabet, depth):
        if accepts(aut, tm):
            got.update(enumerate_sub_decompositions(tm))
    return got


def assert_closure_exact(aut, depth=3):
    closed = sub_closure(aut)
    want = brute_subs(aut, depth)
    for tm in enumerate_terms(aut.alphabet, depth):
        assert accepts(closed, tm) == (tm in want), repr(tm)


def singleton_automaton(tm, t):
    """Automaton accepting exactly the term tm."""
    trs = []
    counter = [0]

    def go(node):
        qs = tuple(go(c) for c in node.children)
        q = counter[0]
        counter[0] += 1
        trs.append((qs, node.symbol, q))
        return q

    root = go(tm)
    return make_automaton(bag_alphabet(t), [root], trs)


def test_single_bag_k2():
    tm = term(bag((1, 2), (1, 2)))
    closed = sub_closure(singleton_automaton(tm, 2))
    expected = {
        term(bag((1, 2), (1, 2))),
        term(bag((1, 2))),
        term(bag((1,))),
        term(bag((2,))),
        term(bag(())),
    }
    assert set(enumerate_sub_decompositions(tm)) == expected
    for cand in enumerate_terms(bag_alphabet(2), 1):
        assert accepts(closed, cand) == (cand in expected)


def test_closure_of_a_path_term():
    tm = term(bag((1, 2), (1, 2)), term(bag((2, 1), (1, 2)), term(bag((1,)))))
    assert_closure_exact(singleton_automaton(tm, 2), depth=3)


def random_automaton(rng, t, n_states):
    alphabet = bag_alphabet(t)
    states = list(range(n_states))
    trs = []
    for sym in alphabet:
        for q in states:
            if rng.random() < 0.4:
                trs.append(((), sym, q))
            if rng.random() < 0.35:
                trs.append(((rng.choice(states),), sym, q))
            if rng.random() < 0.3:
                trs.append(((rng.choice(states), rng.choice(states)), sym, q))
    final = rng.sample(states, rng.randint(1, n_states))
    return TreeAutomaton(alphabet, states, final, trs)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_closure_matches_brute_force_random(seed):
    rng = random.Random(seed)
    assert_closure_exact(random_automaton(rng, 2, 3), depth=3)


def test_language_grows_and_closure_is_idempotent():
    rng = random.Random(9)
    aut = random_automaton(rng, 2, 3)
    once = sub_closure(aut)
    twice = sub_closure(once)
    for tm in enumerate_terms(aut.alphabet, 3):
        in_once = accepts(once, tm)
        assert accepts(aut, tm) <= in_once
        assert accepts(twice, tm) == in_once


def test_paired_closure_characterization():
    rng = random.Random(7)
    aut = random_automaton(rng, 2, 3)
    paired = sub_closure_paired(aut)
    assert paired.alphabet == pair_alphabet(2)
    for ptm in enumerate_terms(pair_alphabet(2), 2):
        sub = map_symbols(lambda p: p.sub, ptm)
        sup = map_symbols(lambda p: p.sup, ptm)
        want = accepts(aut, sup) and is_sub_decomposition(sub, sup)
        assert accepts(paired, ptm) == want, repr(ptm)


def test_paired_first_projection_recovers_plain_closure():
    rng = random.Random(8)
    aut = random_automaton(rng, 2, 3)
    plain = sub_closure(aut)
    paired = sub_closure_paired(aut)
    reachable = set()
    for ptm in enumerate_terms(pair_alphabet(2), 2):
        if accepts(paired, ptm):
            reachable.add(map_symbols(lambda p: p.sub, ptm))
    for tm in enumerate_terms(bag_alphabet(2), 2):
        assert accepts(plain, tm) == (tm in reachable)


def test_arc_condition_rejects_partial_component_drop():
    # two stacked bags sharing label 1: a sub-term keeping 1 only at the
    # root splits the component, violating the all-or-nothing rule
    sup = term(bag((1,)), term(bag((1,))))
    bad = term(bag((1,)), term(bag(())))
    assert not is_sub_decomposition(bad, sup)
    closed = sub_closure(singleton_automaton(sup, 2))
    assert accepts(closed, sup)
    assert not accepts(closed, bad)


def test_requires_full_bag_alphabet():
    partial = TreeAutomaton([bag((1,))], [0], [0], [((), bag((1,)), 0)])
    with pytest.raises(AlphabetMismatchError):
        sub_closure(partial)


# --- numbered states change nothing ------------------------------------

def combos_with_reference(st, children, anns):
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


def closure_reference(aut, paired, budget=None):
    """The closure with states kept as (q, B, B') and every output symbol
    built fresh, deduplicated on those deep keys: the construction
    `sub_closure` and `sub_closure_paired` must reproduce exactly."""
    t = _bag_arity_t(aut)
    if budget is None:
        budget = Budget()
    stage = "sub_closure_paired" if paired else "sub_closure"

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
            budget.spend(1, stage)

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
            for combo in combos_with_reference(st, children, anns):
                expand(combo, sym, q)

    final = [st for st in states if st[0] in aut.final]
    alphabet = pair_alphabet(t) if paired else aut.alphabet
    return TreeAutomaton.raw(alphabet, states, final, trs)


def dump(aut):
    return json.dumps(to_json(aut), sort_keys=True)


def first_difference(got, want):
    """None when the two dumps agree, else where they first differ (a
    short report: pytest would spend minutes diffing whole dumps)."""
    a, b = to_json(got), to_json(want)
    for key in ("alphabet", "states", "final"):
        if a[key] != b[key]:
            return key
    for i, (x, y) in enumerate(zip(a["transitions"], b["transitions"])):
        if x != y:
            return i, x, y
    if len(a["transitions"]) != len(b["transitions"]):
        return "transitions", len(a["transitions"]), len(b["transitions"])
    return None


def budget_stop(build, aut, limit):
    with pytest.raises(ResourceExceededError) as err:
        build(aut, Budget(limit))
    return err.value.stage, err.value.count


def edge_dropping_automaton(rng, t, n_states):
    """A random automaton in which rules over (B', ∅) and (B', b') share
    their children and target, so that dropping the edge of the second
    gives the sub-bags of the first: plain closures meet duplicates."""
    base = random_automaton(rng, t, n_states)
    trs = list(base.transitions)
    states = list(base.states)
    wide = [sym for sym in bag_alphabet(t) if sym.b]
    for q in states:
        for arity in (0, 1, 2):
            if rng.random() < 0.6:
                sym = rng.choice(wide)
                children = tuple(rng.choice(states) for _ in range(arity))
                trs.append((children, bag(sym.B), q))
                trs.append((children, sym, q))
    return TreeAutomaton(base.alphabet, states, base.final, trs)


CASES = [(t, seed) for t in (2, 3) for seed in range(12)]


@pytest.mark.parametrize("paired", [False, True])
@pytest.mark.parametrize("t,seed", CASES)
def test_closure_matches_reference(t, seed, paired):
    rng = random.Random(1000 * t + seed)
    make = edge_dropping_automaton if seed % 2 else random_automaton
    aut = make(rng, t, 3)
    build = sub_closure_paired if paired else sub_closure
    got_budget, want_budget = Budget(None), Budget(None)
    got = build(aut, got_budget)
    want = closure_reference(aut, paired, want_budget)
    assert first_difference(got, want) is None
    at = {st: i for i, st in enumerate(want.states)}
    assert got.states == tuple(range(len(want.states)))
    assert got.final == frozenset(at[st] for st in want.final)
    assert got_budget.used == want_budget.used == len(got.transitions)
    # the symbols are the output alphabet's own objects
    own = {id(sym) for sym in got.alphabet}
    assert all(id(sym) in own for _ch, sym, _q in got.transitions)
    used = got_budget.used
    for limit in (0, used // 2, used - 1):
        assert (budget_stop(build, aut, limit)
                == budget_stop(lambda a, b: closure_reference(a, paired, b),
                               aut, limit)
                == ("sub_closure_paired" if paired else "sub_closure",
                    limit + 1))


def test_plain_closure_merges_the_dropped_edge():
    # one rule over ({1,2}, ∅) and one over ({1,2}, {1,2}) into one target:
    # dropping the edge of the second repeats every rule of the first
    wide = bag((1, 2), (1, 2))
    aut = TreeAutomaton(bag_alphabet(2), [0], [0],
                        [((), bag((1, 2)), 0), ((), wide, 0)])
    plain, paired = Budget(None), Budget(None)
    assert len(sub_closure(aut, plain).transitions) == plain.used == 5
    assert len(sub_closure_paired(aut, paired).transitions) == paired.used == 9
    assert first_difference(sub_closure(aut), closure_reference(aut, False)) is None


def test_paired_closure_spends_under_its_own_stage():
    rng = random.Random(5)
    aut = random_automaton(rng, 2, 3)
    assert budget_stop(sub_closure_paired, aut, 10) == ("sub_closure_paired", 11)
    assert budget_stop(sub_closure, aut, 10) == ("sub_closure", 11)


def test_budget_stop_in_the_paired_closure_names_its_stats_stage():
    g, phi = path(2), parse("forall v x. exists e y. inc(x, y)")
    solver.clear_caches()
    try:
        stats = solver.has_supergraph(g, phi, 1, budget=Budget(None),
                                      want_witness=True).stats
        before = sum(stats[stage]["charged"] for stage in
                     ("compile", "sub_closure", "decompositions", "emptiness"))
        assert stats["sub_closure_paired"]["charged"] > 1
        solver.clear_caches()
        with pytest.raises(ResourceExceededError) as err:
            solver.has_supergraph(g, phi, 1, budget=Budget(before + 1),
                                  want_witness=True)
        assert err.value.stage == "sub_closure_paired"
        assert err.value.stage in stats
    finally:
        solver.clear_caches()


# SHA-256 of the canonical JSON of the closures at 3 labels that the
# `warm_decide` benchmark workload decides against, with their charges,
# as the (q, B, B')-keyed construction builds them
CLOSURE_PINS = {
    ("vertex_cover=1", False): (
        78674, "af0590e54ed4454ce20ca241b2136fa6092251773b3ddccf4fd708435a4e62a2"),
    ("vertex_cover=1", True): (
        78674, "9841a3e8c107482a30055baa235b52ffdd3044ba6c2cb81daf4071bb650e0aa7"),
    ("no_isolated_vertex", False): (
        43848, "1f611202790d030f1419136058480224712ade5885d2c1c9f53bebc96a41df26"),
    ("no_isolated_vertex", True): (
        54504, "c1f0bc7946e633711d08e5e2fbc8d178893766d68c5e327ab6f5d278dfb233ef"),
}


@pytest.mark.parametrize("name,paired", sorted(CLOSURE_PINS))
def test_closure_pinned(name, paired):
    if name == "vertex_cover=1":
        phi, simple = solver.preset_formula({"vertex_cover": 1}), True
    else:
        phi, simple = parse("forall v x. exists e y. inc(x, y)"), False
    aut, _ = solver._phi_automaton(phi, 3, simple, Budget(None))
    budget = Budget(None)
    closed = (sub_closure_paired if paired else sub_closure)(aut, budget)
    charge, digest = CLOSURE_PINS[name, paired]
    assert budget.used == charge
    assert hashlib.sha256(dump(closed).encode()).hexdigest() == digest


def test_closure_reduction_returns_it_in_bounded_memory():
    # the vertex_cover=1 closure at 3 labels merges nothing: reduce_bisim
    # returns it as it is, holding one refinement round's signatures at a
    # time (about 16 MB; two rounds and the tuple per transition took 40)
    phi = solver.preset_formula({"vertex_cover": 1})
    aut, _ = solver._phi_automaton(phi, 3, True, Budget(None))
    closed = sub_closure(aut, Budget(None))
    tracemalloc.start()
    try:
        same = reduce_bisim(closed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same is closed
    assert peak < 24 * 2 ** 20
