"""Sub-decomposition closure against brute-force enumeration.

Since a sub-decomposition has the same shape (hence depth) as its super
term, comparing languages depth-for-depth against the union of
enumerate_sub_decompositions over L(aut) is exact, not an approximation.
"""

import random

import pytest

from supertw.decomp import (bag, bag_alphabet, enumerate_sub_decompositions,
                            is_sub_decomposition)
from supertw.errors import AlphabetMismatchError
from supertw.subdecomp import pair_alphabet, sub_closure, sub_closure_paired
from supertw.terms import enumerate_terms, map_symbols, term
from supertw.tree_automata import TreeAutomaton, accepts
from supertw.util import osorted
from corpus import make_automaton


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
