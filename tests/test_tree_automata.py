import json
import random

import pytest

from supertw.errors import (AlphabetMismatchError, ResourceExceededError,
                            UnknownSymbolError)
from supertw.terms import enumerate_terms, map_symbols, term
from supertw.tree_automata import (TreeAutomaton, accepts, complement,
                                   determinize, extract_witness, from_json,
                                   intersect, intersection_nonempty, is_empty,
                                   make_automaton, project, reduce_bisim, run,
                                   to_json, trim, union)
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
