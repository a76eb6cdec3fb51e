"""Formula-to-automaton compiler checked against the direct evaluator.

The ground truth throughout is eval_direct on the decoded graph: a term
must be accepted by compile(phi, t) exactly when its decoded graph
satisfies phi. The heavy exhaustive sweeps live in test_acceptance; here
the same comparison runs at reduced depth plus targeted regressions.
"""

import gc
import hashlib
import json
import random
import sys
import tracemalloc
from collections import Counter, deque
from pathlib import Path

import pytest

from supertw.cmso.ast import (And, Card, Exists, Forall, Iff, Implies, Inc,
                              MemE, MemV, Not, Or, Var, VarEq, VarKind,
                              free_vars)
from supertw.cmso.compile import (_COMPILE_CACHE, _Compiler, _SubsetSim,
                                  _step_machine, _xtuple,
                                  compile as compile_formula, compile_open,
                                  functional_product, interpreted_alphabet,
                                  validity_automaton)
from supertw.cmso.evaluate import eval_direct
from supertw.cmso.generators import (even_order, gen_diam, gen_vertex_cover,
                                     no_isolated_vertex, simple_graph,
                                     some_vertex)
from supertw.cmso.parser import parse
from supertw.decomp import bag_alphabet, decode_graph, s_maximal_components
from supertw.errors import (AlphabetMismatchError, CmsoKindError,
                            ResourceExceededError)
from supertw.solver import clear_caches
from supertw.terms import enumerate_terms, map_symbols
from supertw.tree_automata import (TreeAutomaton, accepts, intersect,
                                   intersection_nonempty,
                                   reduce_bisim, run, to_json, trim)
from supertw.util import Budget
from corpus import collections_inside, make_automaton, tautology
from test_tree_automata import (AB, TERMS3, intersect_reference, language,
                                random_automaton)

FORMULAS = [
    ("some_vertex", some_vertex()),
    ("no_isolated", no_isolated_vertex()),
    ("even_order", even_order()),
    ("diam1", gen_diam(1)),
    ("diam2", gen_diam(2)),
    ("vc1", gen_vertex_cover(1)),
]


def terms_upto(t, depth):
    return list(enumerate_terms(bag_alphabet(t), depth))


def check_agreement(phi, t, terms):
    aut = compile_formula(phi, t)
    for tm in terms:
        want = eval_direct(phi, decode_graph(tm))
        got = accepts(aut, tm)
        assert got == want, f"t={t} term={tm!r}: automaton {got}, evaluator {want}"


@pytest.mark.parametrize("name,phi", FORMULAS)
def test_agreement_depth2(name, phi):
    for t in (1, 2):
        check_agreement(phi, t, terms_upto(t, 2))


@pytest.mark.parametrize("name,phi", FORMULAS)
def test_agreement_depth3_one_label(name, phi):
    check_agreement(phi, 1, terms_upto(1, 3))


def test_agreement_depth3_sample_two_labels():
    # deterministic slice of the depth-3 space at t=2
    terms = terms_upto(2, 3)
    rng = random.Random(20260815)
    sample = rng.sample(terms, 400)
    for _, phi in FORMULAS:
        check_agreement(phi, 2, sample)


def test_negation_flips_membership():
    phi = no_isolated_vertex()
    pos = compile_formula(phi, 2)
    neg = compile_formula(Not(phi), 2)
    for tm in terms_upto(2, 2):
        assert accepts(pos, tm) != accepts(neg, tm)


def test_de_morgan():
    a, b = some_vertex(), even_order()
    left = compile_formula(Not(And(a, b)), 2)
    right = compile_formula(Or(Not(a), Not(b)), 2)
    for tm in terms_upto(2, 2):
        assert accepts(left, tm) == accepts(right, tm)


def test_tautology_accepts_everything():
    aut = compile_formula(tautology(), 2)
    terms = terms_upto(2, 2)
    assert all(accepts(aut, tm) for tm in terms)


def test_compile_rejects_open_formula():
    x = Var("x", VarKind.VERTEX)
    y = Var("y", VarKind.EDGE)
    with pytest.raises(CmsoKindError):
        compile_formula(Inc(x, y), 2)


def test_budget_exhausts():
    with pytest.raises(ResourceExceededError):
        compile_formula(gen_diam(1), 3, Budget(200))
    assert gc.isenabled()


def test_cold_compile_runs_no_collection():
    clear_caches()
    assert collections_inside(
        compile_formula, lambda: compile_formula(gen_diam(1), 3)) == []
    assert gc.isenabled()


# --- cache hits answer to the budget ------------------------------------

def cold_compile_cost(phi, t):
    """Charge of compiling phi from empty caches; leaves the caches warm."""
    clear_caches()
    budget = Budget(None)
    compile_formula(phi, t, budget)
    assert _COMPILE_CACHE.cost((phi, t)) == budget.used
    return budget.used


def test_cache_hit_answers_to_budget():
    phi, t = gen_vertex_cover(1), 2
    cost = cold_compile_cost(phi, t)
    with pytest.raises(ResourceExceededError):
        compile_formula(phi, t, Budget(10))
    with pytest.raises(ResourceExceededError):
        compile_formula(phi, t, Budget(cost - 1))
    with pytest.raises(ResourceExceededError):
        compile_formula(phi, t, Budget(None, timeout_secs=-1))
    budget = Budget(cost)
    compile_formula(phi, t, budget)
    assert (budget.used, budget.cached) == (0, cost)


def test_cold_cost_bounds_cold_build():
    phi, t = gen_vertex_cover(1), 2
    cost = cold_compile_cost(phi, t)
    clear_caches()
    with pytest.raises(ResourceExceededError):
        compile_formula(phi, t, Budget(cost - 1))
    clear_caches()
    budget = Budget(cost)
    compile_formula(phi, t, budget)
    assert (budget.used, budget.cached) == (cost, 0)


def test_cold_cost_bounds_build_on_warm_validity():
    # no_isolated_vertex leaves validity automata that vertex_cover reuses
    phi, t = gen_vertex_cover(1), 2
    cost = cold_compile_cost(phi, t)
    for limit, raises in ((cost - 1, True), (cost, False)):
        clear_caches()
        compile_formula(no_isolated_vertex(), t)
        budget = Budget(limit)
        if raises:
            with pytest.raises(ResourceExceededError):
                compile_formula(phi, t, budget)
        else:
            compile_formula(phi, t, budget)
            assert 0 < budget.cached and budget.used + budget.cached == cost
            assert _COMPILE_CACHE.cost((phi, t)) == cost


def test_reduce_bisim_preserves_language():
    aut = compile_formula(no_isolated_vertex(), 2)
    red = reduce_bisim(aut)
    assert len(red.states) <= len(aut.states)
    for tm in terms_upto(2, 2):
        assert accepts(aut, tm) == accepts(red, tm)


def test_equality_conjunct_elimination_language():
    # exists w (Inc(w, y) and w = z) must equal Inc(z, y) once closed
    z = Var("z", VarKind.VERTEX)
    w = Var("w", VarKind.VERTEX)
    y = Var("y", VarKind.EDGE)
    phi1 = Forall(z, Exists(y, Exists(w, And(Inc(w, y), VarEq(w, z)))))
    phi2 = Forall(z, Exists(y, Inc(z, y)))
    a1 = compile_formula(phi1, 2)
    a2 = compile_formula(phi2, 2)
    for tm in terms_upto(2, 2):
        assert accepts(a1, tm) == accepts(a2, tm)


# --- interpreted terms: validity and open compilation -----------------

def flag_positions(tm, var):
    """(position, label) pairs (vertex sorts) or positions (edge sorts)."""
    out = set()
    for p in tm.positions():
        sym = tm.symbol_at(p)
        if var.kind.is_vertex_sort:
            out |= {(p, s) for v, s in sym.vflags if v == var}
        elif var in sym.eflags:
            out.add(p)
    return out


def brute_valid(tm, xs):
    """Reference check: every variable is annotated canonically."""
    plain = map_symbols(lambda s: s.bag, tm)
    comps = {}
    for p in plain.positions():
        for s in plain.symbol_at(p).B:
            comps.setdefault(s, None)
    for s in comps:
        comps[s] = list(s_maximal_components(plain, s))
    for x in xs:
        flags = flag_positions(tm, x)
        if x.kind == VarKind.VERTEX:
            cells = [{(p, s) for p in members}
                     for s, cl in comps.items() for _root, members in cl]
            if not any(flags == cell for cell in cells):
                return False
        elif x.kind == VarKind.VERTEX_SET:
            for s, cl in comps.items():
                for _root, members in cl:
                    cell = {(p, s) for p in members}
                    if flags & cell and flags & cell != cell:
                        return False
        elif x.kind == VarKind.EDGE:
            if len(flags) != 1:
                return False
    return True


@pytest.mark.parametrize("kind", [VarKind.VERTEX, VarKind.VERTEX_SET,
                                  VarKind.EDGE])
def test_validity_automaton_matches_brute_force(kind):
    x = Var("x", kind)
    t = 2
    aut = validity_automaton(t, (x,))
    for tm in enumerate_terms(interpreted_alphabet(t, (x,)), 2):
        assert accepts(aut, tm) == brute_valid(tm, (x,)), repr(tm)


def flagged_assignment(tm, scope):
    """The value of each variable of scope on the canonical term tm, as
    eval_direct reads it on the decoded graph: a vertex is (label, root
    of its s-maximal component), an edge the position that realizes it."""
    plain = map_symbols(lambda s: s.bag, tm)
    labels = {s for p in plain.positions() for s in plain.symbol_at(p).B}
    cells = [((s, root), {(p, s) for p in members}) for s in labels
             for root, members in s_maximal_components(plain, s)]
    out = {}
    for x in scope:
        value = flag_positions(tm, x)
        if x.kind.is_vertex_sort:
            value = {v for v, cell in cells if cell <= value}
        if not x.kind.is_set:
            assert len(value) == 1
            value = next(iter(value))
        out[x] = value
    return out


def check_open_against_eval(aut, phi, t, scope):
    """aut, over the flags of scope, accepts exactly the canonical terms
    whose decoded graph satisfies phi under the values they flag."""
    valid = validity_automaton(t, scope)
    for tm in enumerate_terms(interpreted_alphabet(t, scope), 2):
        got = accepts(aut, tm)
        if not accepts(valid, tm):
            assert not got and not brute_valid(tm, scope)
            continue
        assert brute_valid(tm, scope)
        g = decode_graph(map_symbols(lambda s: s.bag, tm))
        assert got == eval_direct(phi, g, flagged_assignment(tm, scope))


def test_compile_open_agrees_with_assignment_eval():
    x = Var("x", VarKind.VERTEX)
    y = Var("y", VarKind.EDGE)
    phi = Exists(y, Inc(x, y))  # "x is not isolated", x free
    check_open_against_eval(compile_open(phi, 2, (x,)), phi, 2, (x,))


def test_compile_open_lifts_into_a_wider_scope():
    # the scope holds an edge-set variable that phi does not use, so the
    # compiled formula is lifted into it by a one-operand "and"
    x = Var("x", VarKind.VERTEX)
    y = Var("y", VarKind.EDGE)
    es = Var("E", VarKind.EDGE_SET)
    phi = Exists(y, Inc(x, y))
    clear_caches()
    budget = Budget(None)
    aut = compile_open(phi, 2, (x, es), budget)
    check_open_against_eval(aut, phi, 2, (x, es))
    # as the unrolled one-operand steps built it; the charge is that of
    # the incidence steps over validity(x), which never asks for (x, y)
    text = json.dumps(to_json(aut), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b9c574d58eae3cf769b07971cf33d7a2dc814e6d9bf1e43eb6a59e3a4cb80b56")
    assert budget.used == 2690


# --- dense product ids change nothing -------------------------------------

def functional_product_reference(base, leaf_f, unary_f, binary_f, final_f,
                                 budget, stage):
    """The product over (q, m) pair states that `functional_product`
    replaced: its dump, order included, must come out unchanged."""
    leaf_trans, un_by_child, bin_by_left, bin_by_right = [], {}, {}, {}
    for children, sym, tgt in base.transitions:
        if not children:
            leaf_trans.append((sym, tgt))
        elif len(children) == 1:
            un_by_child.setdefault(children[0], []).append((sym, tgt))
        else:
            l, r = children
            bin_by_left.setdefault(l, []).append((r, sym, tgt))
            bin_by_right.setdefault(r, []).append((l, sym, tgt))
    states, discovered, transitions = {}, {}, {}
    queue = deque()

    def add(qb, m):
        st = (qb, m)
        if st not in states:
            states[st] = None
            discovered.setdefault(qb, []).append(m)
            queue.append(st)

    def emit(children, sym, tgt):
        tr = (children, sym, tgt)
        if tr not in transitions:
            transitions[tr] = None
            budget.spend(1, stage)

    for sym, tgt in leaf_trans:
        m = leaf_f(sym)
        if m is not None:
            emit((), sym, (tgt, m))
            add(tgt, m)
    while queue:
        st = queue.popleft()
        qb, m = st
        for sym, tgt in un_by_child.get(qb, ()):
            m2 = unary_f(m, sym)
            if m2 is not None:
                emit((st,), sym, (tgt, m2))
                add(tgt, m2)
        for qb2, sym, tgt in bin_by_left.get(qb, ()):
            for m2 in tuple(discovered.get(qb2, ())):
                mm = binary_f(m, m2, sym)
                if mm is not None:
                    emit((st, (qb2, m2)), sym, (tgt, mm))
                    add(tgt, mm)
        for qb1, sym, tgt in bin_by_right.get(qb, ()):
            for m1 in tuple(discovered.get(qb1, ())):
                mm = binary_f(m1, m, sym)
                if mm is not None:
                    emit(((qb1, m1), st), sym, (tgt, mm))
                    add(tgt, mm)
    base_final = set(base.final)
    final = [st for st in states if st[0] in base_final and final_f(st[1])]
    return TreeAutomaton.raw(base.alphabet, states, final, transitions)


_X = Var("x", VarKind.VERTEX)
_Y = Var("y", VarKind.VERTEX)
_XS = Var("X", VarKind.VERTEX_SET)
_E = Var("e", VarKind.EDGE)
_ES = Var("E", VarKind.EDGE_SET)
ATOMS = {
    "eq": (VarEq(_X, _Y), (_X, _Y)),
    "mem": (MemV(_X, _XS), (_X, _XS)),
    "inc": (Inc(_X, _E), (_X, _E)),
    "card_v": (Card(1, 2, _XS), (_XS,)),
    "card_e": (Card(0, 2, _ES), (_ES,)),
}


@pytest.mark.parametrize("name", sorted(ATOMS))
def test_functional_product_matches_reference(name):
    phi, xs = ATOMS[name]
    val = validity_automaton(2, xs)
    new, ref = Budget(None), Budget(None)
    atom = functional_product(val, *_step_machine(phi), new, "atom")
    want = functional_product_reference(val, *_step_machine(phi), ref, "atom")
    assert to_json(atom) == to_json(want)
    assert new.used == ref.used == len(atom.transitions)
    # the complement, as negation runs it: subset states of the reduced atom
    other = reduce_bisim(trim(atom))
    sim = _SubsetSim(other)
    new, ref = Budget(None), Budget(None)
    got = functional_product(val, *_step_machine(Not(_SubsetSim(other))),
                             new, "not")
    want = functional_product_reference(
        val, lambda sym: (sim.leaf(sym),),
        lambda m, sym: (sim.unary(m[0], sym),),
        lambda m1, m2, sym: (sim.binary(m1[0], m2[0], sym),),
        lambda m: not sim.hit(m[0]), ref, "not")
    assert to_json(got) == to_json(want)
    assert new.used == ref.used


@pytest.mark.parametrize("seed", range(8))
def test_subset_simulation_determinizes_and_complements(seed):
    # negation's subset construction: on every term the simulation reaches
    # exactly the states `run` reaches, one subset per term, and subtracting
    # from an automaton that accepts everything accepts the complement
    a = random_automaton(seed)
    sim = _SubsetSim(a)

    def subset(tm):
        if not tm.children:
            return sim.leaf(tm.symbol)
        if len(tm.children) == 1:
            return sim.unary(subset(tm.children[0]), tm.symbol)
        return sim.binary(subset(tm.children[0]), subset(tm.children[1]),
                          tm.symbol)

    for tm in TERMS3:
        got = subset(tm)
        assert got == run(a, tm)
        assert sim.hit(got) == accepts(a, tm)
    everything = TreeAutomaton(AB, [0], [0], [(ch, sym, 0) for sym in AB
                                              for ch in ((), (0,), (0, 0))])
    diff = functional_product(everything, *_step_machine(Not(_SubsetSim(a))),
                              Budget(), "not")
    assert language(diff) == set(TERMS3) - language(a)


def test_subset_simulation_shares_equal_subsets():
    # two binary steps under different keys reach the subset {1}: both
    # answers are one object, and a cache hit returns it unchanged
    a = TreeAutomaton(["a", "b"], [0, 1], [1],
                      [((), "a", 0), ((0, 0), "a", 1), ((0, 0), "b", 1)])
    sim = _SubsetSim(a)
    s0 = sim.leaf("a")
    by_a = sim.binary(s0, s0, "a")
    by_b = sim.binary(s0, s0, "b")
    assert by_a == frozenset({1})
    assert by_a is by_b
    assert sim.binary(s0, s0, "a") is by_a == frozenset({1})
    assert len(sim.bcache) == 2 and len(sim.subsets) == 1


# --- a complement rejects the subsets that hold a sure state -------------

def complement_both_ways(base, operand):
    """The not of operand over base, pruned as the step machine runs it
    and unpruned from the simulation's raw steps, with their charges."""
    pruned, raw = Budget(None), Budget(None)
    got = functional_product(base, *_step_machine(Not(_SubsetSim(operand))),
                             pruned, "not")
    sim = _SubsetSim(operand)
    want = functional_product(base, sim.leaf, sim.unary, sim.binary,
                              lambda m: not sim.hit(m), raw, "not")
    return got, pruned.used, want, raw.used


def accept_all():
    """The one-state automaton over AB that accepts every term."""
    return TreeAutomaton(AB, [0], [0], [(ch, sym, 0) for sym in AB
                                        for ch in ((), (0,), (0, 0))])


def sure_operand(seed):
    """A random automaton over AB whose steps out of a final state mostly
    stay among the final states, binary ones more often than unary ones.
    Each leaf symbol and step has one or two random targets; on odd seeds
    a few have none. Where seed % 4 < 2, state 4 is final, no leaf
    reaches it, and every unary step out of it and binary step beside it
    stays there."""
    rng = random.Random(seed)
    states = range(5)
    sink = 4 if seed % 4 < 2 else None
    final = set(rng.sample(states, rng.randint(1, 3))) | {sink} - {None}
    trs = set()

    def targets(children):
        if sink in children:
            return [sink]
        if seed % 2 and rng.random() < 0.05:
            return []
        stay = 0.85 if len(children) == 2 else 0.6
        among = (sorted(final) if final & set(children) and rng.random() < stay
                 else [q for q in states if children or q != sink])
        return rng.sample(among, min(len(among), rng.randint(1, 2)))

    for sym in AB:
        trs.update(((), sym, q) for q in targets(()))
        for c in states:
            trs.update(((c,), sym, q) for q in targets((c,)))
            for c2 in states:
                trs.update(((c, c2), sym, q) for q in targets((c, c2)))
    return make_automaton(AB, final, sorted(trs, key=repr), states)


def test_complement_pruning_keeps_what_trim_keeps():
    # on random operands, against an automaton that accepts everything and
    # a random one, the pruned and the unpruned not trim to the same dump,
    # and the pruned one charges no more; some of them prune
    pruned_any = False
    for seed in range(40):
        operand = sure_operand(seed)
        for base in (accept_all(), random_automaton(seed, p_final=0.7)):
            got, used, want, raw = complement_both_ways(base, operand)
            assert to_json(trim(got)) == to_json(trim(want)), seed
            assert used <= raw
            pruned_any |= used < raw
    assert pruned_any


def final_operand(phi, t, monkeypatch):
    """The operand of the last simulation compile(phi, t) makes, with its
    scope; compile_open(phi, t, ()) over () where it makes none."""
    made = []
    sim = _Compiler.sim

    def recording(self, xs, aut, own_xs):
        made.append((aut, own_xs))
        return sim(self, xs, aut, own_xs)

    clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(_Compiler, "sim", recording)
        aut = compile_open(phi, t, (), Budget(None))
    return made[-1] if made else (aut, ())


@pytest.mark.parametrize("name", ["diam1", "even_order", "no_isolated_vertex",
                                  "vc1"])
def test_complement_pruning_on_benchmark_operands(name, monkeypatch):
    # the operand of each benchmark sentence's final not (of the sentence
    # itself where it has none), complemented over validity of its scope
    operand, xs = final_operand(PINNED_COMPILE[name][0](), 3, monkeypatch)
    got, used, want, raw = complement_both_ways(validity_automaton(3, xs),
                                                operand)
    assert to_json(trim(got)) == to_json(trim(want))
    assert used <= raw
    if name == "diam1":
        # one operand state accepts in every context, and the pruned
        # product is exactly what trim keeps
        assert len(_SubsetSim(operand).sure) == 1
        assert got.n_transitions == trim(got).n_transitions < raw


def test_complement_without_cover_prunes_nothing():
    # state 0 accepts in every context that has a leaf, but "b" has no
    # leaf rule: its empty subset meets no cover, so nothing is sure and
    # the pruned product is the unpruned one, byte for byte
    steps = [(ch, sym, 0) for sym in AB for ch in ((0,), (0, 0))]
    operand = make_automaton(AB, [0], [((), "a", 0)] + steps)
    assert _SubsetSim(operand).sure == frozenset()
    got, used, want, raw = complement_both_ways(accept_all(), operand)
    assert to_json(got) == to_json(want) and used == raw
    # with a leaf under "b" too, state 0 is sure
    complete = make_automaton(AB, [0], [((), "b", 0), ((), "a", 0)] + steps)
    assert _SubsetSim(complete).sure == frozenset({0})


def test_sure_set_checks_the_deadline():
    # a deadline that passes in the cover or sure-set rounds raises, under
    # the stage "not", both for a bare simulation and inside a compile
    operand = sure_operand(0)
    sim = _SubsetSim(operand, budget=Budget(None, timeout_secs=-1))
    _step_machine(sim)  # an operand that dooms when false needs no sure set
    with pytest.raises(ResourceExceededError) as err:
        _step_machine(Not(sim))
    assert err.value.stage == "not"

    class Expiring(Budget):
        def check_time(self, stage):
            if stage == "not":
                self.deadline = 0.0
            super().check_time(stage)

    clear_caches()
    with pytest.raises(ResourceExceededError) as err:
        compile_formula(gen_diam(1), 3, Expiring(None))
    assert err.value.stage == "not"


@pytest.mark.parametrize("mode", ["and", "or", "not"])
def test_subset_product_alphabet_mismatch(mode):
    # an operand read as is must be over validity's alphabet; one read
    # through an erasure map is over the map's narrower scope
    x = Var("x", VarKind.VERTEX)
    es = Var("E", VarKind.EDGE_SET)
    xs = _xtuple((x, es))
    val = validity_automaton(2, xs)
    narrow = validity_automaton(2, (x,))
    comp = _Compiler(2, Budget())
    with pytest.raises(AlphabetMismatchError):
        comp.sim(xs, narrow, xs)
    sim = comp.sim(xs, narrow, (x,))
    psi, stage = {"and": (And(sim, sim), "combine"),
                  "or": (Or(sim, sim), "combine"),
                  "not": (Not(sim), "not")}[mode]
    lifted = comp.combine(xs, psi, stage)
    assert lifted.alphabet == val.alphabet


@pytest.mark.parametrize("name", sorted(ATOMS))
def test_product_meets_each_pair_once(name):
    # functional_product: binary_f sees each (left id, right id, rule) once.
    # The functional side's state m and the base state name a product
    # state, so the reference's (q, m) states give the meetings expected.
    phi, xs = ATOMS[name]
    val = validity_automaton(2, xs)
    leaf_f, unary_f, binary_f, final_f = _step_machine(phi)
    seen = Counter()

    def counting_f(m1, m2, sym):
        seen[(m1, m2, sym)] += 1
        return binary_f(m1, m2, sym)

    new, ref = Budget(None), Budget(None)
    got = functional_product(val, leaf_f, unary_f, counting_f, final_f, new, "atom")
    want = functional_product_reference(val, leaf_f, unary_f, binary_f, final_f,
                                        ref, "atom")
    assert to_json(got) == to_json(want)
    assert new.used == ref.used
    ms = {}
    for q, m in want.states:
        ms.setdefault(q, []).append(m)
    expected = Counter()
    for children, sym, _q in val.transitions:
        if len(children) == 2:
            for m1 in ms.get(children[0], ()):
                for m2 in ms.get(children[1], ()):
                    expected[(m1, m2, sym)] += 1
    assert seen == expected
    # intersect: nothing dedups its output, so a pair met twice would show
    # up as a duplicate transition; here on the atom against its reduced
    # copy and a random automaton
    rng = random.Random(name)
    other = reduce_bisim(trim(got))
    noise = TreeAutomaton.raw(val.alphabet, range(3), [0, 1], sorted(
        {(ch, sym, rng.randrange(3)) for ch in ((), (0,), (1,), (0, 1), (2, 2))
         for sym in rng.sample(val.alphabet, 4)}, key=repr))
    for a, b in ((got, other), (other, got), (got, noise)):
        new, ref = Budget(None), Budget(None)
        prod = intersect(a, b, new)
        assert to_json(prod) == to_json(intersect_reference(a, b, ref))
        assert new.used == ref.used
        assert any(len(ch) == 2 for ch, _s, _q in prod.transitions)
        assert len(set(prod.transitions)) == len(prod.transitions)


# --- step-shaped subformulas run as one step machine ---------------------

def generic(phi, t, scope):
    """phi's automaton over scope with its top connective built by
    `combine` over compiled operands and projection, as before step
    machines, and its charge: not, and, or and iff (as the or of both
    ands) over the operands' subset simulations, exists by a projection,
    and a forall block by one projection per binder and a not. The
    operands are compiled as `compile_open` compiles them. Builds from
    empty caches, so the charge is a cold one."""
    clear_caches()
    comp = _Compiler(t, Budget(None))
    own = _xtuple(free_vars(phi))

    def operand(f):
        return comp.go(f), _xtuple(free_vars(f))

    def sim(f):
        return comp.sim(own, *operand(f))

    if isinstance(phi, Not):
        aut = comp.combine(own, Not(sim(phi.body)), "not")
    elif isinstance(phi, Exists):
        aut, _ = comp.project_vars((phi.var,), *operand(phi.body))
    elif isinstance(phi, Forall):
        binders, body = [], phi
        while isinstance(body, Forall):
            binders.append(body.var)
            body = body.body
        aut, xs = operand(Not(body))
        for var in reversed(binders):
            aut, xs = comp.project_vars((var,), aut, xs)
        aut = comp.combine(own, Not(comp.sim(own, aut, xs)), "not")
    elif isinstance(phi, Iff):
        l, r = phi.left, phi.right
        aut = comp.combine(own, Or(sim(And(l, r)), sim(And(Not(l), Not(r)))),
                           "combine")
    else:
        aut = comp.combine(own, type(phi)(sim(phi.left), sim(phi.right)),
                           "combine")
    if own != scope:
        aut = comp.combine(scope, comp.sim(scope, aut, own), "combine")
    return aut, comp.budget.used


def same_language(a, b, val):
    """L(a) == L(b) for automata inside L(val): neither meets the other's
    complement relative to val."""
    return not any(intersection_nonempty(x, functional_product(
        val, *_step_machine(Not(_SubsetSim(y))), Budget(None), "not"))
        for x, y in ((a, b), (b, a)))


def cold_open(phi, t, scope):
    """compile_open(phi, t, scope) from empty caches, and its charge."""
    clear_caches()
    budget = Budget(None)
    return compile_open(phi, t, scope, budget), budget.used


_F = Var("f", VarKind.EDGE)
_U = Var("u", VarKind.VERTEX)
_W = Var("w", VarKind.VERTEX)
STEP_MACHINES = {
    "adjacent": (Exists(_F, And(Inc(_X, _F), Inc(_Y, _F))), None),
    "adjacent_to_itself": (Exists(_F, And(Inc(_X, _F), Inc(_X, _F))), None),
    "not_isolated_in_vertex_scope": (Exists(_F, Inc(_X, _F)), (_X, _Y)),
    "not_isolated_in_set_scope": (Exists(_F, Inc(_X, _F)), (_X, _XS)),
    "not_isolated_in_edge_set_scope": (Exists(_F, Inc(_X, _F)), (_X, _ES)),
    "not_eq_vertex": (Not(VarEq(_X, _Y)), None),
    "not_eq_edge": (Not(VarEq(_F, _E)), None),
    "not_mem_vertex": (Not(MemV(_X, _XS)), None),
    "not_mem_edge": (Not(MemE(_F, _ES)), None),
    "not_inc": (Not(Inc(_X, _F)), None),
    "not_card_edge_set": (Not(Card(0, 2, _ES)), None),
    "not_card_vertex_set": (Not(Card(1, 2, _XS)), None),
    "psi_and_x_eq_x": (And(Exists(_F, Inc(_X, _F)), VarEq(_X, _X)), None),
    "x_eq_x_and_psi": (And(VarEq(_X, _X), MemV(_X, _XS)), None),
    # diam=1's body: one machine, where the generic path runs an "or"
    # machine and a subset construction
    "not_eq_or_adjacent": (Not(Or(VarEq(_U, _Y), Exists(_W, And(
        Exists(_F, And(Inc(_U, _F), Inc(_W, _F))), VarEq(_W, _Y))))), None),
    # operands over different scopes: {x, X} and {X}
    "mem_and_card": (And(MemV(_X, _XS), Card(0, 2, _XS)), None),
    "inc_or_not_mem": (Or(Inc(_X, _F), Not(MemE(_F, _ES))), None),
    "iff_of_atoms": (Iff(MemV(_X, _XS), Inc(_X, _F)), None),
}


@pytest.mark.parametrize("name", sorted(STEP_MACHINES))
def test_step_machine_matches_generic_path(name):
    # the step machine is right against the evaluator, accepts what the
    # generic path does at t=2, and charges less than it
    phi, scope = STEP_MACHINES[name]
    scope = _xtuple(scope or free_vars(phi))
    aut, used = cold_open(phi, 2, scope)
    check_open_against_eval(aut, phi, 2, scope)
    want, charged = generic(phi, 2, scope)
    assert same_language(aut, want, validity_automaton(2, scope))
    assert used < charged


def test_x_eq_x_stays_where_x_is_not_free_in_psi():
    # x = x asks for a vertex that psi does not flag: x stays in the scope
    # of the machine, which runs psi's steps alone over validity(x, X)
    phi = And(Card(1, 2, _XS), VarEq(_X, _X))
    scope = _xtuple(free_vars(phi))
    aut, used = cold_open(phi, 2, scope)
    check_open_against_eval(aut, phi, 2, scope)
    want, charged = generic(phi, 2, scope)
    assert to_json(aut) == to_json(want)
    assert used < charged


# forall x. P(x), P a pointwise atom that holds wherever x is unflagged,
# is pointwise over the outer scope
POINTWISE_FORALL = {
    "all_in_set": Forall(_X, MemV(_X, _XS)),
    "all_edges_in_set": Forall(_F, MemE(_F, _ES)),
    "all_edges_at_x": Forall(_F, Inc(_X, _F)),
}
# where P fails on an unflagged x, or is not pointwise in x
GENERIC_FORALL = {
    "all_equal_y": Forall(_X, VarEq(_X, _Y)),
    "x_at_every_vertex_of_e": Forall(_X, Inc(_X, _E)),
    "none_in_set": Forall(_X, Not(MemV(_X, _XS))),
}


@pytest.mark.parametrize("name", sorted(POINTWISE_FORALL))
def test_pointwise_forall_is_the_complement_path(name):
    # the same automaton, byte for byte, as the projection and the
    # complement build it, at a lower charge
    phi = POINTWISE_FORALL[name]
    scope = _xtuple(free_vars(phi))
    aut, used = cold_open(phi, 2, scope)
    check_open_against_eval(aut, phi, 2, scope)
    want, charged = generic(phi, 2, scope)
    assert to_json(aut) == to_json(want)
    assert used < charged


@pytest.mark.parametrize("name", sorted(GENERIC_FORALL))
def test_other_forall_keeps_the_complement_path(name):
    phi = GENERIC_FORALL[name]
    scope = _xtuple(free_vars(phi))
    aut, used = cold_open(phi, 2, scope)
    check_open_against_eval(aut, phi, 2, scope)
    want, charged = generic(phi, 2, scope)
    assert to_json(aut) == to_json(want)
    assert used == charged


def test_forall_block_projects_once():
    # three binders erased by one projection and one shrink: the same
    # automaton, byte for byte, as one projection and shrink per binder
    phi = Forall(_X, Forall(_F, Forall(_Y, Implies(
        And(Inc(_X, _F), Inc(_Y, _F)), Or(VarEq(_X, _Y), MemV(_X, _XS))))))
    scope = _xtuple(free_vars(phi))
    aut, used = cold_open(phi, 2, scope)
    check_open_against_eval(aut, phi, 2, scope)
    want, charged = generic(phi, 2, scope)
    assert to_json(aut) == to_json(want)
    assert used == charged


# SHA-256 of the canonical JSON of compile(phi, 3) as the generic kernels
# over (q, m) pair states built it: dense ids may not move a byte. And the
# charge of that compile, with each boolean combination of atoms one step
# machine and forall x. x in A and forall e. inc(x, e) pointwise: a scope
# with the edge variable of `adjacent`, a product per connective or a
# subset construction over an atom raises it, and with a complement that
# rejects the subsets holding a sure state (`_SubsetSim.sure`)
FORMULA_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "formulas"
PINNED_COMPILE = {
    "diam1": (lambda: gen_diam(1),
              "2015c9057c01fcb69b8c174a0384948681f8f8f93fb486b17eaf9439d7817d06",
              73454),
    "vc1": (lambda: gen_vertex_cover(1),
            "365916bb06b270062c6cf276e00dbb98e446ca666372cbd43289741695f0e22a",
            10157),
    "even_order": (lambda: parse((FORMULA_DIR / "even_order.cmso").read_text()),
                   "42ac45d860fde03ce9523348f1d97152bae1e0449b315b6568e668800075cf0b",
                   12741),
    "no_isolated_vertex": (
        lambda: parse((FORMULA_DIR / "no_isolated_vertex.cmso").read_text()),
        "6f20800f982a54d8ccaf8c48521ada749abfde9fb3adc3c1a7ad9c4e9285adac",
        17610),
}


# SHA-256 of the canonical JSON of compile(phi, 3) and its cold charge for
# sentences whose connectives, quantifier blocks and lifts run over
# compiled operands' subset simulations, as the three hand-written step
# sets of the former subset product built them; the charges are those of
# complements that reject the subsets holding a sure state, of one
# combine per implies or iff (no rewrite into or, and and not) and of one
# projection per exists block. x and z are vertex variables, y and f edge
# variables; _FAR is "x and z share no edge".
_VX, _VZ = Var("x", VarKind.VERTEX), Var("z", VarKind.VERTEX)
_EY = Var("y", VarKind.EDGE)
_FAR = Forall(_F, Not(And(Inc(_VX, _F), Inc(_VZ, _F))))
EXISTS_BLOCK = Exists(_VX, Exists(_VZ, Exists(_EY, And(
    Inc(_VX, _EY), Not(Inc(_VZ, _EY))))))
PINNED_COMBINE = {
    "and": (lambda: And(no_isolated_vertex(), even_order()),
            "017d0420517e0132dba1ff074bce1383deecc32eb6f53ea95bc82562b7e603c4",
            52309),
    "or": (lambda: Or(no_isolated_vertex(), gen_diam(1)),
           "cd51e50d6442f279e7f37fa9ce7dd54c3afc1bc1bea8d2ebf9d29f4e379fae2e",
           148296),
    "implies": (lambda: Implies(even_order(), no_isolated_vertex()),
                "8ba719fbc3e7cc5dbab5e4b58cebf947b4971d2f1069b2b5658a42aa36738250",
                99945),
    "iff": (lambda: Iff(no_isolated_vertex(), even_order()),
            "396cb7a9fff3cfb8a1bedfd83de7d4e2f430da5c14db17ed30a91b33e90ec58d",
            99945),
    "simple_graph": (
        simple_graph,
        "c1594f94fd5c1ab4e4778d341c3d7e621fe9b168cd921dfd2d5fa48c5aabf525",
        285636),
    # a vacuous first-order binder: the one-operand lift
    "lift": (lambda: Exists(_VX, no_isolated_vertex()),
             "c072af640d0c3eb389bb612695b9b81407d317d23908b9676f9327162a6a2774",
             56902),
    # an or, and an and, of an operand over {x} and one over {x, z}
    "or_erased": (
        lambda: Forall(_VX, Forall(_VZ, Or(Exists(_EY, Inc(_VX, _EY)), _FAR))),
        "3a4085c31349fe527d58babe48d54ad95ec13734d918e88473784d261164aa6d",
        518038),
    "and_erased": (
        lambda: Exists(_VX, Exists(_VZ, And(Exists(_EY, Inc(_VX, _EY)), _FAR))),
        "912b2046b3a16a31e6e318e354271963cf7491d34062d75120f48e482a9c7400",
        444683),
    # an implies of an operand over {x} and one over {x, z}
    "implies_erased": (
        lambda: Forall(_VX, Forall(_VZ, Implies(Exists(_EY, Inc(_VX, _EY)),
                                                _FAR))),
        "eaca2828783c0c94c1af0be95bb8ff28be73687e82a767822081760b4924bcf8",
        533250),
    # an exists block of three binders
    "exists_block": (
        lambda: EXISTS_BLOCK,
        "17e00c0f1835f4d47cd44a77d4a3dc57f7b4a201c942ddc1827a1e328da85ae4",
        256666),
    # an exists block with a vacuous set binder and a binder with an
    # equality partner, under a forall
    "eq_partner_block": (
        lambda: parse("forall v z. exists v x. exists vs A. exists v w. "
                      "(exists e y. inc(x, y) and inc(w, y)) and w = z"),
        "6f20800f982a54d8ccaf8c48521ada749abfde9fb3adc3c1a7ad9c4e9285adac",
        119884),
}


@pytest.mark.parametrize("name", sorted(PINNED_COMPILE) + sorted(PINNED_COMBINE))
def test_compiled_formula_pinned(name):
    make, digest, charged = {**PINNED_COMPILE, **PINNED_COMBINE}[name]
    clear_caches()  # a real build, not a cache hit
    budget = Budget(None)
    text = json.dumps(to_json(compile_formula(make(), 3, budget)),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert budget.used == charged


def test_each_connective_is_one_combine(monkeypatch):
    # or, implies and iff of the same two operands: each compiles both
    # operands and then runs one combine over their simulations, with no
    # complement of either, so all three charge the same cold
    module = sys.modules[_Compiler.__module__]
    real = module.functional_product
    runs = {}
    for connective in (Or, Implies, Iff):
        stages = []

        def recording(*args, stages=stages):
            stages.append(args[-1])
            return real(*args)

        clear_caches()
        budget = Budget(None)
        with monkeypatch.context() as patch:
            patch.setattr(module, "functional_product", recording)
            compile_formula(connective(even_order(), no_isolated_vertex()), 3,
                            budget)
        runs[connective] = (stages, budget.used)
    assert runs[Or] == runs[Implies] == runs[Iff]
    stages, charged = runs[Or]
    assert stages.count("combine") == 1
    assert charged == 99945


def test_exists_block_projects_once(monkeypatch):
    # the block's three binders are erased by one projection; the other
    # is the sentence's erasure to the plain bag alphabet
    module = sys.modules[_Compiler.__module__]
    real = module.project
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(module, "project", counting)
        compile_formula(EXISTS_BLOCK, 3, Budget(None))
    assert len(calls) == 2


# SHA-256 of the canonical JSON of validity_automaton(3, xs) and its
# charge, for every scope that compile(phi, 3) asked for with the four
# benchmark formulas before atom-shaped subformulas ran as step machines,
# as the tuple states (B, vflags, closed, eseen) built them: numbering the
# states may not move a byte
PINNED_VALIDITY = {
    (): ("fcc48a53307e8affad3320d58c0c136b1add77c635df628077a9a7c8fcef0a6f",
         1022),
    (("_q0", "v"),): (
        "2cbc911f80a7a62dc0e944d9dbc30073a69665603b801f1e2cd2f8087470666e",
        5917),
    (("_q1", "v"),): (
        "6b137c415505c1fc10b34915cbf0e2624a25fc3ddf74cbce96d2e28c1a498db7",
        5917),
    (("_q0", "vs"),): (
        "a9427235edd2ae2399bff52f6caea779914c67fe46caf9deb8a689433799284d",
        8919),
    (("_q0", "v"), ("_q1", "e")): (
        "d3de9db523749ef96aeb9810cc4933c9eedd08c3dc27f8ebbf3f5911b0965eff",
        19722),
    (("_q0", "v"), ("_q3", "e")): (
        "519bfe520cb3777f663135065a7513ef06d02108bc9038db7e25cdf1ae577e9b",
        19722),
    (("_q1", "v"), ("_q3", "e")): (
        "9b3e8a438cdf2076ef2bb74f94427dce2389861d72ffb98d9660fd0746315f5e",
        19722),
    (("_q0", "v"), ("_q1", "v")): (
        "0f276fbe5dcc374fa555324d1a866c207498a73cf2b95f6d2dda24b4adb623f4",
        35151),
    (("_q0", "vs"), ("_q1", "v")): (
        "93069442e565141e88acfa6b9a7c596172bfd4509c456c9b38587a5c72f85269",
        55652),
    (("_q0", "v"), ("_q1", "v"), ("_q3", "e")): (
        "2c02ddd983ce51ebf154aaabeea85e981c33704f9247b18aa7d8d67a24e87f78",
        117994),
}


# the scopes compile(phi, 3) asks validity for today: neither the edge
# variable of `adjacent` nor the v = v conjunct that substituting diam=1's
# w = v leaves gets one, nor the bound x of forall x. x in A or the bound
# e of forall e. inc(x, e)
COMPILE_SCOPES = {
    (),
    (("_q0", "v"),),
    (("_q0", "vs"),),
    (("_q0", "v"), ("_q1", "v")),
}


def test_pinned_validity_scopes_are_those_compile_asks_for(monkeypatch):
    asked = set()

    def recording(t, xs, budget=None):
        asked.add(tuple((v.name, v.kind.value) for v in xs))
        return validity_automaton(t, xs, budget)

    monkeypatch.setattr(sys.modules[validity_automaton.__module__],
                        "validity_automaton", recording)
    for make, _digest, _charged in PINNED_COMPILE.values():
        clear_caches()
        compile_formula(make(), 3)
    assert asked == COMPILE_SCOPES
    assert COMPILE_SCOPES <= set(PINNED_VALIDITY)


@pytest.mark.parametrize("scope", sorted(PINNED_VALIDITY), ids=lambda scope: (
    "-".join(f"{name}:{kind}" for name, kind in scope) or "none"))
def test_validity_automaton_pinned(scope):
    digest, charged = PINNED_VALIDITY[scope]
    xs = tuple(Var(name, VarKind(kind)) for name, kind in scope)
    clear_caches()
    budget = Budget(None)
    aut = validity_automaton(3, xs, budget)
    text = json.dumps(to_json(aut), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert budget.used == charged
    # numbered in discovery order, and trim drops none of them
    assert aut.states == tuple(range(len(aut.states)))


def test_compile_memory_bounded():
    # a cold compile of no_isolated_vertex at 3 labels traces about 14 MB
    # when the validity states, the product's rule index and the cached
    # subsets are ints and shared objects; one tuple or frozenset per
    # transition or cache entry breaks the bound
    make, _digest, _charged = PINNED_COMPILE["no_isolated_vertex"]
    phi = make()
    clear_caches()
    tracemalloc.start()
    try:
        compile_formula(phi, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


# Sentences with a vacuous binder. A first-order one is lifted: the body
# goes into a scope with the bound variable (a one-operand "and") before
# the projection. A set one is dropped, the body compiled alone.
VACUOUS = [
    "exists v x. true",
    "forall v x. exists vs A. exists e y. inc(x, y)",
    "exists e y. exists v x. true",
    "forall e y. false",
]

# SHA-256 of the canonical JSON of compile(phi, 3) and its charge. The
# digests are those the unrolled one-operand steps built; the two set
# binders charge what their body forall v x. exists e y. inc(x, y) does,
# with not exists e y. inc(x, y) run as incidence steps over validity(x).
PINNED_LIFT = {
    VACUOUS[0]: (
        "d1dee6811f6820f4bc3d8c54e317a341d4e62df7d69aa9ccdb926da4944ca11a",
        12856),
    VACUOUS[1]: (
        "6f20800f982a54d8ccaf8c48521ada749abfde9fb3adc3c1a7ad9c4e9285adac",
        17610),
    "forall vs A. forall v x. exists e y. inc(x, y)": (
        "6f20800f982a54d8ccaf8c48521ada749abfde9fb3adc3c1a7ad9c4e9285adac",
        17610),
}


@pytest.mark.parametrize("text", sorted(PINNED_LIFT))
def test_vacuous_binder_pinned(text):
    digest, charged = PINNED_LIFT[text]
    clear_caches()
    budget = Budget(None)
    dump = json.dumps(to_json(compile_formula(parse(text), 3, budget)),
                      sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    assert budget.used == charged


# A vacuous set binder compiles to exactly what its body does alone,
# also inside a forall block and next to a first-order binder that stays
EVEN = "exists vs a. (forall v x. x in a) and card(2, 0, a)"
NO_ISOLATED = "forall v x. exists e y. inc(x, y)"
SET_BINDER_DROPPED = [
    ("exists vs A. true", "true"),
    ("forall vs A. true", "true"),
    ("exists es B. false", "false"),
    ("forall es B. false", "false"),
    (f"forall vs A. forall es B. {EVEN}", EVEN),
    (f"exists es B. {NO_ISOLATED}", NO_ISOLATED),
    ("forall v x. forall es B. exists e y. inc(x, y)", NO_ISOLATED),
]


@pytest.mark.parametrize("text,body", SET_BINDER_DROPPED)
def test_vacuous_set_binder_compiles_to_its_body(text, body):
    def dump(text):
        clear_caches()
        budget = Budget(None)
        aut = compile_formula(parse(text), 3, budget)
        return json.dumps(to_json(aut), sort_keys=True), budget.used

    assert dump(text) == dump(body)


def test_vacuous_binders_agree_with_evaluator():
    terms = terms_upto(2, 2)
    terms += random.Random(20261018).sample(terms_upto(2, 3), 400)
    for text in VACUOUS:
        check_agreement(parse(text), 2, terms)
