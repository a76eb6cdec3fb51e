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
from collections import Counter, deque
from pathlib import Path

import pytest

from supertw.cmso.ast import (And, Card, Exists, Forall, Inc, MemV, Not, Or,
                              Var, VarEq, VarKind)
from supertw.cmso.compile import (_COMPILE_CACHE, _SubsetSim, _atom_steps,
                                  compile as compile_formula, compile_open,
                                  functional_product, interpreted_alphabet,
                                  subtract_on_validity, validity_automaton)
from supertw.cmso.evaluate import eval_direct
from supertw.cmso.generators import (even_order, gen_diam, gen_vertex_cover,
                                     no_isolated_vertex, some_vertex,
                                     tautology)
from supertw.cmso.parser import parse
from supertw.decomp import bag_alphabet, decode_graph, s_maximal_components
from supertw.errors import CmsoKindError, ResourceExceededError
from supertw.solver import clear_caches
from supertw.terms import enumerate_terms, map_symbols
from supertw.tree_automata import (TreeAutomaton, accepts, intersect,
                                   reduce_bisim, to_json, trim)
from supertw.util import Budget
from corpus import collections_inside
from test_tree_automata import intersect_reference

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


def test_compile_open_agrees_with_assignment_eval():
    x = Var("x", VarKind.VERTEX)
    y = Var("y", VarKind.EDGE)
    phi = Exists(y, Inc(x, y))  # "x is not isolated", x free
    t = 2
    aut = compile_open(phi, t, (x,))
    valid = validity_automaton(t, (x,))
    for tm in enumerate_terms(interpreted_alphabet(t, (x,)), 2):
        got = accepts(aut, tm)
        if not accepts(valid, tm):
            assert not got
            continue
        plain = map_symbols(lambda s: s.bag, tm)
        g = decode_graph(plain)
        flags = flag_positions(tm, x)
        value = None
        for s in {s for _p, s in flags}:
            for root, members in s_maximal_components(plain, s):
                if {(p, s) for p in members} == flags:
                    value = (s, root)
        assert value is not None
        assert got == eval_direct(phi, g, {x: value})


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
    atom = functional_product(val, *_atom_steps(phi), new, "atom")
    want = functional_product_reference(val, *_atom_steps(phi), ref, "atom")
    assert to_json(atom) == to_json(want)
    assert new.used == ref.used == len(atom.transitions)
    # the complement, as negation runs it: subset states of the reduced atom
    other = reduce_bisim(trim(atom))
    sim = _SubsetSim(other)
    new, ref = Budget(None), Budget(None)
    got = subtract_on_validity(val, other, new)
    want = functional_product_reference(
        val, lambda sym: (sim.leaf(sym),),
        lambda m, sym: (sim.unary(m[0], sym),),
        lambda m1, m2, sym: (sim.binary(m1[0], m2[0], sym),),
        lambda m: not sim.hit(m[0]), ref, "not")
    assert to_json(got) == to_json(want)
    assert new.used == ref.used


def _binary_emits(kernel, *args):
    """Run kernel(*args), counting the calls of its `emit` closure that
    make a binary transition, keyed by their arguments (children ids,
    symbol position, then the target's components)."""
    emit = next(c for c in kernel.__code__.co_consts
                if getattr(c, "co_name", None) == "emit")
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is emit:
            got = frame.f_locals
            if len(got["children"]) == 2:
                calls[tuple(got[v] for v in emit.co_varnames[:emit.co_argcount])] += 1

    sys.setprofile(profile)
    try:
        out = kernel(*args)
    finally:
        sys.setprofile(None)
    return out, calls


@pytest.mark.parametrize("name", sorted(ATOMS))
def test_product_meets_each_pair_once(name):
    # functional_product: binary_f sees each (left id, right id, rule) once.
    # The functional side's state m and the base state name a product
    # state, so the reference's (q, m) states give the meetings expected.
    phi, xs = ATOMS[name]
    val = validity_automaton(2, xs)
    leaf_f, unary_f, binary_f, final_f = _atom_steps(phi)
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
    # intersect: each binary emit (children, symbol, target pair) once,
    # here on the atom against its reduced copy and a random automaton
    rng = random.Random(name)
    other = reduce_bisim(trim(got))
    noise = TreeAutomaton.raw(val.alphabet, range(3), [0, 1], sorted(
        {(ch, sym, rng.randrange(3)) for ch in ((), (0,), (1,), (0, 1), (2, 2))
         for sym in rng.sample(val.alphabet, 4)}, key=repr))
    for a, b in ((got, other), (other, got), (got, noise)):
        new, ref = Budget(None), Budget(None)
        prod, emits = _binary_emits(intersect, a, b, new)
        assert to_json(prod) == to_json(intersect_reference(a, b, ref))
        assert new.used == ref.used
        assert emits and max(emits.values()) == 1


# SHA-256 of the canonical JSON of compile(phi, 3) as the generic kernels
# over (q, m) pair states built it: dense ids may not move a byte
FORMULA_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "formulas"
PINNED_COMPILE = {
    "diam1": (lambda: gen_diam(1),
              "2015c9057c01fcb69b8c174a0384948681f8f8f93fb486b17eaf9439d7817d06"),
    "vc1": (lambda: gen_vertex_cover(1),
            "365916bb06b270062c6cf276e00dbb98e446ca666372cbd43289741695f0e22a"),
    "even_order": (lambda: parse((FORMULA_DIR / "even_order.cmso").read_text()),
                   "42ac45d860fde03ce9523348f1d97152bae1e0449b315b6568e668800075cf0b"),
    "no_isolated_vertex": (
        lambda: parse((FORMULA_DIR / "no_isolated_vertex.cmso").read_text()),
        "6f20800f982a54d8ccaf8c48521ada749abfde9fb3adc3c1a7ad9c4e9285adac"),
}


@pytest.mark.parametrize("name", sorted(PINNED_COMPILE))
def test_compiled_formula_pinned(name):
    make, digest = PINNED_COMPILE[name]
    clear_caches()  # a real build, not a cache hit
    text = json.dumps(to_json(compile_formula(make(), 3)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
