"""End-to-end solver behavior at small scale.

The expensive golden (P4 at treewidth 3) and the full oracle agreement
sweep live in test_acceptance; everything here runs at 2-3 bag labels.
"""

import gc
import hashlib
import json
import random

import pytest

from supertw.cmso.ast import Inc, Var, VarKind
from supertw.cmso.evaluate import eval_direct
from supertw.cmso.generators import (even_order, gen_diam, gen_vertex_cover,
                                     no_isolated_vertex, simple_graph)
from supertw.cmso.compile import compile as compile_formula
from supertw.decomp import bag_alphabet, decode_graph, width
from supertw.errors import (CmsoKindError, NotConnectedError,
                            ResourceExceededError)
from supertw.graph import Graph, embeds_as_subgraph
from supertw.oracle import SupergraphBudget, exact_treewidth, search_supergraph
from supertw import solver
from supertw.solver import (clear_caches, has_supergraph, lift_to_pairs,
                            preset_formula, simple_automaton, solve_named,
                            witness_supergraph)
from supertw.subdecomp import pair_alphabet
from supertw.terms import enumerate_terms, map_symbols
from supertw.tree_automata import TreeAutomaton, accepts, to_json
from supertw.util import Budget, ChargedCache
from corpus import (collections_inside, cycle, is_isomorphic, path,
                    single_vertex, star, tautology)

DIAM1 = gen_diam(1)


def test_single_vertex_is_its_own_supergraph():
    verdict = has_supergraph(single_vertex(), tautology(), 1)
    assert verdict.answer
    assert verdict.stats["answer"] is True


def test_p3_diam1_yes_with_verified_witness():
    verdict = has_supergraph(path(3), DIAM1, 2, want_witness=True)
    assert verdict.answer
    w = verdict.witness
    assert eval_direct(DIAM1, w.graph)
    assert exact_treewidth(w.graph) <= 2
    assert embeds_as_subgraph(path(3), w.graph) is not None
    assert width(w.decomposition) <= 2
    assert is_isomorphic(decode_graph(w.decomposition), w.graph) is not None
    # the embedding really maps edges onto edges
    ends = {frozenset(w.graph.ends[e]) for e in w.graph.edges}
    g = path(3)
    for e in g.edges:
        u, v = g.ends[e]
        assert frozenset((w.embedding[u], w.embedding[v])) in ends


def test_p4_diam1_no_at_treewidth_2():
    assert not has_supergraph(path(4), DIAM1, 2).answer


def test_witness_supergraph_endpoints():
    got = witness_supergraph(path(3), DIAM1, 2)
    assert got is not None
    graph, decomp = got
    assert eval_direct(DIAM1, graph)
    assert width(decomp) <= 2
    assert witness_supergraph(path(4), DIAM1, 2) is None


def test_monotone_in_t():
    answers = [has_supergraph(path(3), DIAM1, t).answer for t in (1, 2)]
    assert answers == [False, True]


def test_self_supergraph_cases():
    assert has_supergraph(cycle(4), even_order(), 2).answer
    assert has_supergraph(path(3), no_isolated_vertex(), 1).answer


def test_stats_serialize():
    verdict = has_supergraph(path(3), DIAM1, 2, want_witness=True)
    blob = json.dumps(verdict.to_json(), sort_keys=True)
    assert "decompositions" in blob and "emptiness" in blob


# --- named presets ------------------------------------------------------

def test_preset_formula_validation():
    with pytest.raises(ValueError):
        preset_formula({"girth": 3})
    with pytest.raises(ValueError):
        preset_formula({"diam": 1, "vertex_cover": 1})


def test_solve_named_diam_matches_plain_solver():
    yes = solve_named(path(3), {"diam": 1}, 2, want_witness=True)
    assert yes.answer
    assert eval_direct(simple_graph(), yes.witness.graph)
    assert not solve_named(path(4), {"diam": 1}, 2).answer


def test_solve_named_vertex_cover():
    # vertex cover is monotone under subgraphs, so P4 (cover 2) has no
    # cover-1 supergraph at any width; P3 already has cover 1
    verdict = solve_named(path(4), {"vertex_cover": 1}, 2)
    assert not verdict.answer
    oracle = search_supergraph(path(4), gen_vertex_cover(1), 2,
                               SupergraphBudget(2, 4))
    assert oracle is None
    assert solve_named(path(3), {"vertex_cover": 1}, 1).answer


# --- preconditions and budgets ------------------------------------------

def test_open_formula_rejected():
    x = Var("x", VarKind.VERTEX)
    y = Var("y", VarKind.EDGE)
    with pytest.raises(CmsoKindError):
        has_supergraph(path(3), Inc(x, y), 2)


def test_bad_width_rejected():
    with pytest.raises(ValueError):
        has_supergraph(path(3), DIAM1, 0)


def test_disconnected_rejected():
    with pytest.raises(NotConnectedError):
        has_supergraph(Graph([0, 1], {}), DIAM1, 2)


def test_budget_exceeded_propagates():
    clear_caches()
    try:
        with pytest.raises(ResourceExceededError):
            has_supergraph(path(3), DIAM1, 2, budget=Budget(50))
    finally:
        clear_caches()


def test_warm_solve_answers_to_budget():
    g, phi, t = path(3), no_isolated_vertex(), 1
    clear_caches()
    cold = Budget(None)
    has_supergraph(g, phi, t, budget=cold, want_witness=True)
    cost = cold.used
    for small in (10, cost - 1):
        with pytest.raises(ResourceExceededError):
            has_supergraph(g, phi, t, budget=Budget(small), want_witness=True)
    warm = Budget(cost)
    verdict = has_supergraph(g, phi, t, budget=warm, want_witness=True)
    assert verdict.answer
    assert 0 < warm.used < cost and warm.used + warm.cached == cost
    assert verdict.stats["compile"]["cached"]
    assert verdict.stats["sub_closure"]["cached"]
    clear_caches()
    with pytest.raises(ResourceExceededError):
        has_supergraph(g, phi, t, budget=Budget(cost - 1), want_witness=True)


def test_compile_cache_hit_reported():
    g, phi, t = path(3), no_isolated_vertex(), 1
    clear_caches()
    compile_formula(phi, t + 1)
    stats = has_supergraph(g, phi, t).stats
    assert stats["compile"]["cached"] is True
    assert stats["sub_closure"]["cached"] is False


def test_each_cache_is_fetched_once_per_automaton(monkeypatch):
    # the closure reads the automaton the solve already holds, and the
    # formula automaton alone lives only in the compiler's cache
    fetches = []
    fetch = ChargedCache.fetch

    def counting(cache, key, budget, make):
        value, hit = fetch(cache, key, budget, make)
        fetches.append((cache.name, hit))
        return value, hit

    monkeypatch.setattr(ChargedCache, "fetch", counting)
    clear_caches()
    assert solve_named(path(3), {"diam": 1}, 2).answer
    assert [hit for name, hit in fetches if name == "phi"] == [False]
    clear_caches()
    fetches.clear()
    assert has_supergraph(path(3), no_isolated_vertex(), 1).answer
    assert [name for name, _ in fetches if name == "phi"] == []
    assert not solver._PHI_CACHE._entries


def test_stage_charges_sum_to_budget_used():
    g, phi, t = path(3), no_isolated_vertex(), 1
    clear_caches()
    budget = Budget(None)
    stats = has_supergraph(g, phi, t, budget=budget).stats
    stages = ("compile", "sub_closure", "decompositions", "emptiness")
    assert all(stats[s]["charged"] > 0 for s in stages)
    assert sum(stats[s]["charged"] for s in stages) == budget.used
    # warm caches charge nothing to used, and the stages say so
    budget = Budget(None)
    stats = has_supergraph(g, phi, t, budget=budget).stats
    assert stats["compile"]["charged"] == stats["sub_closure"]["charged"] == 0
    assert sum(stats[s]["charged"] for s in stages) == budget.used > 0
    # a witness solve adds the paired closure, the paired product and the
    # re-check; the paired closure is built on the first and cached after
    stages += ("sub_closure_paired", "paired_product", "verify")
    for cached in (False, True):
        budget = Budget(None)
        stats = has_supergraph(g, phi, t, budget=budget, want_witness=True).stats
        assert stats["sub_closure_paired"]["cached"] is cached
        assert (stats["sub_closure_paired"]["charged"] > 0) is not cached
        assert stats["sub_closure_paired"]["states"] > 0
        assert stats["verify"]["charged"] == 0 and stats["verify"]["seconds"] >= 0
        assert sum(stats[s]["charged"] for s in stages) == budget.used > 0


# --- simplicity automaton ------------------------------------------------

@pytest.mark.parametrize("t", [1, 2])
def test_simple_automaton_matches_compiled_formula(t):
    hand = simple_automaton(t)
    compiled = compile_formula(simple_graph(), t)
    for tm in enumerate_terms(bag_alphabet(t), 3):
        assert accepts(hand, tm) == accepts(compiled, tm), repr(tm)


# (states, transitions, SHA-256 of the sorted-key to_json) per label count,
# as the hand-written exploration loop built them: the simplicity automaton
# enters every solve_named product, so its state order may not move
SIMPLE_PINS = {
    1: (1, 6, "be06b292f05f3f5568bc5a6174588d84dc4905a79eb3b6b84cda6c4555291084"),
    2: (2, 30, "f119a08f80b572b1a8487ac1d71d72aabb414ef768441f06d4068b37b96b9b03"),
    3: (8, 604, "ab2add35e7b20e82031f068452e10e760388271df657ec84283d761850345ec3"),
    4: (64, 62899, "d04d237ad4e57f6211a84d3ac3d0ee32615d854421308ae8ea2413801a7d6764"),
}


@pytest.mark.parametrize("t", sorted(SIMPLE_PINS))
def test_simple_automaton_pinned(t):
    states, transitions, digest = SIMPLE_PINS[t]
    aut = simple_automaton(t)
    assert (len(aut.states), aut.n_transitions) == (states, transitions)
    text = json.dumps(to_json(aut), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# cold charge and witness SHA-256 of two preset witness solves at t=2
PRESET_WITNESS_PINS = {
    "P3 diam=1": (path(3), {"diam": 1}, 105811,
                  "77f7688a57ea2ad01b78d5c0a04c7dc2eab497fe495b18bf3cf7fe1368c950aa"),
    "K1,3 vertex_cover=1": (star(3), {"vertex_cover": 1}, 248702,
                            "e114c59b112f81c8b4fabd0366618725d44f53b91f356bc862bb4743378d136f"),
}


@pytest.mark.parametrize("name", sorted(PRESET_WITNESS_PINS))
def test_preset_witness_pinned(name):
    g, preset, charged, digest = PRESET_WITNESS_PINS[name]
    clear_caches()
    budget = Budget(None)
    verdict = solve_named(g, preset, 2, budget=budget, want_witness=True)
    assert verdict.answer and budget.used == charged
    text = json.dumps(verdict.witness.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_preset_witness_answers_to_its_exact_cost():
    g, preset, charged, digest = PRESET_WITNESS_PINS["P3 diam=1"]
    clear_caches()
    verdict = solve_named(g, preset, 2, budget=Budget(charged), want_witness=True)
    text = json.dumps(verdict.witness.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    clear_caches()
    with pytest.raises(ResourceExceededError):
        solve_named(g, preset, 2, budget=Budget(charged - 1), want_witness=True)


def test_warm_witness_reads_a_prefix_of_the_paired_product():
    """no_isolated_vertex on P3x2 at t=2, warm after a P2 witness solve as
    the `warm_witness` benchmark workload runs it: the witness SHA-256 the
    whole paired product gave, from under half its 145 591 transitions."""
    phi = no_isolated_vertex()
    clear_caches()
    has_supergraph(path(2), phi, 2, want_witness=True)
    g = Graph(range(3), {"e0": (0, 1), "e1": (0, 1), "e2": (1, 2)})
    verdict = has_supergraph(g, phi, 2, want_witness=True)
    text = json.dumps(verdict.witness.to_json(), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "77521e0c1be70e447c414690b2800c66fd367d249ad5dd3353bbf5fe729413dc")
    assert verdict.stats["paired_product"]["transitions"] < 145591 // 2


def test_simple_automaton_matches_compiled_formula_three_labels():
    hand = simple_automaton(3)
    compiled = compile_formula(simple_graph(), 3)
    terms = list(enumerate_terms(bag_alphabet(3), 2))
    rng = random.Random(4711)
    for tm in rng.sample(terms, 500):
        assert accepts(hand, tm) == accepts(compiled, tm), repr(tm)


# --- pair lifting --------------------------------------------------------

def test_lift_to_pairs_reads_first_projection():
    base = compile_formula(even_order(), 2)
    lifted = lift_to_pairs(base, 2)
    assert lifted.alphabet == pair_alphabet(2)
    for ptm in enumerate_terms(pair_alphabet(2), 2):
        sub = map_symbols(lambda p: p.sub, ptm)
        assert accepts(lifted, ptm) == accepts(base, sub)


# --- determinism ----------------------------------------------------------

def test_witness_is_reproducible():
    first = witness_supergraph(path(3), DIAM1, 2)
    clear_caches()
    second = witness_supergraph(path(3), DIAM1, 2)
    assert first[1] == second[1]
    g1, g2 = first[0], second[0]
    assert sorted(g1.vertices) == sorted(g2.vertices)
    assert {e: g1.ends[e] for e in g1.edges} == {e: g2.ends[e] for e in g2.edges}


# --- collector pause --------------------------------------------------------

def test_solve_restores_the_collector():
    assert gc.isenabled()
    assert witness_supergraph(path(3), DIAM1, 2) is not None
    assert gc.isenabled()
    assert not has_supergraph(path(4), DIAM1, 2).answer
    assert gc.isenabled()
    clear_caches()
    try:
        with pytest.raises(ResourceExceededError):
            has_supergraph(cycle(4), DIAM1, 2, budget=Budget(5000))
        assert gc.isenabled()
    finally:
        clear_caches()


def test_solve_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        assert has_supergraph(path(3), DIAM1, 2).answer
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_cold_solve_runs_no_collection():
    clear_caches()
    assert collections_inside(
        solver._decide,
        lambda: witness_supergraph(path(3), DIAM1, 2)) == []


def test_paused_solve_leaves_little_cyclic_garbage():
    # the pause rests on the pipeline's objects being acyclic: a cycle
    # left per transition would grow memory unchecked during a solve
    clear_caches()
    gc.collect()
    collected = []

    def on_gc(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.callbacks.append(on_gc)
    try:
        witness_supergraph(path(3), DIAM1, 2)
        gc.collect()
    finally:
        gc.callbacks.remove(on_gc)
    assert sum(collected) < 1000
