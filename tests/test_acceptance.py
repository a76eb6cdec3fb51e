"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a single summary line; pytest -v shows one PASSED/FAILED
row per criterion. Scales that had to be trimmed to fit the stated time
envelopes are spelled out in comments next to the trimming.
"""

import json
import random
import time

from supertw.all_decomps import build_all_decompositions
from supertw.cmso.ast import And, Not, Or
from supertw.cmso.compile import compile as compile_formula
from supertw.cmso.evaluate import eval_direct
from supertw.cmso.generators import (even_order, gen_diam, gen_vertex_cover,
                                     no_isolated_vertex, some_vertex)
from supertw.decomp import (bag_alphabet, decode_graph, decomposition_to_json,
                            enumerate_sub_decompositions, encode, width)
from supertw.graph import Graph, embeds_as_subgraph, graph_to_json
from supertw.oracle import (SupergraphBudget, exact_treewidth,
                            optimal_decomposition, search_supergraph)
from supertw.solver import clear_caches, has_supergraph, witness_supergraph
from supertw.subdecomp import sub_closure
from supertw.terms import enumerate_terms, term
from supertw.tree_automata import extract_witness, run
from supertw.tree_automata import to_json as automaton_to_json
from supertw.util import Budget
from corpus import (all_subgraphs, bull, complete, connected_small_corpus,
                    cycle, diamond, grid_2x3, is_isomorphic, multi_edge, path,
                    paw, single_vertex, star, tautology)
from reference_decomps import build_count_automaton

SOLVER_BUDGET = 10 ** 8


class _TermPool:
    """All depth<=3 terms over B(2) and their decoded graphs, built once
    and dropped after the last criterion that needs them."""

    def __init__(self):
        self.terms = None
        self.decoded = None

    def get(self):
        if self.terms is None:
            self.terms = list(enumerate_terms(bag_alphabet(2), 3))
            self.decoded = [decode_graph(tm) for tm in self.terms]
        return self.terms, self.decoded

    def drop(self):
        self.terms = None
        self.decoded = None


POOL = _TermPool()


def accepted(aut, tm, cache):
    return bool(run(aut, tm, cache) & aut.final)


# --- criterion 1: encode/decode round trip ------------------------------

def tw2_corpus_50():
    """50 distinct connected graphs, <= 6 vertices, treewidth <= 2."""
    graphs = [single_vertex(), path(2), path(3), path(4), path(5), path(6),
              cycle(3), cycle(4), cycle(5), cycle(6),
              star(1), star(2), star(3), star(4), star(5),
              complete(3), paw(), bull(), diamond(), grid_2x3(),
              multi_edge(2), multi_edge(3)]
    rng = random.Random(2026)

    def key_of(g):
        ends = sorted(tuple(sorted(map(str, g.ends[e]))) for e in g.edges)
        return (len(g.vertices), len(g.edges), tuple(ends))

    keys = {key_of(g) for g in graphs}
    while len(graphs) < 50:
        n = rng.randint(2, 6)
        edges = {}
        for i in range(1, n):
            edges[f"e{len(edges)}"] = (rng.randrange(i), i)  # random tree
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(n), 2)
            edges[f"e{len(edges)}"] = (u, v)
        g = Graph(range(n), edges)
        if exact_treewidth(g) > 2:
            continue
        key = key_of(g)
        if key in keys:
            continue
        keys.add(key)
        graphs.append(g)
    return graphs


def test_criterion_1_encode_decode_round_trip():
    t0 = time.time()
    graphs = tw2_corpus_50()
    assert len(graphs) == 50
    for g in graphs:
        tw, td = optimal_decomposition(g)
        assert tw <= 2
        tm = encode(g, td, tw + 1)
        assert is_isomorphic(decode_graph(tm), g) is not None, g
    dt = time.time() - t0
    assert dt < 10
    print(f"criterion 1: PASS (50 graphs round-tripped in {dt:.1f}s)")


# --- criterion 2: sub-decompositions vs subgraphs -----------------------

def graph_key(g):
    return (frozenset(g.vertices),
            frozenset((e, g.ends[e]) for e in g.edges))


def test_criterion_2_subdecompositions_match_subgraphs():
    t0 = time.time()
    alphabet = bag_alphabet(2)
    rng = random.Random(42)
    checked = 0
    while checked < 20:
        syms = [alphabet[rng.randrange(len(alphabet))] for _ in range(3)]
        if rng.random() < 0.5:
            sup = term(syms[0], term(syms[1], term(syms[2])))
        else:
            sup = term(syms[0], term(syms[1]), term(syms[2]))
        decoded = {graph_key(decode_graph(s))
                   for s in enumerate_sub_decompositions(sup)}
        subgraphs = {graph_key(h) for h in all_subgraphs(decode_graph(sup))}
        assert decoded == subgraphs, repr(sup)
        checked += 1
    dt = time.time() - t0
    assert dt < 30
    print(f"criterion 2: PASS (20 terms, both inclusions, {dt:.1f}s)")


# --- criterion 3: Sub(A) vs brute force ---------------------------------

def random_automaton(rng, t, n_states):
    from supertw.tree_automata import TreeAutomaton
    alphabet = bag_alphabet(t)
    states = list(range(n_states))
    trs = []
    for sym in alphabet:
        for q in states:
            if rng.random() < 0.45:
                trs.append(((), sym, q))
            if rng.random() < 0.3:
                trs.append(((rng.choice(states),), sym, q))
            if rng.random() < 0.2:
                trs.append(((rng.choice(states), rng.choice(states)), sym, q))
    final = rng.sample(states, rng.randint(1, max(1, n_states // 2)))
    return TreeAutomaton(alphabet, states, final, trs)


def test_criterion_3_sub_closure_matches_brute_force():
    t0 = time.time()
    terms, _ = POOL.get()
    for seed in range(1, 21):
        rng = random.Random(seed)
        aut = random_automaton(rng, 2, 4)
        closed = sub_closure(aut)
        want = set()
        cache = {}
        for tm in terms:
            if accepted(aut, tm, cache):
                want.update(enumerate_sub_decompositions(tm))
        ccache = {}
        for tm in terms:
            assert accepted(closed, tm, ccache) == (tm in want), (seed, tm)
    dt = time.time() - t0
    assert dt < 120
    print(f"criterion 3: PASS (20 automata, depth<=3 exact, {dt:.1f}s)")


# --- criterion 4: compiler vs direct evaluator --------------------------

CRITERION4 = [
    ("some_vertex", some_vertex()),
    ("no_isolated", no_isolated_vertex()),
    ("even_order", even_order()),
    ("diam1", gen_diam(1)),
    ("diam2", gen_diam(2)),
    ("vc1", gen_vertex_cover(1)),
]


def random_terms(alphabet, rng, count, max_depth):
    out = []
    seen = set()

    def gen(depth):
        sym = alphabet[rng.randrange(len(alphabet))]
        if depth == 1:
            return term(sym)
        arity = rng.choice((0, 1, 2))
        if arity == 0:
            return term(sym)
        return term(sym, *[gen(depth - 1) for _ in range(arity)])

    while len(out) < count:
        tm = gen(max_depth)
        if tm not in seen:
            seen.add(tm)
            out.append(tm)
    return out


def test_criterion_4_compiler_agrees_with_evaluator():
    t0 = time.time()
    terms, decoded = POOL.get()
    t1terms = list(enumerate_terms(bag_alphabet(1), 3))
    t1decoded = [decode_graph(tm) for tm in t1terms]
    for name, phi in CRITERION4:
        aut1 = compile_formula(phi, 1)
        c1 = {}
        for tm, g in zip(t1terms, t1decoded):
            assert accepted(aut1, tm, c1) == eval_direct(phi, g), (name, tm)
        aut2 = compile_formula(phi, 2)
        c2 = {}
        for tm, g in zip(terms, decoded):
            assert accepted(aut2, tm, c2) == eval_direct(phi, g), (name, tm)

    # t = 3: the full depth<=3 space has ~1.2e8 terms, far beyond the
    # five-minute budget, so take a seeded sample; diam2 is excluded at
    # three labels (its minimal automaton is too large to determinize
    # within any stated budget; see the decision ledger)
    rng = random.Random(31337)
    sample = random_terms(bag_alphabet(3), rng, 1200, 3)
    sdec = [decode_graph(tm) for tm in sample]
    for name, phi in CRITERION4:
        if name == "diam2":
            continue
        aut3 = compile_formula(phi, 3)
        c3 = {}
        for tm, g in zip(sample, sdec):
            assert accepted(aut3, tm, c3) == eval_direct(phi, g), (name, tm)

    # negation flip and De Morgan over the exhaustive t=2 space
    phi = no_isolated_vertex()
    pos, neg = compile_formula(phi, 2), compile_formula(Not(phi), 2)
    ca, cb = {}, {}
    for tm in terms:
        assert accepted(pos, tm, ca) != accepted(neg, tm, cb)
    a, b = some_vertex(), even_order()
    left = compile_formula(Not(And(a, b)), 2)
    right = compile_formula(Or(Not(a), Not(b)), 2)
    ca, cb = {}, {}
    for tm in terms:
        assert accepted(left, tm, ca) == accepted(right, tm, cb)
    dt = time.time() - t0
    assert dt < 5 * 60 * len(CRITERION4)
    print(f"criterion 4: PASS (6 formulas, t<=2 exhaustive + t=3 sampled, {dt:.1f}s)")


# --- criterion 5: A(G,t) exactness ---------------------------------------

def accepted_sample(aut, cap):
    choice = {}
    changed = True
    while changed:
        changed = False
        for ch, sym, q in aut.transitions:
            if q not in choice and all(c in choice for c in ch):
                choice[q] = term(sym, *[choice[c] for c in ch])
                changed = True
    out = []
    for ch, sym, q in aut.transitions:
        if q in aut.final and all(c in choice for c in ch):
            out.append(term(sym, *[choice[c] for c in ch]))
            if len(out) == cap:
                break
    return out


def test_criterion_5_decompositions_automaton_exact():
    t0 = time.time()
    corpus = connected_small_corpus() + [("K4", complete(4))]
    terms, decoded = POOL.get()
    for name, g in corpus:
        tw, td = optimal_decomposition(g)
        for t in (1, 2, 3):
            aut = build_all_decompositions(g, t, Budget(SOLVER_BUDGET))
            # (a) accepted terms decode isomorphically to G
            wit = extract_witness(aut)
            if wit is not None:
                assert is_isomorphic(decode_graph(wit), g) is not None, (name, t)
            for tm in accepted_sample(aut, 200):
                assert is_isomorphic(decode_graph(tm), g) is not None, (name, t)
            if t == 2:
                cache = {}
                for tm, dg in zip(terms, decoded):
                    if accepted(aut, tm, cache):
                        assert is_isomorphic(dg, g) is not None, (name, tm)
            # (b) every encodable decomposition is accepted
            if tw + 1 <= t:
                assert accepted(aut, encode(g, td, t), {}), (name, t)
            # witness existence matches the width bound
            assert (wit is not None) == (tw + 1 <= t), (name, t)
    # (c) K_3 at 2 labels: empty language
    assert extract_witness(build_all_decompositions(complete(3), 2)) is None
    dt = time.time() - t0
    assert dt < 300
    print(f"criterion 5: PASS ({len(corpus)} graphs x t<=3, {dt:.1f}s)")


# --- criterion 6: counting automaton -------------------------------------

def test_criterion_6_count_automaton_exact():
    t0 = time.time()
    terms, decoded = POOL.get()
    t1terms = list(enumerate_terms(bag_alphabet(1), 3))
    t1counts = [len(decode_graph(tm).vertices) for tm in t1terms]
    counts = [len(g.vertices) for g in decoded]
    for n in range(5):
        aut1 = build_count_automaton(1, n)
        c1 = {}
        for tm, k in zip(t1terms, t1counts):
            assert accepted(aut1, tm, c1) == (k == n), (n, tm)
        aut2 = build_count_automaton(2, n)
        c2 = {}
        for tm, k in zip(terms, counts):
            assert accepted(aut2, tm, c2) == (k == n), (n, tm)
    POOL.drop()
    dt = time.time() - t0
    assert dt < 60
    print(f"criterion 6: PASS (t<=2, n<=4, depth<=3 exact, {dt:.1f}s)")


# --- criterion 7: golden verdicts ----------------------------------------

def verify_witness(g, phi, t, w):
    assert eval_direct(phi, w.graph)
    assert exact_treewidth(w.graph) <= t
    assert embeds_as_subgraph(g, w.graph) is not None
    assert width(w.decomposition) <= t
    assert is_isomorphic(decode_graph(w.decomposition), w.graph) is not None


def test_criterion_7_golden_verdicts():
    t0 = time.time()
    budget = SupergraphBudget(3, 6)
    diam1 = gen_diam(1)

    v = has_supergraph(single_vertex(), tautology(), 1)
    assert v.answer
    assert search_supergraph(single_vertex(), tautology(), 1, budget) is not None

    v = has_supergraph(path(3), diam1, 2, want_witness=True)
    assert v.answer
    verify_witness(path(3), diam1, 2, v.witness)
    assert search_supergraph(path(3), diam1, 2, budget) is not None

    v = has_supergraph(path(4), diam1, 2)
    assert not v.answer
    assert search_supergraph(path(4), diam1, 2, budget) is None

    v = has_supergraph(path(4), diam1, 3, budget=Budget(SOLVER_BUDGET))
    assert v.answer
    assert search_supergraph(path(4), diam1, 3, budget) is not None

    dt = time.time() - t0
    assert dt < 600
    print(f"criterion 7: PASS (4 verdicts + oracle cross-checks, {dt:.1f}s)")


# --- criterion 8: oracle agreement sweep ----------------------------------

def sweep_instances():
    sv, ni, eo = some_vertex(), no_isolated_vertex(), even_order()
    d1, d2, vc1 = gen_diam(1), gen_diam(2), gen_vertex_cover(1)
    # diam2 appears only at t=1 (two labels): at three labels its
    # compiled automaton exceeds every stated budget (decision ledger)
    return [
        ("K1 some_vertex t1", single_vertex(), sv, 1),
        ("K1 even_order t1", single_vertex(), eo, 1),
        ("K1 no_isolated t1", single_vertex(), ni, 1),
        ("P2 diam1 t1", path(2), d1, 1),
        ("P3 diam1 t1", path(3), d1, 1),
        ("P3 diam2 t1", path(3), d2, 1),
        ("P4 diam2 t1", path(4), d2, 1),
        ("P5 diam2 t1", path(5), d2, 1),
        ("C3 even_order t1", cycle(3), eo, 1),
        ("C4 some_vertex t1", cycle(4), sv, 1),
        ("star3 diam2 t1", star(3), d2, 1),
        ("multi2 diam1 t1", multi_edge(2), d1, 1),
        ("P2 vc1 t1", path(2), vc1, 1),
        ("P4 vc1 t1", path(4), vc1, 1),
        ("P3 no_isolated t1", path(3), ni, 1),
        ("P3 even_order t1", path(3), eo, 1),
        ("C5 diam2 t1", cycle(5), d2, 1),
        ("paw some_vertex t1", paw(), sv, 1),
        ("P4 diam1 t2", path(4), d1, 2),
        ("P3 diam1 t2", path(3), d1, 2),
        ("C4 diam1 t2", cycle(4), d1, 2),
        ("C4 even_order t2", cycle(4), eo, 2),
        ("C4 vc1 t2", cycle(4), vc1, 2),
        ("C5 even_order t2", cycle(5), eo, 2),
        ("star3 diam1 t2", star(3), d1, 2),
        ("paw even_order t2", paw(), eo, 2),
        ("bull no_isolated t2", bull(), ni, 2),
        ("multi2 even_order t2", multi_edge(2), eo, 2),
        ("P5 vc1 t2", path(5), vc1, 2),
        ("K1 diam1 t2", single_vertex(), d1, 2),
    ]


def test_criterion_8_oracle_agreement_sweep():
    t0 = time.time()
    instances = sweep_instances()
    assert len(instances) == 30
    budget = SupergraphBudget(3, 6)
    yes = no = 0
    for name, g, phi, t in instances:
        verdict = has_supergraph(g, phi, t, budget=Budget(SOLVER_BUDGET),
                                 want_witness=True)
        found = search_supergraph(g, phi, t, budget)
        if found is not None:
            assert verdict.answer, f"oracle found a supergraph but solver said NO: {name}"
        if verdict.answer:
            yes += 1
            verify_witness(g, phi, t, verdict.witness)
        else:
            no += 1
            assert found is None, name
    dt = time.time() - t0
    assert dt < 20 * 60
    print(f"criterion 8: PASS (30 instances, {yes} YES / {no} NO, {dt:.1f}s)")


# --- criterion 9: determinism ---------------------------------------------

def test_criterion_9_determinism():
    t0 = time.time()
    dumps = []
    for _ in range(2):
        clear_caches()
        phi_aut = compile_formula(no_isolated_vertex(), 2)
        closed = sub_closure(phi_aut)
        a_g = build_all_decompositions(path(3), 2)
        wit = witness_supergraph(path(3), gen_diam(1), 2)
        dumps.append((
            json.dumps(automaton_to_json(phi_aut), sort_keys=True),
            json.dumps(automaton_to_json(closed), sort_keys=True),
            json.dumps(automaton_to_json(a_g), sort_keys=True),
            json.dumps(graph_to_json(wit[0]), sort_keys=True),
            json.dumps(decomposition_to_json(wit[1]), sort_keys=True),
        ))
    assert dumps[0] == dumps[1]
    dt = time.time() - t0
    print(f"criterion 9: PASS (byte-identical stage dumps, {dt:.1f}s)")
