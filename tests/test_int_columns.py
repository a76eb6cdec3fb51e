"""Int columns are the transition store of `TreeAutomaton`.

An automaton rebuilt from its (children, symbol, target) tuples, and one
whose states are relabelled to strings, must give the same dump, trim,
reduction, runs and witness as the column-built original; the kernels
must not build the original's tuple view. The witness path and the
compiler's final complement never decode what they drop."""

import importlib
import tracemalloc

import pytest

from supertw import solver
from supertw.all_decomps import build_all_decompositions
from supertw.cmso.compile import compile as compile_formula, validity_automaton
from supertw.cmso.generators import gen_diam, no_isolated_vertex
from supertw.cmso.ast import Var, VarKind
from supertw.graph import Graph
from supertw.subdecomp import pair_alphabet, sub_closure, sub_closure_paired
from supertw.terms import enumerate_terms
from supertw.tree_automata import (TreeAutomaton, extract_witness, intersect,
                                   reduce_bisim, run, to_json, trim)
from supertw.util import Budget
from corpus import connected_small_corpus, make_automaton

compile_mod = importlib.import_module("supertw.cmso.compile")


def from_tuples(aut):
    return TreeAutomaton.raw(aut.alphabet, aut.states, aut.final, aut.transitions)


def relabelled(aut):
    """aut over the states "q0".."q{n-1}", built from tuples."""
    name = {q: f"q{i}" for i, q in enumerate(aut.states)}
    return TreeAutomaton.raw(
        aut.alphabet, [name[q] for q in aut.states], [name[q] for q in aut.final],
        [(tuple(name[c] for c in ch), sym, name[q]) for ch, sym, q in aut.transitions])


def parts(aut):
    return aut.alphabet, aut.states, aut.final, aut.transitions


def copy_of(aut):
    """A column-built copy of aut that has never built its tuple view."""
    return TreeAutomaton.from_columns(aut.alphabet, aut.states, aut.final_ids,
                                      aut.columns)


def sample_terms(aut, limit=400):
    """Terms of depth <= 2 over the first symbols of the alphabet, plus
    the witness, if any, and its subterms."""
    terms = []
    for tm in enumerate_terms(aut.alphabet[:6], 2):
        terms.append(tm)
        if len(terms) == limit:
            break
    w = extract_witness(copy_of(aut))
    stack = [w] if w is not None else []
    while stack:
        tm = stack.pop()
        terms.append(tm)
        stack.extend(tm.children)
    return terms


def same_everywhere(aut):
    """aut (built from columns), its tuple rebuild and its string-state
    relabelling agree on every kernel; aut never decodes."""
    fresh = copy_of(aut)
    for kernel in (to_json, trim, reduce_bisim, extract_witness):
        kernel(fresh)
    for tm in sample_terms(aut):
        run(fresh, tm)
    assert fresh._trs is None
    cols = copy_of(aut)
    tup = from_tuples(aut)
    rel = relabelled(aut)
    assert tup.columns == cols.columns == rel.columns
    assert to_json(cols) == to_json(tup) == to_json(rel)
    trimmed = trim(cols)
    assert parts(trimmed) == parts(trim(tup))
    assert to_json(trimmed) == to_json(trim(rel))
    reduced = reduce_bisim(cols)
    assert parts(reduced) == parts(reduce_bisim(tup)) == parts(reduce_bisim(rel))
    witness = extract_witness(cols)
    assert witness == extract_witness(tup) == extract_witness(rel)
    name = {q: f"q{i}" for i, q in enumerate(aut.states)}
    caches = ({}, {}, {})
    for tm in sample_terms(aut):
        got = run(cols, tm, caches[0])
        assert got == run(tup, tm, caches[1])
        assert {name[q] for q in got} == run(rel, tm, caches[2])
    assert aut.n_transitions == len(aut.transitions) == len(tup.transitions)


def test_hand_built_automata():
    # string states, unary and binary rules, a state nothing reaches
    auts = [make_automaton(["a", "b"], ["z"], [((), "a", "x"), (("x",), "b", "y"),
                                              (("y", "x"), "a", "z"), (("w",), "a", "z")]),
            make_automaton(["a"], [], [((), "a", 0)]),
            TreeAutomaton(["a"], [], [], [])]
    for aut in auts:
        same_everywhere(aut)


@pytest.mark.parametrize("name", [name for name, _ in connected_small_corpus()])
def test_decompositions_of_corpus_graphs(name):
    g = dict(connected_small_corpus())[name]
    a_g = build_all_decompositions(g, 2)
    same_everywhere(a_g)
    same_everywhere(solver.lift_to_pairs(a_g, 2))


def test_pipeline_automata():
    x = Var("x", VarKind.VERTEX)
    phi = no_isolated_vertex()
    sentence = compile_formula(phi, 2, Budget(None))
    auts = [validity_automaton(2, (x,)), sentence, solver.simple_automaton(2),
            sub_closure(sentence), sub_closure_paired(sentence)]
    g = Graph(range(3), {"e0": (0, 1), "e1": (1, 2)})
    lifted = solver.lift_to_pairs(build_all_decompositions(g, 2), 2)
    auts.append(intersect(lifted, reduce_bisim(sub_closure_paired(sentence))))
    for aut in auts:
        same_everywhere(aut)


def test_the_constructors_agree():
    # the validating constructor sorts; raw keeps the order it is given
    trs = [(("x", "y"), "a", "z"), ((), "b", "y"), (("y",), "a", "x"), ((), "a", "x")]
    aut = TreeAutomaton(["b", "a"], ["z", "y", "x"], ["z"], trs)
    # by (left, right, symbol, target) positions, -1 for no child
    assert aut.transitions == (((), "a", "x"), ((), "b", "y"),
                               (("x", "y"), "a", "z"), (("y",), "a", "x"))
    raw = TreeAutomaton.raw(aut.alphabet, aut.states, aut.final, trs)
    assert raw.transitions == tuple(trs)
    assert raw.n_transitions == aut.n_transitions == 4
    assert list(aut.columns[0]) == [-1, -1, 0, 1]  # x, y and z are 0, 1, 2
    assert repr(aut) == "TreeAutomaton(|Q|=3, |F|=1, |Δ|=4, |Σ|=2)"


# --- the witness path builds no tuples ------------------------------------

def test_paired_product_and_extraction_stay_small():
    """The P3x2 paired product and its witness for no_isolated_vertex at
    t=2 (3 labels), as `warm_witness` solves it after its warm-up on P2,
    in under 6 MB; the product's tuple view is never built."""
    phi = no_isolated_vertex()
    sp = solver._sub_automaton(phi, 3, False, True, Budget(None))[0]

    def lifted_decompositions(edges):
        g = Graph(range(1 + max(map(max, edges))),
                  {f"e{i}": e for i, e in enumerate(edges)})
        return solver.lift_to_pairs(build_all_decompositions(g, 3), 3)

    # the warm-up's product builds the join groups of the cached closure
    intersect(lifted_decompositions([(0, 1)]), sp, Budget(None))
    lifted = lifted_decompositions([(0, 1), (0, 1), (1, 2)])
    assert lifted.alphabet == pair_alphabet(3)
    tracemalloc.start()
    try:
        prod = intersect(lifted, sp, Budget(None))
        witness = extract_witness(prod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is not None
    assert prod.n_transitions > 100_000
    assert prod._trs is None and sp._trs is None and lifted._trs is None
    assert peak <= 6 * 2 ** 20, peak
    # the same witness as from the product rebuilt from its tuples
    assert extract_witness(from_tuples(prod)) == witness


# --- the final complement decodes only what trim keeps --------------------

def test_final_complement_decodes_only_what_trim_keeps(monkeypatch):
    products, decoded = [], []
    functional_product = compile_mod.functional_product

    def recording(*args):
        out = functional_product(*args)
        products.append((args[-1], out))
        return out

    view = TreeAutomaton.transitions

    def counting(aut):
        if aut._trs is None:
            decoded.append(aut.n_transitions)
        return view.fget(aut)

    monkeypatch.setattr(compile_mod, "functional_product", recording)
    monkeypatch.setattr(TreeAutomaton, "transitions", property(counting))
    solver.clear_caches()
    try:
        compile_formula(gen_diam(1), 3, Budget(None))
    finally:
        solver.clear_caches()
    stage, last = products[-1]
    assert stage == "not"
    kept = trim(last)
    # the complement rejects every subset that holds a sure state, and
    # those are all its dead states: trim drops nothing
    assert (last.n_transitions, kept.n_transitions) == (1_978, 1_978)
    assert last._trs is None
    assert sum(decoded) <= kept.n_transitions
    assert to_json(last) == to_json(kept)
