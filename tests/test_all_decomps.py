"""The decompositions-of-G automaton, its building blocks, and the
paper's reference construction that it fuses (`reference_decomps`).

Ground truths used here, all independent of the construction under test:
decode_graph + is_isomorphic for the language of build_all_decompositions,
s_maximal_components counting for the count automaton, and a checker that
spells out the five local compatibility conditions straight from their
definition for the enriched automaton.
"""

import hashlib
import json
from itertools import permutations

import pytest

from supertw.all_decomps import (DecompMachine, build_all_decompositions,
                                 materialize)
from supertw.decomp import (TDNode, bag, bag_alphabet, decode_graph, encode,
                            labels_of, s_maximal_components)
from supertw.errors import (InvalidBagError, NotConnectedError,
                            ResourceExceededError)
from supertw.graph import Graph
from supertw.terms import enumerate_terms, map_symbols, term
from supertw.tree_automata import (TreeAutomaton, accepts, extract_witness,
                                   intersect, to_json)
from supertw.util import Budget
from corpus import (complete, connected_small_corpus, cycle, is_isomorphic,
                    multi_edge, path, paw, single_vertex, star)
from reference_decomps import (GtBag, build_count_automaton,
                               build_gt_automaton, is_gt_compatible)

K2 = path(2)


def k2_root_bag(rho=(1, 2)):
    return GtBag((1, 2), (1, 2), {1: 0, 2: 1}, {1: ("e0",), 2: ("e0",)},
                 ("e0",), rho)


# --- GtBag invariants --------------------------------------------------

def test_gtbag_requires_injective_nu():
    with pytest.raises(InvalidBagError):
        GtBag((1, 2), (), {1: 0, 2: 0}, {1: (), 2: ()}, (), ())


def test_gtbag_couples_y_and_b():
    with pytest.raises(InvalidBagError):
        GtBag((1, 2), (1, 2), {1: 0, 2: 1}, {1: ("e0",), 2: ("e0",)}, (), ())
    with pytest.raises(InvalidBagError):
        GtBag((1,), (), {1: 0}, {1: ()}, ("e0",), ())


def test_gtbag_y_accounted_in_eta():
    with pytest.raises(InvalidBagError):
        GtBag((1, 2), (1, 2), {1: 0, 2: 1}, {1: (), 2: ()}, ("e0",), ())


# --- local compatibility -----------------------------------------------

def test_leaf_isolated_vertex_compatible():
    g = single_vertex()
    closed = GtBag((1,), (), {1: 0}, {1: ()}, (), (1,))
    open_ = GtBag((1,), (), {1: 0}, {1: ()}, (), ())
    assert is_gt_compatible((), closed, g)
    assert is_gt_compatible((), open_, g)


def test_leaf_realizing_the_k2_edge_compatible():
    assert is_gt_compatible((), k2_root_bag(), K2)


def test_leaf_eta_without_realization_incompatible():
    # eta accounts an edge no position below (or here) realized
    bad = GtBag((1,), (), {1: 0}, {1: ("e0",)}, (), ())
    assert not is_gt_compatible((), bad, K2)


def test_nu_disagreement_across_arc_incompatible():
    child = GtBag((1,), (), {1: 0}, {1: ()}, (), ())
    parent = GtBag((1,), (), {1: 1}, {1: ()}, (), ())
    assert not is_gt_compatible((child,), parent, K2)


def test_silent_component_death_incompatible():
    # child keeps label 1 with an incomplete component; parent drops it
    child = GtBag((1,), (), {1: 0}, {1: ()}, (), ())
    parent = GtBag((2,), (), {2: 1}, {2: ()}, (), ())
    assert not is_gt_compatible((child,), parent, K2)


# --- the enriched automaton --------------------------------------------

def test_gt_automaton_accepts_the_k2_single_bag():
    ahat = build_gt_automaton(K2, 2)
    assert accepts(ahat, term(k2_root_bag()))
    # without the root marking the component is not complete at the root
    assert not accepts(ahat, term(k2_root_bag(rho=())))


def spelled_out_conditions(tm, g):
    """C1-C5 from their definition, checked at every position of tm."""
    inc = {v: frozenset(g.incident_edges(v)) for v in g.vertices}
    root = True
    stack = [tm]
    while stack:
        node = stack.pop()
        x = node.symbol
        kids = [c.symbol for c in node.children]
        stack.extend(node.children)
        # C5: completeness at the root; deaths announced on every arc
        if root and x.rho != x.B:
            return False
        root = False
        for k in kids:
            for s in k.B:
                if (s in k.rho) != (s not in x.B):
                    return False
            # C1: shared labels name the same vertex
            for s in k.B & x.B:
                if k.nu[s] != x.nu[s]:
                    return False
        # C2: realized edge matches the flagged endpoints
        if x.b:
            (e,) = x.y
            s1, s2 = sorted(x.b)
            if g.ends[e] != frozenset((x.nu[s1], x.nu[s2])):
                return False
        # C3: eta is the disjoint union of the children's eta plus y
        for s in x.B:
            parts = [x.y if s in x.b else frozenset()]
            parts += [k.eta[s] for k in kids if s in k.B]
            union = frozenset().union(*parts)
            if sum(len(p) for p in parts) != len(union):
                return False
            if x.eta[s] != union or not union <= inc[x.nu[s]]:
                return False
        # C4: a complete component accounts every incident edge
        for s in x.rho:
            if x.eta[s] != inc[x.nu[s]]:
                return False
    return True


def accepted_sample(aut, cap):
    """Deterministic sample of accepted terms: one witness per state, then
    every transition into a final state instantiated with those witnesses."""
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


def test_gt_accepted_terms_satisfy_the_definition():
    g = path(3)
    ahat = build_gt_automaton(g, 3)
    sample = accepted_sample(ahat, 1500)
    assert sample
    for tm in sample:
        assert spelled_out_conditions(tm, g), repr(tm)


def test_condition_checker_catches_mutations():
    tm = term(k2_root_bag())
    assert spelled_out_conditions(tm, K2)
    assert not spelled_out_conditions(term(k2_root_bag(rho=(1,))), K2)
    swapped = GtBag((1, 2), (1, 2), {1: 1, 2: 0}, {1: ("e0",), 2: ("e0",)},
                    ("e0",), (1, 2))
    # swapped nu still realizes the same edge; stacking it over the
    # original breaks C1
    stacked = term(swapped, term(k2_root_bag(rho=())))
    assert not spelled_out_conditions(stacked, K2)


# --- the counting automaton --------------------------------------------

def decoded_vertices(tm):
    return sum(len(list(s_maximal_components(tm, s))) for s in labels_of(tm))


def test_count_spec_examples_one_label():
    one = build_count_automaton(1, 1)
    assert accepts(one, term(bag((1,))))
    assert accepts(one, term(bag((1,)), term(bag((1,)))))
    assert not accepts(one, term(bag(())))
    two = build_count_automaton(1, 2)
    assert accepts(two, term(bag((1,)), term(bag(()), term(bag((1,))))))


@pytest.mark.parametrize("n", range(4))
def test_count_matches_decode_oracle(n):
    for t in (1, 2):
        aut = build_count_automaton(t, n)
        for tm in enumerate_terms(bag_alphabet(t), 2):
            assert accepts(aut, tm) == (decoded_vertices(tm) == n), repr(tm)


# --- the composed construction equals the fused one ---------------------

def composed(g, t):
    ahat = build_gt_automaton(g, t)
    projected = TreeAutomaton(
        bag_alphabet(t), ahat.states, ahat.final,
        [(ch, sym.project(), q) for ch, sym, q in ahat.transitions])
    return intersect(projected, build_count_automaton(t, len(g.vertices)))


@pytest.mark.parametrize("g", [path(2), path(3), multi_edge(2)])
def test_fused_equals_projection_and_count(g):
    fused = build_all_decompositions(g, 2)
    comp = composed(g, 2)
    for tm in enumerate_terms(bag_alphabet(2), 2):
        assert accepts(fused, tm) == accepts(comp, tm), repr(tm)


# --- the language of build_all_decompositions ---------------------------

def test_accepted_terms_decode_to_k2():
    aut = build_all_decompositions(K2, 2)
    hits = 0
    for tm in enumerate_terms(bag_alphabet(2), 2):
        if accepts(aut, tm):
            hits += 1
            assert is_isomorphic(decode_graph(tm), K2) is not None
    assert hits > 0


def test_parallel_edges_decode_back():
    g = multi_edge(2)
    aut = build_all_decompositions(g, 2)
    wit = extract_witness(aut)
    assert wit is not None
    assert is_isomorphic(decode_graph(wit), g) is not None
    # the simple K2 must not be accepted for the doubled graph
    assert not accepts(aut, term(bag((1, 2), (1, 2))))


def test_encoded_decompositions_accepted():
    cases = [
        (path(3), TDNode(frozenset((0, 1)), [TDNode(frozenset((1, 2)))]), 2),
        (star(3), TDNode(frozenset((0, 1)), [
            TDNode(frozenset((0, 2))), TDNode(frozenset((0, 3)))]), 2),
        (cycle(3), TDNode(frozenset((0, 1, 2))), 3),
    ]
    for g, td, t in cases:
        aut = build_all_decompositions(g, t)
        assert accepts(aut, encode(g, td, t)), g


def test_k3_needs_three_labels():
    assert extract_witness(build_all_decompositions(complete(3), 2)) is None
    assert extract_witness(build_all_decompositions(complete(3), 3)) is not None


def test_disconnected_input_rejected():
    with pytest.raises(NotConnectedError):
        build_all_decompositions(Graph([0, 1], {}), 2)


# --- the pairing index and the per-bag-set step change nothing ---------

def edge_bits(g):
    return {(v, e): 1 << i for v in g.vertices
            for i, e in enumerate(g.incident_edges(v))}


def cut_reference(g, live, B):
    """Survivors and deaths of live labels under B, or None when a dropped
    label has unrealized incidence."""
    kept = []
    deaths = 0
    for s, v, mask in live:
        if s in B:
            kept.append((s, v, mask))
        elif mask == (1 << len(g.incident_edges(v))) - 1:
            deaths += 1
        else:
            return None
    return tuple(kept), deaths


def step_reference(g, children, sym, bit):
    """All states the machine may enter reading one symbol over child
    states, one symbol at a time and with its own cut and packing, so it
    shares no step code with DecompMachine. `bit` is edge_bits(g)."""
    B = sym.B
    merged = {}
    closed = 0
    for state in children:
        cut = cut_reference(g, state[0], B)
        if cut is None:
            return []
        kept, deaths = cut
        closed += state[1] + deaths
        for s, v, mask in kept:
            if s in merged:
                v0, m0 = merged[s]
                if v0 != v or m0 & mask:
                    return []
                merged[s] = (v, m0 | mask)
            else:
                merged[s] = (v, mask)
    if closed + len(B) > len(g.vertices):
        return []
    used = set()
    for s, (v, _) in merged.items():
        if v in used:
            return []
        used.add(v)
    fresh = sorted(B - set(merged))
    free = [v for v in g.vertices if v not in used]
    out = []
    for vs in permutations(free, len(fresh)):
        nu = dict(merged)
        for s, v in zip(fresh, vs):
            nu[s] = (v, 0)
        if sym.b:
            s1, s2 = sorted(sym.b)
            (u, m1), (w, m2) = nu[s1], nu[s2]
            for e in g.incident_edges(u):
                if g.ends[e] != frozenset((u, w)):
                    continue
                b1, b2 = bit[(u, e)], bit[(w, e)]
                if m1 & b1 or m2 & b2:
                    continue
                nu2 = dict(nu)
                nu2[s1] = (u, m1 | b1)
                nu2[s2] = (w, m2 | b2)
                out.append(pack_reference(nu2, closed))
        else:
            out.append(pack_reference(nu, closed))
    return out


def pack_reference(nu, closed):
    return (tuple((s, v, m) for s, (v, m) in sorted(nu.items())), closed)


def all_pairs_reference(g, t, budget):
    """Reachability trying every (state, earlier state, symbol) triple with
    step_reference: the construction `materialize` must reproduce exactly."""
    machine = DecompMachine(g, t)
    bit = edge_bits(g)
    known, order, transitions = {}, [], {}

    def discover(children, sym):
        for q in step_reference(g, children, sym, bit):
            tr = (children, sym, q)
            if tr not in transitions:
                transitions[tr] = None
                budget.spend(1, "decompositions-of-g")
            if q not in known:
                known[q] = None
                order.append(q)

    for sym in machine.alphabet:
        discover((), sym)
    frontier = 0
    while frontier < len(order):
        q = order[frontier]
        frontier += 1
        for sym in machine.alphabet:
            discover((q,), sym)
            for other in order[:frontier]:
                discover((q, other), sym)
                if other is not q:
                    discover((other, q), sym)
    final = [q for q in order if machine.is_final(q)]
    return order, final, list(transitions)


# 3 labels stay cheap for the reference up to 3 vertices
@pytest.mark.parametrize("t,max_vertices", [(2, 5), (3, 3)])
def test_pairing_index_matches_all_pairs(t, max_vertices):
    for name, g in connected_small_corpus():
        if len(g.vertices) > max_vertices:
            continue
        ref_budget, new_budget = Budget(None), Budget(None)
        order, final, transitions = all_pairs_reference(g, t, ref_budget)
        aut, states = materialize(DecompMachine(g, t), new_budget)
        assert states == order, name
        # the automaton numbers each state by its discovery position
        at = {q: i for i, q in enumerate(order)}
        assert aut.states == tuple(range(len(order))), name
        assert aut.final == frozenset(at[q] for q in final), name
        assert list(aut.transitions) == [
            (tuple(at[c] for c in ch), sym, at[q])
            for ch, sym, q in transitions], name
        assert new_budget.used == ref_budget.used == len(transitions), name


@pytest.mark.parametrize("t,max_vertices", [(2, 5), (3, 3)])
def test_bag_set_step_matches_reference_in_both_orders(t, max_vertices):
    for name, g in connected_small_corpus():
        if len(g.vertices) > max_vertices:
            continue
        machine = DecompMachine(g, t)
        bit = edge_bits(g)

        def stepped(children, B):
            got = [list(ts) for ts in machine.step_bag_set(children, B)]
            want = [step_reference(g, children, sym, bit)
                    for sym in machine.bag_sets[B]]
            assert got == want, (name, children, sorted(B))
            return got

        assert [sym for syms in machine.bag_sets.values()
                for sym in syms] == list(machine.alphabet)
        _, states = materialize(machine, Budget(None))
        for B in machine.bag_sets:
            stepped((), B)
            for i, q in enumerate(states):
                stepped((q,), B)
                for other in states[:i]:
                    assert stepped((q, other), B) == stepped((other, q), B), \
                        (name, q, other, sorted(B))
                stepped((q, q), B)


def test_budget_exhausts_inside_decompositions():
    with pytest.raises(ResourceExceededError) as err:
        build_all_decompositions(cycle(4), 3, Budget(5000))
    assert err.value.stage == "decompositions-of-g"
    assert err.value.count == 5001


# SHA-256 of the canonical JSON of build_all_decompositions(g, 3) as the
# all-pairs construction builds it: the pairing index may not move a byte
PINNED = {
    "P3": (path(3), "26b316f8f2bf0e280712de4eef88206380ef6b03f3fe384b2f9a06a2972be80f"),
    "multi3": (multi_edge(3), "3226435a40377588799800d8199a7f4e580dacba86390465b6a6e5f05779ab4c"),
    "K3": (complete(3), "ded01dbd54ace9bd26203ac98fb8212c429747b814e236f0b26c67173888c674"),
    "C4": (cycle(4), "5776d9f70048a76b4bd218bfec709306fdb046f168f57acb1878bf314576b594"),
    "paw": (paw(), "cc9524b1dab99d292e4b2e2cfe845d0cd2a7d6cae3bb451fa60601734cb43730"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_decompositions_automaton_pinned(name):
    g, digest = PINNED[name]
    text = json.dumps(to_json(build_all_decompositions(g, 3)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
