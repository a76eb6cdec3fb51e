import random

import pytest

from corpus import (all_subgraphs, complete, cycle, is_isomorphic, multi_edge,
                    path, single_vertex, spider)
from supertw.decomp import (ConcreteBag, TDNode, bag, bag_alphabet,
                            decode_graph, decomposition_from_json,
                            decomposition_to_json,
                            encode, enumerate_sub_decompositions,
                            is_sub_decomposition, is_valid_decomposition,
                            s_maximal_components, sub_bags, td_width, width)
from supertw.errors import InvalidBagError, InvalidDecompositionError
from supertw.graph import Graph
from supertw.oracle import optimal_decomposition
from supertw.terms import term


def test_bag_validation():
    with pytest.raises(InvalidBagError):
        bag({1}, {1})
    with pytest.raises(InvalidBagError):
        bag({1, 2, 3}, {1, 2, 3})
    with pytest.raises(InvalidBagError):
        bag({1}, {1, 2})
    assert bag({1, 2}, {1, 2}).b == frozenset({1, 2})


def test_bag_alphabet_sizes():
    # t=2: (∅), ({1}), ({2}), ({1,2}) with b ∈ {∅, {1,2}} -> 5 symbols
    assert len(bag_alphabet(2)) == 5
    # t=3: 1 + 3 + 3*2 + 1*(1+3) = 14
    assert len(bag_alphabet(3)) == 14
    for t in (1, 2, 3, 4):
        alpha = bag_alphabet(t)
        assert len(set(alpha)) == len(alpha)
        assert len(alpha) <= t * t * 2 ** t + 1


def k2_term():
    return term(bag({1, 2}, {1, 2}))


def c3_term():
    return term(bag({1, 2}, {1, 2}),
                term(bag({1, 2, 3}, {2, 3}),
                     term(bag({1, 3}, {1, 3}))))


def test_s_maximal_components():
    t = term(bag({1}), term(bag(()), term(bag({1}))))
    comps = s_maximal_components(t, 1)
    assert comps == [("", frozenset({""})), ("11", frozenset({"11"}))]
    comps3 = s_maximal_components(c3_term(), 1)
    assert comps3 == [("", frozenset({"", "1", "11"}))]


def test_decode_k2():
    g = decode_graph(k2_term())
    assert len(g.vertices) == 2 and len(g.edges) == 1
    assert is_isomorphic(g, path(2)) is not None


def test_decode_single_vertex_and_empty():
    g = decode_graph(term(bag({1})))
    assert len(g.vertices) == 1 and not g.edges
    g0 = decode_graph(term(bag(())))
    assert not g0.vertices and not g0.edges


def test_decode_c3():
    g = decode_graph(c3_term())
    assert is_isomorphic(g, cycle(3)) is not None
    assert width(c3_term()) == 2


def test_decode_two_vertices_no_edge():
    t = term(bag({1}), term(bag(()), term(bag({1}))))
    g = decode_graph(t)
    assert len(g.vertices) == 2 and not g.edges


def test_decode_parallel_edges():
    t = term(bag({1, 2}, {1, 2}), term(bag({1, 2}, {1, 2})))
    g = decode_graph(t)
    assert is_isomorphic(g, multi_edge(2)) is not None


def test_width_conventions():
    assert width(term(bag(()))) == -1
    assert width(k2_term()) == 1
    assert width(term(bag(()), term(bag({1, 2, 3})))) == 2


def _random_term(rng, alpha, depth):
    sym = rng.choice(alpha)
    if depth <= 1:
        return term(sym)
    r = rng.random()
    if r < 0.3:
        return term(sym)
    if r < 0.65:
        return term(sym, _random_term(rng, alpha, depth - 1))
    return term(sym, _random_term(rng, alpha, depth - 1),
                _random_term(rng, alpha, depth - 1))


def test_sub_bags_of_k2_bag():
    got = sub_bags(bag({1, 2}, {1, 2}))
    assert got == [bag(()), bag({1}), bag({2}), bag({1, 2}), bag({1, 2}, {1, 2})]


def test_k2_sub_decompositions():
    subs = enumerate_sub_decompositions(k2_term())
    assert len(subs) == 5
    decoded = [len(decode_graph(s).vertices) for s in subs]
    assert decoded == [0, 1, 1, 2, 2]
    for s in subs:
        assert is_sub_decomposition(s, k2_term())


def test_s3_violation():
    sup = term(bag({1}), term(bag({1})))
    bad = term(bag({1}), term(bag(())))
    assert not is_sub_decomposition(bad, sup)
    good = enumerate_sub_decompositions(sup)
    assert len(good) == 2  # both empty, or both keep the label


def test_shape_mismatch_is_not_sub():
    assert not is_sub_decomposition(term(bag(())), term(bag(()), term(bag(()))))


@pytest.mark.parametrize("seed", range(15))
def test_sub_decompositions_decode_to_exactly_the_subgraphs(seed):
    # decoded sub-decompositions coincide (as labeled graphs, not just up to
    # isomorphism) with the subgraphs of the decoded super-decomposition
    rng = random.Random(seed)
    alpha = bag_alphabet(2)
    sup = _random_term(rng, alpha, depth=3)
    subs = enumerate_sub_decompositions(sup)
    for s in subs:
        assert is_sub_decomposition(s, sup)
    decoded = {decode_graph(s) for s in subs}
    expected = set(all_subgraphs(decode_graph(sup)))
    assert decoded == expected


def test_is_valid_decomposition():
    g = path(3)
    td = TDNode({0, 1}, [TDNode({1, 2})])
    assert is_valid_decomposition(g, td)
    assert not is_valid_decomposition(g, TDNode({0, 1}))          # vertex 2 missing
    assert not is_valid_decomposition(g, TDNode({0, 1}, [TDNode({2})]))  # edge e1 uncovered
    branchy = TDNode({1}, [TDNode({0, 1}), TDNode({1, 2})])
    assert is_valid_decomposition(g, branchy)
    # vertex 1 occurs in two children separated by a bag that lacks it
    split = TDNode({0}, [TDNode({0, 1}), TDNode({1, 2})])
    assert not is_valid_decomposition(g, split)


def test_encode_k2():
    g = path(2)
    t = encode(g, TDNode({0, 1}), 2)
    assert is_isomorphic(decode_graph(t), g) is not None
    assert width(t) <= 1


def test_encode_p3_two_bags():
    g = path(3)
    t = encode(g, TDNode({0, 1}, [TDNode({1, 2})]), 2)
    assert is_isomorphic(decode_graph(t), g) is not None
    assert width(t) <= 1


def test_encode_triangle_single_bag():
    g = cycle(3)
    t = encode(g, TDNode({0, 1, 2}), 3)
    assert is_isomorphic(decode_graph(t), g) is not None
    assert width(t) == 2


def test_encode_multigraph():
    g = multi_edge(3)
    t = encode(g, TDNode({0, 1}), 2)
    assert is_isomorphic(decode_graph(t), g) is not None


def test_encode_normalizes_high_arity():
    # stars with 3..5 leaves under one root: the inserted grouping nodes
    # must themselves stay binary
    for n in (4, 5, 6):
        g = Graph(range(n), {f"e{i}": (0, i) for i in range(1, n)})
        td = TDNode({0}, [TDNode({0, i}) for i in range(1, n)])
        t = encode(g, td, 2)
        for p in t.positions():
            assert len(t.subterm(p).children) <= 2
        assert is_isomorphic(decode_graph(t), g) is not None


def test_encode_rejects_bad_inputs():
    g = path(3)
    with pytest.raises(InvalidDecompositionError):
        encode(g, TDNode({0, 1}), 2)  # not a decomposition (vertex 2 missing)
    with pytest.raises(InvalidDecompositionError):
        encode(g, TDNode({0, 1, 2}), 2)  # width 2 > t-1
    with pytest.raises(InvalidDecompositionError):
        encode(Graph([0], {"e": ()}), TDNode({0}), 1)  # endpointless edge


@pytest.mark.parametrize("name,g", [
    ("P4", path(4)),
    ("C4", cycle(4)),
    ("C5", cycle(5)),
    ("K4", complete(4)),
    ("spider", spider()),
    ("K1", single_vertex()),
])
def test_encode_round_trip_via_oracle_decomposition(name, g):
    w, td = optimal_decomposition(g)
    assert is_valid_decomposition(g, td)
    t = encode(g, td, w + 1)
    assert width(t) == w
    assert is_isomorphic(decode_graph(t), g) is not None


def test_decomposition_json_round_trip():
    t = c3_term()
    obj = decomposition_to_json(t)
    assert obj["B"] == [1, 2] and obj["b"] == [1, 2]
    assert decomposition_from_json(obj) is t


def test_encode_empty_graph():
    g = Graph([], {})
    t = encode(g, TDNode(frozenset()), 1)
    assert decode_graph(t).vertices == ()
    assert width(t) == -1
