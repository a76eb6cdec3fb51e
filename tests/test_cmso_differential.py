"""Random closed formulas: the compiled automaton against the evaluator.

Hypothesis draws well-kinded sentences of quantifier depth at most 2
over every variable kind, with not, and, or, implies, iff, and blocks of
exists and of forall binders. Each is compiled at 2 labels, and every
term of depth at most 2 over the 2-label bag alphabet must be accepted
exactly when `eval_direct` holds on its decoded graph. The same
formulas must also parse back from `to_text` unchanged. The settings are
derandomized, so the same formulas run every time.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from supertw.cmso.ast import (And, Card, Exists, Forall, Iff, Implies, Inc,
                              MemE, MemV, Not, Or, Var, VarEq, VarKind, to_text)
from supertw.cmso.compile import compile as compile_formula
from supertw.cmso.evaluate import eval_direct
from supertw.cmso.parser import parse
from supertw.decomp import bag_alphabet, decode_graph
from supertw.terms import enumerate_terms
from supertw.tree_automata import accepts

T = 2
TERMS = list(enumerate_terms(bag_alphabet(T), 2))
NAMES = {VarKind.VERTEX: "xyz", VarKind.EDGE: "efg",
         VarKind.VERTEX_SET: "ABC", VarKind.EDGE_SET: "FGH"}
# binder kinds, first-order ones twice as likely as set ones
BINDER_KINDS = (VarKind.VERTEX, VarKind.EDGE) * 2 + (VarKind.VERTEX_SET,
                                                      VarKind.EDGE_SET)
CONNECTIVES = (And, Or, Implies, Iff)


def atoms(bound):
    """The atoms over the variables in bound, grouped by predicate."""
    groups = {}
    for a in bound:
        for b in bound:
            pair = (a.kind, b.kind)
            if a.kind == b.kind:
                groups.setdefault(VarEq, []).append(VarEq(a, b))
            elif pair == (VarKind.VERTEX, VarKind.VERTEX_SET):
                groups.setdefault(MemV, []).append(MemV(a, b))
            elif pair == (VarKind.EDGE, VarKind.EDGE_SET):
                groups.setdefault(MemE, []).append(MemE(a, b))
            elif pair == (VarKind.VERTEX, VarKind.EDGE):
                groups.setdefault(Inc, []).append(Inc(a, b))
        if a.kind.is_set:
            groups.setdefault(Card, []).extend((Card(0, 2, a), Card(1, 2, a)))
    return list(groups.values())


@st.composite
def formulas(draw, bound=(), depth=2, size=3):
    """A formula whose free variables are among bound, with at most
    `depth` nested binders and `size` connectives."""
    kinds = ["atom"] if bound else []
    if depth:
        kinds.append("block")
    if size:
        kinds += ["not", "connective"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(st.sampled_from(draw(st.sampled_from(atoms(bound)))))
    if kind == "not":
        return Not(draw(formulas(bound, depth, size - 1)))
    if kind == "connective":
        left = draw(st.integers(0, size - 1))
        return draw(st.sampled_from(CONNECTIVES))(
            draw(formulas(bound, depth, left)),
            draw(formulas(bound, depth, size - 1 - left)))
    quant = draw(st.sampled_from((Exists, Forall)))
    binders = []
    for _ in range(draw(st.integers(1, depth))):
        vk = draw(st.sampled_from(BINDER_KINDS))
        used = {v.name for v in (*bound, *binders)}
        binders.append(Var(next(n for n in NAMES[vk] if n not in used), vk))
    body = draw(formulas((*bound, *binders), depth - len(binders), size))
    for var in reversed(binders):
        body = quant(var, body)
    return body


X, Y = Var("x", VarKind.VERTEX), Var("y", VarKind.VERTEX)
E = Var("e", VarKind.EDGE)
A = Var("A", VarKind.VERTEX_SET)
F = Var("F", VarKind.EDGE_SET)


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(formulas())
@example(Implies(Exists(X, Forall(A, MemV(X, A))),
                 Forall(E, Exists(X, Inc(X, E)))))
@example(Iff(Forall(X, Exists(Y, Not(VarEq(X, Y)))),
             Exists(F, Card(1, 2, F))))
@example(Exists(X, Exists(Y, Not(VarEq(X, Y)))))
@example(Forall(A, Forall(X, Or(MemV(X, A), Card(0, 2, A)))))
@example(Forall(A, Exists(X, VarEq(X, X))))
def test_compiled_sentence_agrees_with_evaluator(phi):
    aut = compile_formula(phi, T)
    for tm in TERMS:
        want = eval_direct(phi, decode_graph(tm))
        assert accepts(aut, tm) == want, f"{phi!r} on {tm!r}"


@settings(derandomize=True, max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(formulas())
@example(Exists(X, Exists(Y, And(VarEq(X, X), And(VarEq(X, X), VarEq(X, X))))))
@example(Forall(X, Or(VarEq(X, X), Or(Not(VarEq(X, X)), VarEq(X, X)))))
def test_to_text_round_trips(phi):
    assert parse(to_text(phi)) == phi, to_text(phi)
