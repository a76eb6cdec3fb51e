"""Stock CMSO sentences used by the solver presets and the test suite."""

from __future__ import annotations

from ..errors import CmsoKindError
from .ast import (And, Card, Exists, FalseF, Forall, Iff, Implies, Inc, MemV,
                  Or, Var, VarEq, VarKind)


def _v(name):
    return Var(name, VarKind.VERTEX)


def _e(name):
    return Var(name, VarKind.EDGE)


def adjacent(x: Var, y: Var, edge_name: str):
    """exists e. inc(x, e) and inc(y, e) -- true also when x = y on a loopless
    graph only via an actual shared edge, so callers handle equality
    separately."""
    e = _e(edge_name)
    return Exists(e, And(Inc(x, e), Inc(y, e)))


def _reach(u: Var, v: Var, d: int, depth: int):
    """Distance between u and v is at most d (formula size linear in d)."""
    if d == 0:
        return VarEq(u, v)
    w = _v(f"_w{depth}")
    step = And(adjacent(u, w, f"_e{depth}"), _reach(w, v, d - 1, depth + 1))
    return Or(VarEq(u, v), Exists(w, step))


def gen_diam(d: int):
    """Every pair of vertices is at distance at most d."""
    if d < 0:
        raise CmsoKindError("diameter bound must be nonnegative")
    u, v = _v("_u"), _v("_v")
    return Forall(u, Forall(v, _reach(u, v, d, 0)))


def gen_vertex_cover(k: int):
    """Some k vertices touch every edge."""
    if k < 0:
        raise CmsoKindError("vertex cover size must be nonnegative")
    y = _e("_y")
    xs = [_v(f"_x{i}") for i in range(k)]
    covered = FalseF()
    for x in reversed(xs):
        covered = Or(Inc(x, y), covered) if not isinstance(covered, FalseF) else Inc(x, y)
    if k == 0:
        body = Forall(y, FalseF())
    else:
        body = Forall(y, covered)
    for x in reversed(xs):
        body = Exists(x, body)
    return body


def simple_graph():
    """No two distinct edges have the same endpoints (no parallel edges)."""
    y1, y2, x = _e("_y1"), _e("_y2"), _v("_x")
    same_ends = Forall(x, Iff(Inc(x, y1), Inc(x, y2)))
    return Forall(y1, Forall(y2, Implies(same_ends, VarEq(y1, y2))))


def even_order():
    """The number of vertices is even."""
    big = Var("_A", VarKind.VERTEX_SET)
    x = _v("_x")
    return Exists(big, And(Forall(x, MemV(x, big)), Card(0, 2, big)))


def no_isolated_vertex():
    y = _e("_y")
    x = _v("_x")
    return Forall(x, Exists(y, Inc(x, y)))


def some_vertex():
    x = _v("_x")
    return Exists(x, VarEq(x, x))

