"""Abstract syntax for CMSO formulas over graphs.

Formulas talk about a graph through four sorts of variables: single
vertices, single edges, vertex sets and edge sets.  Atoms are equality
between variables of the same sort, membership of a vertex (edge) in a
vertex (edge) set, incidence between a vertex and an edge, and modular
cardinality constraints card(r, a, Z) meaning |Z| = a (mod r).

All formula classes are immutable and hashable so they can serve as
cache keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import CmsoKindError


class VarKind(enum.Enum):
    VERTEX = "v"
    EDGE = "e"
    VERTEX_SET = "vs"
    EDGE_SET = "es"

    @property
    def is_set(self) -> bool:
        return self in (VarKind.VERTEX_SET, VarKind.EDGE_SET)

    @property
    def is_vertex_sort(self) -> bool:
        return self in (VarKind.VERTEX, VarKind.VERTEX_SET)


@dataclass(frozen=True)
class Var:
    name: str
    kind: VarKind

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise CmsoKindError("variable name must be a nonempty string")
        if not isinstance(self.kind, VarKind):
            raise CmsoKindError("variable kind must be a VarKind")

    def __lt__(self, other):
        return (self.name, self.kind.value) < (other.name, other.kind.value)

    def sort_key(self):
        return (self.name, self.kind.value)

    def __repr__(self):
        return f"{self.name}:{self.kind.value}"


class Formula:
    """Base class; subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class VarEq(Formula):
    left: Var
    right: Var

    def __post_init__(self):
        if self.left.kind != self.right.kind:
            raise CmsoKindError(
                f"= requires equal kinds, got {self.left!r} and {self.right!r}")


@dataclass(frozen=True)
class MemV(Formula):
    elem: Var
    container: Var

    def __post_init__(self):
        if self.elem.kind != VarKind.VERTEX or self.container.kind != VarKind.VERTEX_SET:
            raise CmsoKindError(
                f"vertex membership requires v in vs, got {self.elem!r} in {self.container!r}")


@dataclass(frozen=True)
class MemE(Formula):
    elem: Var
    container: Var

    def __post_init__(self):
        if self.elem.kind != VarKind.EDGE or self.container.kind != VarKind.EDGE_SET:
            raise CmsoKindError(
                f"edge membership requires e in es, got {self.elem!r} in {self.container!r}")


@dataclass(frozen=True)
class Inc(Formula):
    vertex: Var
    edge: Var

    def __post_init__(self):
        if self.vertex.kind != VarKind.VERTEX or self.edge.kind != VarKind.EDGE:
            raise CmsoKindError(
                f"inc requires (v, e), got ({self.vertex!r}, {self.edge!r})")


@dataclass(frozen=True)
class Card(Formula):
    """|Z| = a (mod r) for a set variable Z."""

    a: int
    r: int
    setvar: Var

    def __post_init__(self):
        if not self.setvar.kind.is_set:
            raise CmsoKindError(f"card requires a set variable, got {self.setvar!r}")
        if not (isinstance(self.r, int) and self.r >= 2):
            raise CmsoKindError(f"card modulus must be an int >= 2, got {self.r!r}")
        if not (isinstance(self.a, int) and 0 <= self.a < self.r):
            raise CmsoKindError(f"card residue must satisfy 0 <= a < r, got {self.a!r}")


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula


_BINARY = (And, Or, Implies, Iff)
_QUANT = (Exists, Forall)


def free_vars(phi: Formula) -> frozenset:
    if isinstance(phi, (TrueF, FalseF)):
        return frozenset()
    if isinstance(phi, VarEq):
        return frozenset((phi.left, phi.right))
    if isinstance(phi, (MemV, MemE)):
        return frozenset((phi.elem, phi.container))
    if isinstance(phi, Inc):
        return frozenset((phi.vertex, phi.edge))
    if isinstance(phi, Card):
        return frozenset((phi.setvar,))
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, _BINARY):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, _QUANT):
        return free_vars(phi.body) - {phi.var}
    raise CmsoKindError(f"not a formula: {phi!r}")


def substitute(phi: Formula, old: Var, new: Var) -> Formula:
    """Replace free occurrences of old by new (same kind required)."""
    if old.kind != new.kind:
        raise CmsoKindError("substitution must preserve kind")

    def sub_var(v):
        return new if v == old else v

    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, VarEq):
        return VarEq(sub_var(phi.left), sub_var(phi.right))
    if isinstance(phi, MemV):
        return MemV(sub_var(phi.elem), sub_var(phi.container))
    if isinstance(phi, MemE):
        return MemE(sub_var(phi.elem), sub_var(phi.container))
    if isinstance(phi, Inc):
        return Inc(sub_var(phi.vertex), sub_var(phi.edge))
    if isinstance(phi, Card):
        return Card(phi.a, phi.r, sub_var(phi.setvar))
    if isinstance(phi, Not):
        return Not(substitute(phi.body, old, new))
    if isinstance(phi, _BINARY):
        return type(phi)(substitute(phi.left, old, new),
                         substitute(phi.right, old, new))
    if isinstance(phi, _QUANT):
        if phi.var == old:
            return phi
        return type(phi)(phi.var, substitute(phi.body, old, new))
    raise CmsoKindError(f"not a formula: {phi!r}")


def standardize(phi: Formula, avoid=()) -> Formula:
    """Rename every bound variable to a fresh canonical name.

    After this pass no two binders share a variable and no bound
    variable collides with a free one or with any name in avoid, which
    simplifies compilation.  Renaming is deterministic (preorder
    numbering).
    """
    blocked = {v.name for v in free_vars(phi)} | set(avoid)
    counter = [0]

    def fresh_name():
        while True:
            name = f"_q{counter[0]}"
            counter[0] += 1
            if name not in blocked:
                return name

    def walk(f):
        if isinstance(f, Not):
            return Not(walk(f.body))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, _QUANT):
            fresh = Var(fresh_name(), f.var.kind)
            return type(f)(fresh, walk(substitute(f.body, f.var, fresh)))
        return f

    return walk(phi)


_PREC = {
    Iff: 1,
    Implies: 2,
    Or: 3,
    And: 4,
    Not: 5,
}


def to_text(phi: Formula) -> str:
    """Render a formula in the concrete syntax accepted by parse_formula."""

    def wrap(child, parent_prec, tight=False):
        text, prec = render(child)
        # an operand at its parent's level needs parens on the side the
        # parser does not chain: the left of right-associative -> and <->,
        # the right of left-associative and and or
        need = prec < parent_prec or (tight and prec == parent_prec)
        return f"({text})" if need else text

    def render(f):
        if isinstance(f, TrueF):
            return "true", 6
        if isinstance(f, FalseF):
            return "false", 6
        if isinstance(f, VarEq):
            return f"{f.left.name} = {f.right.name}", 6
        if isinstance(f, (MemV, MemE)):
            return f"{f.elem.name} in {f.container.name}", 6
        if isinstance(f, Inc):
            return f"inc({f.vertex.name}, {f.edge.name})", 6
        if isinstance(f, Card):
            return f"card({f.r}, {f.a}, {f.setvar.name})", 6
        if isinstance(f, Not):
            return f"not {wrap(f.body, 5)}", 5
        if isinstance(f, And):
            return f"{wrap(f.left, 4)} and {wrap(f.right, 4, True)}", 4
        if isinstance(f, Or):
            return f"{wrap(f.left, 3)} or {wrap(f.right, 3, True)}", 3
        if isinstance(f, Implies):
            return f"{wrap(f.left, 2, True)} -> {wrap(f.right, 2)}", 2
        if isinstance(f, Iff):
            return f"{wrap(f.left, 1, True)} <-> {wrap(f.right, 1)}", 1
        if isinstance(f, Exists):
            body, _ = render(f.body)
            return f"exists {f.var.kind.value} {f.var.name}. {body}", 0
        if isinstance(f, Forall):
            body, _ = render(f.body)
            return f"forall {f.var.kind.value} {f.var.name}. {body}", 0
        raise CmsoKindError(f"not a formula: {f!r}")

    return render(phi)[0]
