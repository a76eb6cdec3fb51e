"""Concrete tree decompositions: terms over bag symbols (B, b).

A t-concrete bag is a pair (B, b) with B ⊆ {1..t} and b ⊆ B of size 0 or 2.
A term over these bags decodes to a multigraph: for each label s, the maximal
connected position sets carrying s each become one vertex; every position with
b = {s, s'} becomes one edge joining the two components it sits in. A graph
has treewidth <= t-1 exactly when some term over t-label bags decodes to it.

`encode` goes the other way: it turns an ordinary tree decomposition of width
<= t-1 into such a term, and `enumerate_sub_decompositions` /
`is_sub_decomposition` realize the subgraph relation on decoded graphs
structurally (same shape, pointwise sub-bags, and the label-continuity
condition along arcs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InvalidBagError, InvalidDecompositionError
from .graph import Graph
from .terms import ROOT, Term, term
from .util import osorted


@dataclass(frozen=True)
class ConcreteBag:
    B: frozenset
    b: frozenset

    def __post_init__(self):
        object.__setattr__(self, "B", frozenset(self.B))
        object.__setattr__(self, "b", frozenset(self.b))
        if not self.b <= self.B:
            raise InvalidBagError("b must be a subset of B")
        if len(self.b) not in (0, 2):
            raise InvalidBagError("b must have 0 or 2 elements")

    def sort_key(self):
        return (tuple(sorted(self.B)), tuple(sorted(self.b)))

    def __repr__(self):
        bs = "{" + ",".join(map(str, sorted(self.B))) + "}"
        es = "{" + ",".join(map(str, sorted(self.b))) + "}"
        return f"({bs},{es})"

    def to_obj(self):
        return {"k": "bag", "B": sorted(self.B), "b": sorted(self.b)}


def bag(B, b=()) -> ConcreteBag:
    return ConcreteBag(frozenset(B), frozenset(b))


def bag_alphabet(t: int):
    """All t-concrete bags, canonically ordered: for each B (by size, then
    lexicographically), b = ∅ first and then each 2-subset of B."""
    labels = list(range(1, t + 1))
    out = []
    for k in range(t + 1):
        for Bsel in combinations(labels, k):
            out.append(bag(Bsel))
            for pair in combinations(Bsel, 2):
                out.append(bag(Bsel, pair))
    return out


def labels_of(decomp: Term):
    out = set()
    for p in decomp.positions():
        out |= decomp.symbol_at(p).B
    return osorted(out)


def s_maximal_components(decomp: Term, s):
    """Maximal connected position sets whose bags contain label s.

    Returns [(root_position, frozenset_of_positions), ...] sorted by root;
    the root is the topmost position of the component.
    """
    positions = [p for p in decomp.positions() if s in decomp.symbol_at(p).B]
    pset = set(positions)
    parent = {}

    def find(p):
        r = p
        while parent[r] != r:
            r = parent[r]
        while parent[p] != r:
            parent[p], p = r, parent[p]
        return r

    for p in positions:
        parent[p] = p
    for p in positions:
        if p != ROOT and p[:-1] in pset:
            ra, rb = find(p), find(p[:-1])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for p in positions:
        groups.setdefault(find(p), []).append(p)
    comps = []
    for members in groups.values():
        root = min(members, key=lambda q: (len(q), q))
        comps.append((root, frozenset(members)))
    comps.sort(key=lambda rc: (len(rc[0]), rc[0]))
    return comps


def decode_graph(decomp: Term) -> Graph:
    """The multigraph G(T): one vertex (s, component_root) per s-component,
    one edge per position whose bag has b = {s, s'}."""
    comp_root = {}  # (s, position) -> component root
    vertices = []
    for s in labels_of(decomp):
        for root, members in s_maximal_components(decomp, s):
            vertices.append((s, root))
            for p in members:
                comp_root[(s, p)] = root
    edges = {}
    for p in decomp.positions():
        sym = decomp.symbol_at(p)
        if sym.b:
            s1, s2 = sorted(sym.b)
            edges[p] = ((s1, comp_root[(s1, p)]), (s2, comp_root[(s2, p)]))
    return Graph(vertices, edges)


def width(decomp: Term) -> int:
    """max |B| - 1 over all positions (-1 when every bag is empty)."""
    return max(len(decomp.symbol_at(p).B) for p in decomp.positions()) - 1


def is_sub_decomposition(sub: Term, sup: Term) -> bool:
    """Shape equality, pointwise sub-bags (B ⊆ B', b ⊆ b'), and continuity:
    wherever a label survives across an arc above, it must either survive or
    be absent across the same arc below."""
    if len(sub.children) != len(sup.children):
        return False
    sB, sb = sub.symbol.B, sub.symbol.b
    pB, pb = sup.symbol.B, sup.symbol.b
    if not (sB <= pB and sb <= pb):
        return False
    for csub, csup in zip(sub.children, sup.children):
        for s in pB & csup.symbol.B:
            if (s in sB) != (s in csub.symbol.B):
                return False
        if not is_sub_decomposition(csub, csup):
            return False
    return True


def sub_bags(sym: ConcreteBag):
    """Sub-bags of (B', b') in canonical order: every B ⊆ B' with b = ∅, plus
    (B, b') whenever b' ≠ ∅ fits inside B."""
    Bs = sorted(sym.B)
    out = []
    for k in range(len(Bs) + 1):
        for Bsel in combinations(Bs, k):
            out.append(bag(Bsel))
            if sym.b and sym.b <= frozenset(Bsel):
                out.append(bag(Bsel, sym.b))
    return out


def _arc_ok(sup_parent: ConcreteBag, sub_parent: ConcreteBag,
            sup_child: ConcreteBag, sub_child: ConcreteBag) -> bool:
    # labels surviving the super-arc must survive or vanish in the sub-arc
    for s in sup_parent.B & sup_child.B:
        if (s in sub_parent.B) != (s in sub_child.B):
            return False
    return True


def enumerate_sub_decompositions(sup: Term):
    """All sub-decompositions of sup, deterministically ordered."""

    def go(node):
        child_lists = [go(c) for c in node.children]
        out = []
        for sym in sub_bags(node.symbol):
            if not node.children:
                out.append(term(sym))
            elif len(node.children) == 1:
                sup_c = node.children[0].symbol
                for c in child_lists[0]:
                    if _arc_ok(node.symbol, sym, sup_c, c.symbol):
                        out.append(term(sym, c))
            else:
                sup_c1, sup_c2 = (c.symbol for c in node.children)
                for c1 in child_lists[0]:
                    if not _arc_ok(node.symbol, sym, sup_c1, c1.symbol):
                        continue
                    for c2 in child_lists[1]:
                        if _arc_ok(node.symbol, sym, sup_c2, c2.symbol):
                            out.append(term(sym, c1, c2))
        return out

    return go(sup)


# --- ordinary tree decompositions and the encoder --------------------------


@dataclass
class TDNode:
    """Rooted tree-decomposition node: a bag of vertex ids plus child nodes.

    Arbitrary arity is accepted; `encode` normalizes to arity <= 2.
    """
    bag: frozenset
    children: list = field(default_factory=list)

    def __post_init__(self):
        self.bag = frozenset(self.bag)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def td_width(td: TDNode) -> int:
    return max(len(n.bag) for n in td.walk()) - 1


def is_valid_decomposition(g: Graph, td: TDNode) -> bool:
    """Classic conditions: bags cover V, every (2-endpoint) edge fits in some
    bag, and each vertex's occurrence set is connected in the tree."""
    nodes = list(td.walk())
    covered = set()
    for n in nodes:
        if not n.bag <= set(g.vertices):
            return False
        covered |= n.bag
    if covered != set(g.vertices):
        return False
    for e in g.edges:
        if g.ends[e] and not any(g.ends[e] <= n.bag for n in nodes):
            return False
    # occurrence connectivity: each vertex enters the tree exactly once
    return all(_occurrence_regions(td, v) == 1 for v in g.vertices)


def _occurrence_regions(td: TDNode, v) -> int:
    count = 0

    def go(node, inside_above):
        nonlocal count
        inside = v in node.bag
        if inside and not inside_above:
            count += 1
        for c in node.children:
            go(c, inside)

    go(td, False)
    return count


def _normalize_binary(td: TDNode) -> TDNode:
    kids = [_normalize_binary(c) for c in td.children]
    while len(kids) > 2:
        rest = TDNode(td.bag, kids[-2:])
        kids = kids[:-2] + [rest]
    return TDNode(td.bag, kids)


def encode(g: Graph, td: TDNode, t: int) -> Term:
    """A term over t-concrete bags whose decoded graph is isomorphic to g.

    Bags become label sets (labels stay fixed along each vertex's occurrence
    subtree; a fresh vertex never reuses a label visible in the bag above,
    which an inserted intersection bag guarantees). Each node expands into a
    chain of concrete bags realizing its edges one at a time.
    """
    if any(not g.ends[e] for e in g.edges):
        raise InvalidDecompositionError("graphs with endpointless edges are not encodable")
    if not is_valid_decomposition(g, td):
        raise InvalidDecompositionError("not a tree decomposition of the graph")
    if td_width(td) > t - 1:
        raise InvalidDecompositionError(f"width {td_width(td)} exceeds t-1 = {t - 1}")

    root = _normalize_binary(td)

    # assign every edge to the first node (preorder) whose bag contains it
    nodes = list(root.walk())
    edges_at = {id(n): [] for n in nodes}
    for e in osorted(e for e in g.edges):
        for n in nodes:
            if g.ends[e] <= n.bag:
                edges_at[id(n)].append(e)
                break

    def build(node, labels_above, inherited):
        # inherited: vertex -> label for vertices shared with the bag above
        labeling = dict(inherited)
        free = [s for s in range(1, t + 1) if s not in labels_above]
        for v in osorted(node.bag - set(inherited)):
            labeling[v] = free.pop(0)
        B = frozenset(labeling[v] for v in node.bag)

        child_terms = []
        for c in node.children:
            shared = node.bag & c.bag
            inter_labeling = {v: labeling[v] for v in shared}
            inter_B = frozenset(inter_labeling.values())
            sub = build(c, inter_B, inter_labeling)
            child_terms.append(term(bag(inter_B), sub))

        edges = edges_at[id(node)]
        if not edges:
            return term(bag(B), *child_terms)
        result_children = child_terms
        for e in reversed(edges):
            u, v = osorted(g.ends[e])
            sym = bag(B, (labeling[u], labeling[v]))
            result = term(sym, *result_children)
            result_children = [result]
        return result_children[0]

    return build(root, frozenset(), {})


# --- JSON -------------------------------------------------------------------


def decomposition_to_json(decomp: Term) -> dict:
    sym = decomp.symbol
    return {"B": sorted(sym.B), "b": sorted(sym.b),
            "children": [decomposition_to_json(c) for c in decomp.children]}


def decomposition_from_json(obj) -> Term:
    try:
        sym = bag(obj["B"], obj["b"])
        children = [decomposition_from_json(c) for c in obj["children"]]
    except (KeyError, TypeError) as exc:
        raise InvalidDecompositionError(f"malformed decomposition object: {exc}") from exc
    if len(children) > 2:
        raise InvalidDecompositionError("decomposition nodes have at most 2 children")
    return term(sym, *children)
