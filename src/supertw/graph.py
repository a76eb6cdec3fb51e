"""Finite undirected multigraphs as incidence structures.

A graph is (V, E, Inc) with Inc ⊆ E × V; every edge has either 2 endpoints or
none (loops are rejected, isolated "phantom" edges are representable). Ids are
arbitrary hashable values ordered by `util.ordkey`; all derived sequences are
emitted in that order so downstream constructions stay deterministic.
"""

from __future__ import annotations

import json
import re
from collections import deque

from .errors import InvalidGraphError
from .util import ordkey, osorted


class Graph:
    __slots__ = ("vertices", "edges", "ends", "_inc", "_hash")

    def __init__(self, vertices, edges):
        """Build a graph from vertex ids and a mapping edge id -> endpoints.

        `edges` maps each edge id to an iterable of 0 or 2 distinct vertex
        ids; endpoints must be declared vertices.
        """
        self.vertices = tuple(osorted(set(vertices)))
        vset = set(self.vertices)
        ends = {}
        for e in osorted(edges):
            given = tuple(edges[e])
            pts = frozenset(given)
            if len(pts) == 1:
                raise InvalidGraphError(f"edge {e!r} is a loop")
            if len(given) not in (0, 2):
                raise InvalidGraphError(f"edge {e!r} must have 0 or 2 endpoints")
            if not pts <= vset:
                raise InvalidGraphError(f"edge {e!r} has undeclared endpoint")
            ends[e] = pts
        self.edges = tuple(osorted(ends))
        self.ends = ends
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            for v in osorted(ends[e]):
                inc[v].append(e)
        self._inc = {v: tuple(es) for v, es in inc.items()}
        self._hash = hash((self.vertices, tuple((e, self.ends[e]) for e in self.edges)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges and self.ends == other.ends)

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    def incident_edges(self, v):
        return self._inc[v]

    def degree(self, v):
        return len(self._inc[v])

    def max_degree(self):
        return max((self.degree(v) for v in self.vertices), default=0)

    def neighbors(self, v):
        out = set()
        for e in self._inc[v]:
            out |= self.ends[e]
        out.discard(v)
        return frozenset(out)

    def incidence(self):
        """The incidence relation as a frozenset of (edge, vertex) pairs."""
        return frozenset((e, v) for e in self.edges for v in self.ends[e])


def is_connected(g: Graph) -> bool:
    """True for the empty graph and any graph with one BFS component.

    Phantom (endpointless) edges do not affect connectivity.
    """
    if not g.vertices:
        return True
    seen = {g.vertices[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(g.vertices)


def diameter(g: Graph):
    """Max over vertex pairs of BFS distance; inf if disconnected, 0 if |V| <= 1."""
    if len(g.vertices) <= 1:
        return 0
    best = 0
    for src in g.vertices:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if len(dist) < len(g.vertices):
            return float("inf")
        best = max(best, max(dist.values()))
    return best


def _edge_profile(g: Graph):
    """Multiset of endpoint sets: {endpoints -> multiplicity}; key None for phantom edges."""
    prof = {}
    for e in g.edges:
        key = g.ends[e] if g.ends[e] else None
        prof[key] = prof.get(key, 0) + 1
    return prof


def embeds_as_subgraph(h: Graph, g: Graph):
    """Injective vertex map sending h onto a subgraph of g, or None.

    Brute force with multiplicity checks; desk scale only.
    """
    if len(h.vertices) > len(g.vertices) or len(h.edges) > len(g.edges):
        return None
    hprof = _edge_profile(h)
    gprof = _edge_profile(g)
    if hprof.get(None, 0) > gprof.get(None, 0):
        return None
    hs = osorted(h.vertices)
    gs = list(g.vertices)

    def extend(i, mapping, used):
        if i == len(hs):
            return dict(mapping)
        v = hs[i]
        for u in gs:
            if u in used or g.degree(u) < h.degree(v):
                continue
            ok = True
            for w, uw in mapping.items():
                if hprof.get(frozenset((v, w)), 0) > gprof.get(frozenset((u, uw)), 0):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used.add(u)
                got = extend(i + 1, mapping, used)
                if got is not None:
                    return got
                del mapping[v]
                used.discard(u)
        return None

    return extend(0, {}, set())


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e, "ends": osorted(g.ends[e])} for e in g.edges],
    }


def _json_id(x):
    """x, if it is a graph id a JSON file may give: a string or an integer.
    A bool, float or null would compare equal to another id or to none."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InvalidGraphError(f"an id must be a string or an integer, got {x!r}")
    return x


def graph_from_json(obj) -> Graph:
    """The graph of a JSON object {"vertices": [id, ...], "edges": [{"id":
    id, "ends": [] or [id, id]}, ...]}, its ids strings or integers, no
    vertex or edge id given twice; any other shape raises
    InvalidGraphError."""
    if not isinstance(obj, dict):
        raise InvalidGraphError("a graph must be a JSON object")
    vertices, records = obj.get("vertices"), obj.get("edges")
    if not isinstance(vertices, list) or not isinstance(records, list):
        raise InvalidGraphError('a graph needs a "vertices" list and an "edges" list')
    if len(set(map(_json_id, vertices))) != len(vertices):
        raise InvalidGraphError("duplicate vertex id")
    edges = {}
    for rec in records:
        if not (isinstance(rec, dict) and "id" in rec and isinstance(rec.get("ends"), list)):
            raise InvalidGraphError(f'an edge needs an "id" and an "ends" list, got {rec!r}')
        edges[_json_id(rec["id"])] = [_json_id(v) for v in rec["ends"]]
    if len(edges) != len(records):
        raise InvalidGraphError("duplicate edge id")
    return Graph(vertices, edges)


_INT = re.compile(r"-?[0-9]+")


def _reject_constant(name):
    raise InvalidGraphError(f"{name} is not JSON")


def load_graph(path) -> Graph:
    """Load a graph from a .json file or an edge-list text file.

    A text starting with `{` or `[` is read as JSON (`graph_from_json`),
    without NaN or Infinity. Edge-list lines are `u v` pairs; blank lines
    and `#` comments are skipped; tokens of ASCII digits, with an optional
    leading `-`, are read as integers. Edge ids are e0, e1, ... in line
    order. A line with a single token declares an isolated vertex.
    """
    text = open(path, "r", encoding="utf-8").read()
    if text.lstrip()[:1] in ("{", "["):
        return graph_from_json(json.loads(text, parse_constant=_reject_constant))
    vertices = []
    edges = {}
    n = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = [int(t) if _INT.fullmatch(t) else t for t in line.split()]
        if len(toks) == 1:
            vertices.append(toks[0])
        elif len(toks) == 2:
            vertices.extend(toks)
            edges[f"e{n}"] = toks
            n += 1
        else:
            raise InvalidGraphError(f"line {lineno}: expected 'u v', got {line!r}")
    return Graph(vertices, edges)

