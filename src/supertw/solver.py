"""Supergraph decision procedure with witness reconstruction.

Answers: does the input graph have a supergraph of treewidth at most t
satisfying a closed CMSO formula? The pipeline is

    compile(phi, t+1) -> sub-decomposition closure -> intersect with the
    decompositions-of-G automaton -> emptiness,

working internally with t+1 bag labels so accepted terms have width at
most t. On a YES, witness reconstruction reruns the product over
(sub-bag, super-bag) pair symbols: the first projection of an accepted
pair term is a decomposition of (an isomorphic copy of) G, the second a
decomposition of the witness supergraph, and the shared positions give
the subgraph embedding for free.

Compiled formulas and their closures are input-graph independent and are
cached per process; the automata are immutable, so concurrent solves may
share them. Every cache keeps the cold cost of what it holds, and a hit
answers to the solve's `Budget` at that cost without adding to its `used`
count: a solve raises or returns as it would from empty caches, while
`used` counts only the transitions this solve materialized.
`clear_caches()` empties every cache in the registry.

Each solve runs with Python's cyclic garbage collector paused
(`util.gc_paused`): the automata hold hundreds of thousands of
long-lived, acyclic container objects, and full collections over them
took close to half of a cold solve. Reference counting still frees what
the solve drops, and the collector is re-enabled when the solve returns
or raises. The
collector state is process-wide, so a thread running beside a solve may
see it paused. A collector that was already disabled, by the caller or
by an enclosing solve, is left as it was found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .all_decomps import build_all_decompositions, materialize
from .cmso.ast import free_vars
from .cmso.compile import compile as compile_formula, is_compiled
from .cmso.evaluate import eval_direct
from .cmso.generators import gen_diam, gen_vertex_cover
from .decomp import (bag_alphabet, decode_graph, decomposition_to_json,
                     is_sub_decomposition, width)
from .errors import CmsoKindError, NotConnectedError, SupertwError
from .graph import Graph, embeds_as_subgraph, graph_to_json, is_connected
from .subdecomp import pair_alphabet, sub_closure, sub_closure_paired
from .terms import map_symbols
from .tree_automata import (TreeAutomaton, accepts, extract_witness,
                            int_columns, intersect, intersection_nonempty,
                            reduce_bisim, trim, witness_prefix)
from .util import (Budget, ChargedCache, clear_registered_caches, gc_paused,
                   osorted)

# compile(gen_diam(1), 4) charges 1 169 002 transitions and a P4 diam=1
# witness solve at t=3 charges 3 651 685; the solver's default meter is
# roomier than the library-wide Budget default, for larger instances
DEFAULT_MAX_TRANSITIONS = 10 ** 8

EVAL_RECHECK_VERTICES = 8

_PHI_CACHE = ChargedCache("phi")
_SUB_CACHE = ChargedCache("sub")


def clear_caches():
    """Empty every registered cache: the solver's formula and closure
    automata, and the compiler's sentence, validity and alphabet caches.
    The next solve builds everything anew."""
    clear_registered_caches()


@dataclass
class Witness:
    """A verified (phi,t)-supergraph: the graph, a concrete decomposition
    of it, and an injective vertex map embedding the input as a subgraph."""
    graph: Graph
    decomposition: object  # Term over the bag alphabet
    embedding: dict

    def to_json(self):
        return {
            "graph": graph_to_json(self.graph),
            "decomposition": decomposition_to_json(self.decomposition),
            "embedding": [[v, u] for v, u in self.embedding.items()],
        }


@dataclass
class SupergraphVerdict:
    answer: bool
    witness: Witness | None
    stats: dict

    def to_json(self):
        return {
            "answer": self.answer,
            "witness": self.witness.to_json() if self.witness else None,
            "stats": self.stats,
        }


class _SimpleMachine:
    """The simplicity automaton as a step machine for `materialize`.

    A state is the set of label pairs {s, s'} whose two live components
    already have an edge between them. A second edge on a live pair would
    decode to a parallel edge, so the step has no target there: every
    state accepts, and rejection is run failure. At most 2^C(t,2) states.
    A state's pair key under B is its pairs still live in B, all the step
    reads of it; two children pair exactly when their keys are disjoint.
    """

    def __init__(self, t: int):
        self.alphabet = tuple(osorted(bag_alphabet(t)))
        self.bag_sets: dict = {}
        for sym in self.alphabet:
            self.bag_sets.setdefault(sym.B, []).append(sym)

    def step_bag_set(self, children, B):
        keep = [self.pair_key(q, B) for q in children]
        if len(keep) == 2 and keep[0] & keep[1]:
            return [()] * len(self.bag_sets[B])
        merged = frozenset().union(*keep)
        return [() if sym.b in merged else (merged | {sym.b} if sym.b else merged,)
                for sym in self.bag_sets[B]]

    def pair_key(self, state, B):
        return frozenset(p for p in state if p <= B)

    def compatible(self, k1, k2, size) -> bool:
        return not k1 & k2

    def is_final(self, state) -> bool:
        return True


def simple_automaton(t: int) -> TreeAutomaton:
    """Deterministic bag automaton for terms that decode to simple graphs:
    `materialize` over `_SimpleMachine`, outside any solve's budget."""
    return materialize(_SimpleMachine(t), Budget(None))[0]


def lift_to_pairs(aut: TreeAutomaton, t: int) -> TreeAutomaton:
    """Reread a plain-bag automaton over pair symbols through the sub slot.

    Accepts a pair term iff its first projection is accepted by `aut`;
    states and final states are shared. Each rule of `aut` becomes, in
    its place, one rule per pair symbol whose sub-bag is its symbol, in
    pair alphabet order; the columns are read and written directly.
    """
    pairs = pair_alphabet(t)
    expected = tuple(osorted(bag_alphabet(t)))
    if aut.alphabet != expected:
        raise SupertwError("lift_to_pairs needs the full t-bag alphabet")
    sub_pos = {sym: i for i, sym in enumerate(expected)}
    by_sub = [[] for _ in expected]  # symbol position -> pair positions
    for i, p in enumerate(pairs):
        by_sub[sub_pos[p.sub]].append(i)
    cols = int_columns()
    add_l, add_r, add_s, add_q = (col.append for col in cols)
    for l, r, si, q in zip(*aut.columns):
        for pi in by_sub[si]:
            add_l(l)
            add_r(r)
            add_s(pi)
            add_q(q)
    return TreeAutomaton.from_columns(pairs, aut.states, aut.final_ids, cols)


def _phi_automaton(phi, t1, simple, budget):
    """Reduced automaton for phi at t1 labels, and whether a cache answered;
    with `simple`, its intersection with the simplicity automaton (the
    conjunction), which `_PHI_CACHE` holds under (phi, t1)."""
    compiled = is_compiled(phi, t1)
    aut = compile_formula(phi, t1, budget)
    if not simple:
        return aut, compiled

    def make():
        return reduce_bisim(trim(intersect(aut, simple_automaton(t1), budget), budget),
                            budget)

    aut, hit = _PHI_CACHE.fetch((phi, t1), budget, make)
    return aut, hit or compiled


def _sub_automaton(phi, t1, simple, paired, aut, budget):
    """Reduced sub-closure of `aut`, which `_phi_automaton` gave for (phi,
    t1, simple) under this budget, and whether a cache answered."""
    def make():
        closed = sub_closure_paired(aut, budget) if paired else sub_closure(aut, budget)
        return reduce_bisim(closed, budget)

    return _SUB_CACHE.fetch((phi, t1, simple, paired), budget, make)


def _start(budget):
    """Clock and budget reading at the start of a stage."""
    return time.monotonic(), budget.used


def _stage(stats, name, start, budget, aut=None, cached=None):
    """Record a stage: its seconds and `charged`, the transitions it added
    to `budget.used`, plus the result's size and whether a cache answered."""
    t0, used0 = start
    entry = {"seconds": round(time.monotonic() - t0, 3),
             "charged": budget.used - used0}
    if aut is not None:
        entry["states"] = len(aut.states)
        entry["transitions"] = aut.n_transitions
    if cached is not None:
        entry["cached"] = cached
    stats[name] = entry


def _relabel(gprime: Graph):
    """Replace decoded tuple ids by u0../e0.. so the witness serializes and
    round-trips through JSON; returns (graph, old-vertex -> new-vertex)."""
    vmap = {v: f"u{i}" for i, v in enumerate(osorted(gprime.vertices))}
    edges = {}
    for i, e in enumerate(osorted(gprime.edges)):
        ends = gprime.ends[e]
        edges[f"e{i}"] = frozenset(vmap[x] for x in ends) if ends else frozenset()
    return Graph(vmap.values(), edges), vmap


def _reconstruct(g, phi, t1, a_g, phi_aut, sp, budget, simple, stats):
    """Extract, decode and re-verify a witness from the paired product.

    Only the prefix of the product that decides its witness is built
    (`witness_prefix`), and `extract_witness` reads the same witness from
    it as from the whole product. It goes to `extract_witness` untrimmed,
    and the `paired_product` stage reports the prefix as built. Trimming
    would not change the witness: it is built from useful states only, and
    a rule into a useful state has only useful children. The lift, the
    product and the extraction run on int columns, so none of the
    product's transitions is ever built as a tuple; the stage counts them
    with `n_transitions`."""
    start = _start(budget)
    lifted = lift_to_pairs(a_g, t1)
    prod = witness_prefix(lifted, sp, budget)
    wterm = extract_witness(prod, budget)
    _stage(stats, "paired_product", start, budget, prod)
    if wterm is None:
        raise SupertwError("paired product empty despite nonempty plain product")

    start = _start(budget)
    tsub = map_symbols(lambda p: p.sub, wterm)
    tsup = map_symbols(lambda p: p.sup, wterm)
    gsub = decode_graph(tsub)
    gprime = decode_graph(tsup)

    # re-verification, independent of the construction above
    if width(tsup) > t1 - 1:
        raise SupertwError("witness decomposition exceeds the width bound")
    if not is_sub_decomposition(tsub, tsup):
        raise SupertwError("witness projections are not sub-related")
    if not accepts(phi_aut, tsup):
        raise SupertwError("witness decomposition rejected by the formula automaton")
    emb0 = embeds_as_subgraph(g, gsub)
    if emb0 is None:
        raise SupertwError("first projection does not embed the input graph")
    if len(gprime.vertices) <= EVAL_RECHECK_VERTICES:
        if not eval_direct(phi, gprime):
            raise SupertwError("witness graph fails the direct evaluator")
        if simple and _has_parallel_edges(gprime):
            raise SupertwError("witness graph is not simple")

    relabeled, vmap = _relabel(gprime)
    embedding = {v: vmap[emb0[v]] for v in osorted(g.vertices)}
    # gsub's vertices and edges are literally gprime's (shared positions)
    if embeds_as_subgraph(g, relabeled) is None:
        raise SupertwError("embedding re-check failed after relabeling")
    _stage(stats, "verify", start, budget)
    return Witness(relabeled, tsup, embedding)


def _has_parallel_edges(g: Graph) -> bool:
    seen = set()
    for e in g.edges:
        ends = g.ends[e]
        if ends in seen:
            return True
        seen.add(ends)
    return False


@gc_paused()
def _decide(g, phi, t, simple, budget, want_witness):
    if t < 1:
        raise ValueError("treewidth bound must be at least 1")
    if free_vars(phi):
        raise CmsoKindError("supergraph solving needs a closed formula")
    if not is_connected(g):
        raise NotConnectedError("input graph must be connected")
    if budget is None:
        budget = Budget(DEFAULT_MAX_TRANSITIONS)
    t1 = t + 1
    stats = {"t": t, "labels": t1}

    start = _start(budget)
    phi_aut, cached = _phi_automaton(phi, t1, simple, budget)
    _stage(stats, "compile", start, budget, phi_aut, cached=cached)

    start = _start(budget)
    sub_aut, cached = _sub_automaton(phi, t1, simple, False, phi_aut, budget)
    _stage(stats, "sub_closure", start, budget, sub_aut, cached=cached)

    start = _start(budget)
    a_g = build_all_decompositions(g, t1, budget)
    _stage(stats, "decompositions", start, budget, a_g)

    start = _start(budget)
    answer = intersection_nonempty(a_g, sub_aut, budget)
    _stage(stats, "emptiness", start, budget)
    stats["answer"] = answer

    witness = None
    if answer and want_witness:
        start = _start(budget)
        sp, cached = _sub_automaton(phi, t1, simple, True, phi_aut, budget)
        _stage(stats, "sub_closure_paired", start, budget, sp, cached=cached)
        witness = _reconstruct(g, phi, t1, a_g, phi_aut, sp, budget,
                               simple, stats)
        stats["witness"] = {
            "vertices": len(witness.graph.vertices),
            "edges": len(witness.graph.edges),
        }
    return SupergraphVerdict(answer, witness, stats)


def has_supergraph(g: Graph, phi, t: int, *, budget: Budget | None = None,
                   want_witness: bool = False) -> SupergraphVerdict:
    """Decide whether g has a supergraph of treewidth <= t satisfying phi.

    phi must be a closed formula and g connected. The verdict's stats map
    carries per-stage state/transition counts, timings and `charged`, the
    transitions the stage added to the budget's `used`; with
    want_witness a verified witness supergraph is attached on YES, and
    the stats add the `sub_closure_paired`, `paired_product` and `verify`
    stages. `paired_product` reports the part of the paired product that
    was built, untrimmed: the prefix that decides the witness.
    """
    return _decide(g, phi, t, False, budget, want_witness)


def witness_supergraph(g: Graph, phi, t: int, *, budget: Budget | None = None):
    """(supergraph, its concrete decomposition) on YES, None on NO."""
    verdict = _decide(g, phi, t, False, budget, True)
    if not verdict.answer:
        return None
    return verdict.witness.graph, verdict.witness.decomposition


def preset_formula(preset):
    """Formula for a named problem: {"diam": d} or {"vertex_cover": k}."""
    if not isinstance(preset, dict) or len(preset) != 1:
        raise ValueError("preset must be {'diam': d} or {'vertex_cover': k}")
    (name, value), = preset.items()
    if name == "diam":
        return gen_diam(value)
    if name == "vertex_cover":
        return gen_vertex_cover(value)
    raise ValueError(f"unknown preset {name!r}")


def solve_named(g: Graph, preset, t: int, *, budget: Budget | None = None,
                want_witness: bool = False) -> SupergraphVerdict:
    """has_supergraph for a named problem, restricted to simple witnesses.

    The diameter / vertex-cover readings assume simple graphs, so the
    preset formula is conjoined with a no-parallel-edges condition
    (realized as an automaton intersection, which is the same language as
    compiling the conjunction).
    """
    phi = preset_formula(preset)
    return _decide(g, phi, t, True, budget, want_witness)
