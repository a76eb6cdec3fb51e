"""Bounded-treewidth supergraph solver.

Given a connected bounded-degree multigraph G, a CMSO sentence, and a width
bound t, decide whether some supergraph of G has treewidth <= t and satisfies
the sentence; on YES, produce a concrete witness supergraph together with its
tree decomposition. The engine compiles the sentence to a bottom-up tree
automaton over concrete tree decompositions, closes it under
sub-decompositions, intersects with an automaton accepting exactly the
decompositions of G, and tests emptiness.
"""

from .all_decomps import build_all_decompositions
from .cmso.compile import compile
from .cmso.evaluate import eval_direct
from .cmso.parser import parse
from .decomp import (bag_alphabet, decode_graph, decomposition_to_json, encode,
                     enumerate_sub_decompositions, width)
from .errors import (AlphabetMismatchError, CmsoKindError, CmsoSyntaxError,
                     InvalidGraphError, NotConnectedError,
                     ResourceExceededError, SupertwError)
from .graph import (Graph, diameter, graph_from_json, graph_to_json,
                    is_connected, load_graph)
from .oracle import (SupergraphBudget, exact_treewidth, optimal_decomposition,
                     search_supergraph)
from .solver import (SupergraphVerdict, Witness, has_supergraph, solve_named,
                     witness_supergraph)
from .subdecomp import sub_closure, sub_closure_paired
from .terms import Term, enumerate_terms, term
from .tree_automata import (TreeAutomaton, extract_witness, intersect,
                            reduce_bisim, run, trim)
from .util import Budget

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatchError",
    "Budget",
    "CmsoKindError",
    "CmsoSyntaxError",
    "Graph",
    "InvalidGraphError",
    "NotConnectedError",
    "ResourceExceededError",
    "SupergraphBudget",
    "SupergraphVerdict",
    "SupertwError",
    "Term",
    "TreeAutomaton",
    "Witness",
    "bag_alphabet",
    "build_all_decompositions",
    "compile",
    "decode_graph",
    "decomposition_to_json",
    "diameter",
    "encode",
    "enumerate_sub_decompositions",
    "enumerate_terms",
    "eval_direct",
    "exact_treewidth",
    "extract_witness",
    "graph_from_json",
    "graph_to_json",
    "has_supergraph",
    "intersect",
    "is_connected",
    "load_graph",
    "optimal_decomposition",
    "parse",
    "reduce_bisim",
    "run",
    "search_supergraph",
    "solve_named",
    "sub_closure",
    "sub_closure_paired",
    "term",
    "trim",
    "width",
    "__version__",
]
