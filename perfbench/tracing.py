"""Stage spans recorded around the calls `supertw.solver` makes.

`Tracer.install` replaces the layer functions that `supertw.solver` imports
(and its own `simple_automaton` / `lift_to_pairs`) with wrappers, so each
span is a stage boundary of `_decide` / `_reconstruct`. Nothing inside the
layers is traced. The benchmark opens one root span per solve with
`Tracer.root`. Spans stay in memory and are returned by `Tracer.spans`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# solver-module attribute -> span name (<module>.<function> under supertw)
LAYERS = {
    "compile_formula": "cmso.compile.compile",
    "sub_closure": "subdecomp.sub_closure",
    "sub_closure_paired": "subdecomp.sub_closure_paired",
    "build_all_decompositions": "all_decomps.build_all_decompositions",
    "intersection_nonempty": "tree_automata.intersection_nonempty",
    "intersect": "tree_automata.intersect",
    "trim": "tree_automata.trim",
    "reduce_bisim": "tree_automata.reduce_bisim",
    "extract_witness": "tree_automata.extract_witness",
    "simple_automaton": "solver.simple_automaton",
    "lift_to_pairs": "solver.lift_to_pairs",
    # witness re-verification, grouped into one span name
    "decode_graph": "solver.verify",
    "accepts": "solver.verify",
    "is_sub_decomposition": "solver.verify",
    "eval_direct": "solver.verify",
    "embeds_as_subgraph": "solver.verify",
}
ROOT_SPAN = "solver"


def _size(x):
    """(states, transitions) of an automaton, (0, 0) for anything else."""
    states = getattr(x, "states", None)
    transitions = getattr(x, "transitions", None)
    if states is None or transitions is None:
        return 0, 0
    return len(states), len(transitions)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.instance = None
        self.budget = None  # Budget of the running solve, for `charged`

    def _open(self, name):
        rec = {"name": name, "instance": self.instance,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None,
               "charged": 0, "in_states": 0, "in_transitions": 0,
               "out_states": 0, "out_transitions": 0}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec, (self.budget.used if self.budget is not None else 0)

    def _close(self, rec, used0):
        rec["end"] = time.perf_counter()
        self._stack.pop()
        if self.budget is not None:
            rec["charged"] = self.budget.used - used0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec, used0 = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec, used0)
            if args:
                rec["in_states"], rec["in_transitions"] = _size(args[0])
            rec["out_states"], rec["out_transitions"] = _size(out)
            return out
        return traced

    def install(self, solver_module):
        for attr, name in LAYERS.items():
            setattr(solver_module, attr, self.wrap(name, getattr(solver_module, attr)))

    @contextmanager
    def root(self, instance, budget):
        self.instance, self.budget = instance, budget
        rec, used0 = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(rec, used0)
            self.instance = self.budget = None
