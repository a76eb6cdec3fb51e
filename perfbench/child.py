"""One workload child: import, warm up, then solve a list of instances.

Reads a job (JSON) on stdin, writes one JSON result line on stdout. The
parent, `run.py`, starts it with `src/` on PYTHONPATH, a chosen
PYTHONHASHSEED and an address-space limit. Every solve runs under its own
explicit `Budget`; an instance that raises (budget, memory or any other
error) is reported with its error and the child goes on to the next one.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import FORMULA_FILES, PRESETS, T, WARMUP_SHAPE, shape_graph_json

HERE = Path(__file__).resolve().parent


def main():
    job = json.load(sys.stdin)
    from supertw import solver
    from supertw.cmso.parser import parse
    from supertw.graph import graph_from_json
    from supertw.util import Budget

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(solver)

    names = sorted(set(job["warmup"]) | {inst["formula"] for inst in job["instances"]})
    formulas = {name: parse((HERE / FORMULA_FILES[name]).read_text(encoding="utf-8"))
                for name in names if name in FORMULA_FILES}

    def solve(name, graph, instance):
        budget = Budget(job["max_transitions"])
        want = job["witness"]
        span = nullcontext() if tracer is None else tracer.root(instance, budget)
        t0 = time.perf_counter()
        with span:
            verdict = _call(solver, name, formulas, graph, budget, want)
        return verdict, time.perf_counter() - t0, budget.used

    setup_charged = 0
    warm_graph = graph_from_json(shape_graph_json(WARMUP_SHAPE))
    for name in job["warmup"]:
        setup_charged += solve(name, warm_graph, f"setup:{name}")[2]
    setup_s = time.monotonic() - job["spawn_t"]

    records = []
    for inst in job["instances"]:
        rec = {"id": inst["id"], "answer": None, "seconds": None, "charged": None,
               "error": None, "witness": None, "digest": None}
        try:
            verdict, rec["seconds"], rec["charged"] = solve(
                inst["formula"], graph_from_json(inst["graph"]), inst["id"])
        except Exception as exc:  # budget, memory or a solver bug: report, go on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["answer"] = verdict.answer
            if verdict.witness is not None:
                rec["witness"] = verdict.witness.to_json()
                text = json.dumps(rec["witness"], sort_keys=True)
                rec["digest"] = hashlib.sha256(text.encode()).hexdigest()
        records.append(rec)

    out = {"setup_s": setup_s, "setup_charged": setup_charged,
           "instances": records,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["spans"] = tracer.spans
    sys.stdout.write(json.dumps(out) + "\n")


def _call(solver, name, formulas, graph, budget, want):
    if name in PRESETS:
        return solver.solve_named(graph, PRESETS[name], T, budget=budget,
                                  want_witness=want)
    return solver.has_supergraph(graph, formulas[name], T, budget=budget,
                                 want_witness=want)


if __name__ == "__main__":
    main()
