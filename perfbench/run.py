"""Benchmark runner for supertw: three workloads, verdicts checked, optional trace.

    python3 perfbench/run.py --workload warm_decide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The load is a closed loop: this process starts one workload child
(`child.py`) at a time, each single-threaded, solving one instance after
another. A *pass* solves every instance of the workload's seeded list once
(`workloads.py`). `cold_compile` runs each solve in a fresh interpreter;
the warm workloads run a whole pass in one child after its warm-up. A run
makes a minimum number of passes and adds passes while the measured solve
time is below `--seconds`. Each child gets its own PYTHONHASHSEED and an
address-space limit, and each solve an explicit Budget(10**8).

`--trace 0` prints the end-to-end metrics; `--trace 1` makes one untraced
and one traced pass and prints the per-layer metrics, named
`<module>.<function>.<quantity>` after the layer functions `supertw.solver`
calls (see `tracing.py`).

Every verdict is checked against `expected.json`; every witness is
re-checked outside the timed region (the input embeds, the claimed
embedding is one, the oracle's exact treewidth is within the bound, the
direct evaluator holds, preset witnesses are simple). Answers, charged
transitions and witness digests must agree across passes and hash seeds.
Each failed solve counts in `failed`. The last stdout line is the JSON
result; the full record (provenance, per-solve records, witness SHA-256
digests, spans) goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracing import LAYERS, ROOT_SPAN
from workloads import PRESETS, T, WORKLOADS, load_expected, make_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MAX_TRANSITIONS = 10 ** 8
MEM_LIMIT_BYTES = 2 * 1024 ** 3  # address space of each child
RUN_DEADLINE_S = 160  # a run ends well within 180 s, even if children hang

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "peak_rss_mb": "MB",
    "transitions_charged": "count",
}


_prctl = ctypes.CDLL(None, use_errno=True).prctl
_prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
_prctl.restype = ctypes.c_int
PR_SET_PDEATHSIG = 1


def _child_setup():
    """Runs in each child before exec: cap its address space, and have it
    killed should this process die first."""
    resource.setrlimit(resource.RLIMIT_AS, (MEM_LIMIT_BYTES, MEM_LIMIT_BYTES))
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def run_child(job, hashseed, deadline):
    """Run one child to completion; (result, None) or (None, error)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=str(SRC))
    job = dict(job, spawn_t=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=_child_setup)
    try:
        out, err = proc.communicate(json.dumps(job).encode(),
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "child timed out"
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode().strip().splitlines()[-1:] or [""]
        return None, f"child exit {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), None


def run_passes(workload, instances, trace, seconds):
    """Children for the run; returns a list of passes, each a list of
    (traced, result or None, error or None, instances of that child)."""
    spec = WORKLOADS[workload]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    base = {"warmup": list(spec["warmup"]), "witness": spec["witness"],
            "max_transitions": MAX_TRANSITIONS}
    groups = ([[inst] for inst in instances] if spec["fresh_per_instance"]
              else [instances])
    plan = [False, True] if trace else [False] * spec["min_passes"]
    passes, measured, longest, hashseed = [], 0.0, 0.0, 0
    while plan or (not trace and measured < seconds
                   and time.monotonic() + longest < deadline):
        traced = plan.pop(0) if plan else False
        t0 = time.monotonic()
        children = []
        for group in groups:
            hashseed += 1
            res, err = run_child(dict(base, instances=group, trace=traced),
                                 hashseed, deadline)
            children.append((traced, res, err, group))
            if res is not None:
                measured += sum(r["seconds"] or 0.0 for r in res["instances"])
        passes.append(children)
        longest = max(longest, time.monotonic() - t0)
    return passes


# ---------------------------------------------------------------- checking

def recheck_witness(inst, witness):
    """Benchmark-side checks of a witness; returns a reason or None."""
    from check_expected import formula_ast, is_simple
    from supertw.cmso.evaluate import eval_direct
    from supertw.graph import embeds_as_subgraph, graph_from_json
    from supertw.oracle import exact_treewidth

    g = graph_from_json(inst["graph"])
    w = graph_from_json(witness["graph"])
    emb = {v: u for v, u in witness["embedding"]}
    if embeds_as_subgraph(g, w) is None:
        return "input does not embed in the witness"
    if (sorted(emb) != sorted(g.vertices) or len(set(emb.values())) != len(emb)
            or not set(emb.values()) <= set(w.vertices)):
        return "claimed embedding is not an injective vertex map"
    for e in g.edges:
        image = frozenset(emb[v] for v in g.ends[e])
        want = sum(1 for f in g.edges if g.ends[f] == g.ends[e])
        if sum(1 for f in w.edges if w.ends[f] == image) < want:
            return "claimed embedding drops an edge"
    if exact_treewidth(w) > T:
        return "witness treewidth exceeds the bound"
    if not eval_direct(formula_ast(inst["formula"]), w):
        return "witness fails the direct evaluator"
    if inst["formula"] in PRESETS and not is_simple(w):
        return "preset witness is not simple"
    return None


def check(workload, passes):
    """Per-solve failures: [(instance id, reason)], and solve count."""
    expected = load_expected()
    want_witness = WORKLOADS[workload]["witness"]
    failures, attempted = [], 0
    reference, rechecked = {}, {}
    for children in passes:
        for _, res, err, group in children:
            records = {r["id"]: r for r in res["instances"]} if res else {}
            for inst in group:
                attempted += 1
                rec = records.get(inst["id"])
                reason = err if rec is None else _solve_failure(
                    inst, rec, expected, want_witness, reference, rechecked)
                if reason:
                    failures.append((inst["id"], reason))
    return failures, attempted


def _solve_failure(inst, rec, expected, want_witness, reference, rechecked):
    if rec["error"]:
        return rec["error"]
    if rec["answer"] != expected[inst["formula"]][inst["shape"]]:
        return f"wrong verdict {rec['answer']}"
    if want_witness and rec["answer"]:
        if rec["witness"] is None:
            return "YES without a witness"
        key = (inst["id"], rec["digest"])
        if key not in rechecked:
            rechecked[key] = recheck_witness(inst, rec["witness"])
        if rechecked[key]:
            return rechecked[key]
    seen = (rec["answer"], rec["charged"], rec["digest"])
    first = reference.setdefault(inst["id"], seen)
    if seen != first:
        return f"not deterministic across hash seeds: {seen} vs {first}"
    return None


# ---------------------------------------------------------------- metrics

def end_to_end(passes):
    setups, rss, walls, times, charged = [], [], [], [], None
    by_id = {}
    for children in passes:
        complete = all(res is not None for _, res, _, _ in children)
        wall = pass_charged = 0
        for _, res, _, _ in children:
            if res is None:
                continue
            setups.append(res["setup_s"])
            rss.append(res["rss_mb"])
            pass_charged += res["setup_charged"]
            for r in res["instances"]:
                complete = complete and r["seconds"] is not None
                if r["seconds"] is not None:
                    times.append(r["seconds"])
                    by_id.setdefault(r["id"], []).append(r["seconds"])
                    wall += r["seconds"]
                    pass_charged += r["charged"]
        if complete:
            walls.append(wall)
            charged = pass_charged if charged is None else charged
    # the slowest instance, at its median over the run's passes
    slowest, slowest_id = max(((statistics.median(ts), i) for i, ts in by_id.items()),
                              default=(0.0, None))
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(walls) if walls else 0.0,
        "solve_s_p50": statistics.median(times) if times else 0.0,
        "solve_s_tail": slowest,
        "peak_rss_mb": max(rss) if rss else 0.0,
        "transitions_charged": charged or 0,
    }
    notes = {"solve_samples": len(times), "tail_instance": slowest_id,
             "instance_medians": {i: statistics.median(ts) for i, ts in by_id.items()},
             "setup_samples": len(setups), "passes": len(passes),
             "complete_passes": len(walls)}
    return metrics, notes


def span_tables(spans):
    """Self time of each span; raises ValueError when the spans do not nest
    or the self times under a root do not add up to the root's duration."""
    self_s = [s["end"] - s["start"] for s in spans]
    root, last_end = [], {}
    for i, s in enumerate(spans):
        p = s["parent"]
        root.append(i if p is None else root[p])
        if p is None:
            continue
        parent = spans[p]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            raise ValueError(f"span {i} ({s['name']}) leaves its parent")
        if s["start"] < last_end.get(p, parent["start"]):
            raise ValueError(f"span {i} ({s['name']}) overlaps a sibling")
        last_end[p] = s["end"]
        self_s[p] -= s["end"] - s["start"]
    inside = Counter()
    for r, own in zip(root, self_s):
        inside[r] += own
    for r, total in inside.items():
        if abs(total - (spans[r]["end"] - spans[r]["start"])) > 1e-6:
            raise ValueError(f"self times under root span {r} do not add up")
    return self_s


LAYER_NAMES = list(dict.fromkeys(LAYERS.values()))
LAYER_QUANTITIES = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
                    "charged": ("count", "lower"), "out_states": ("count", "lower"),
                    "out_transitions": ("count", "lower")}
# name -> (unit, better) of every per-layer metric, in print order
PER_LAYER = {f"{layer}.{q}": spec for layer in LAYER_NAMES
             for q, spec in LAYER_QUANTITIES.items()}
PER_LAYER.update({
    "tree_automata.trim.kept_frac": ("ratio", "higher"),
    "tree_automata.trim.in_transitions": ("count", "lower"),
    "tree_automata.reduce_bisim.kept_frac": ("ratio", "higher"),
    "tree_automata.reduce_bisim.in_states": ("count", "lower"),
    "cmso.compile.compile.cache_hit_frac": ("ratio", "higher"),
    "solver.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def per_layer(passes):
    """Per-layer metrics of the traced pass (set-up included), the share of
    each layer in the traced solve time (set-up excluded), and the
    traced-minus-untraced pass time."""
    agg = defaultdict(Counter)
    pass_roots = 0.0
    walls = Counter()
    for children in passes:
        for traced, res, _, _ in children:
            if res is None:
                continue
            walls[traced] += sum(r["seconds"] or 0.0 for r in res["instances"])
            if not traced:
                continue
            spans = res["spans"]
            for s, own in zip(spans, span_tables(spans)):
                a = agg[s["name"]]
                a["calls"] += 1
                a["self_s"] += own
                for k in ("charged", "out_states", "out_transitions",
                          "in_states", "in_transitions"):
                    a[k] += s[k]
                a["zero_charge"] += s["charged"] == 0
                if not str(s["instance"]).startswith("setup:"):
                    a["pass_self_s"] += own
                    if s["parent"] is None:
                        pass_roots += s["end"] - s["start"]
    metrics = {f"{layer}.{q}": agg[layer][q]
               for layer in LAYER_NAMES for q in LAYER_QUANTITIES}
    trim, red = agg["tree_automata.trim"], agg["tree_automata.reduce_bisim"]
    comp = agg["cmso.compile.compile"]
    metrics.update({
        "tree_automata.trim.kept_frac": _ratio(trim["out_transitions"],
                                               trim["in_transitions"]),
        "tree_automata.trim.in_transitions": trim["in_transitions"],
        "tree_automata.reduce_bisim.kept_frac": _ratio(red["out_states"],
                                                       red["in_states"]),
        "tree_automata.reduce_bisim.in_states": red["in_states"],
        "cmso.compile.compile.cache_hit_frac": _ratio(comp["zero_charge"],
                                                      comp["calls"]),
        "solver.self_s": agg[ROOT_SPAN]["self_s"],
        "trace.overhead_s": walls[True] - walls[False],
    })
    shares = {name: _ratio(a["pass_self_s"], pass_roots) for name, a in agg.items()}
    return metrics, shares


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- output

def provenance():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(SRC.rglob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "supertw" / "__init__.py").is_file():
        print(f"error: no supertw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    instances = make_pass(args.workload, args.seed)
    passes = run_passes(args.workload, instances, bool(args.trace), args.seconds)
    failures, attempted = check(args.workload, passes)
    correct = not failures
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(), "instances": instances}
    if args.trace:
        try:
            values, shares = per_layer(passes)
        except ValueError as exc:
            print(f"trace check failed: {exc}")
            correct = False
            values, shares = {name: 0 for name in PER_LAYER}, {}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        record["stage_shares"] = shares
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"share of solve time (setup excluded) {name}: {share:.3f}")
        dominant = WORKLOADS[args.workload]["dominant"]
        record["dominant_share"] = sum(shares.get(name, 0.0) for name in dominant)
        print(f"dominant layers {', '.join(dominant)} carry "
              f"{record['dominant_share']:.3f} of it")
    else:
        values, notes = end_to_end(passes)
        units = END_TO_END
        record["notes"] = notes
        print(f"{notes['solve_samples']} solves; solve_s_tail is p100 of "
              f"{len(notes['instance_medians'])} per-instance medians "
              f"(slowest: {notes['tail_instance']}); setup_s is the median of "
              f"{notes['setup_samples']} set-ups; {notes['complete_passes']}/"
              f"{notes['passes']} passes complete")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["solves"] = [
        {"pass": p, "traced": traced, "error": err,
         "records": [{k: v for k, v in r.items() if k != "witness"}
                     for r in (res["instances"] if res else [])],
         "setup_s": res["setup_s"] if res else None}
        for p, children in enumerate(passes) for traced, res, err, _ in children]
    if args.trace:
        record["spans"] = [res["spans"] for children in passes
                           for traced, res, _, _ in children if traced and res]
    record["failures"] = failures
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for inst_id, reason in failures:
        print(f"FAILED {inst_id}: {reason}")
    failed_frac = len(failures) / attempted if attempted else 1.0
    print(f"failed_frac = {failed_frac:.4f} ({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
