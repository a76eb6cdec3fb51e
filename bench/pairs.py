"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 bench/pairs.py PARENT_DIR CHANGE_DIR --workload warm_witness \
        --seeds 1 2 3 --out bench.json

PARENT_DIR and CHANGE_DIR are two source checkouts. For each seed this
runs each checkout's own `perfbench/run.py --trace 0` once, alternating
which side goes first, and reads its end-to-end metrics from the last
stdout line and its per-solve records from `perfbench/out/`. The entry
for the workload in `--out` is replaced (other workloads in the file are
kept). It holds, per seed, both sides' metrics, their per-instance
median solve times and slowest instance (from the `notes` of the
`perfbench/out` record, each instance labelled `formula/shape`), whether
every instance's answer and witness SHA-256 agree
(`answers_and_witnesses_identical`) and, apart from that, whether its
charge does (`charges_identical`: a change that lowers charges reads
false there and nowhere else); per
end-to-end metric of `BENCHMARK.json`, both medians, their ratio
(`change_over_parent`), the parent's quartile spread, the number of pairs
the change wins, the metric's `bound` and a `verdict` against it: "worse"
if the change's median is worse by more than the bound, "unresolved" if
the parent's quartile spread exceeds the bound times the parent's median
and some change run is not better than every parent run, else "holds",
and for an "unresolved" solve-time metric an `instance_verdict` read on
the per-instance medians instead; per instance label
(`instance_summary`), both sides' median across pairs and the pairs the
change wins; each side's total of failed operations
over all pairs; and each checkout's `src` line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path


def run_side(checkout, workload, seed, seconds):
    """One `perfbench/run.py` run in `checkout`: (result line, the
    (id, answer, charged, digest) of its solves, per-instance medians and
    slowest instance by label)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    got = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {got.returncode}\n"
                         f"{got.stderr}")
    result = json.loads(lines[-1])
    record = json.loads((Path(checkout) / "perfbench" / "out"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    solves = sorted({(r["id"], r["answer"], r["charged"], r["digest"])
                     for s in record["solves"] for r in s["records"]},
                    key=repr)
    labels = instance_labels(record["instances"])
    notes = record["notes"]
    per_instance = {"instance_medians": {labels[i]: m for i, m
                                         in sorted(notes["instance_medians"].items())},
                    "tail_instance": labels.get(notes["tail_instance"])}
    return result, solves, per_instance


def outcomes(solves):
    """Each solve's (id, answer, witness digest), without its charge."""
    return sorted({(i, answer, digest) for i, answer, _c, digest in solves},
                  key=repr)


def charges(solves):
    """Each solve's (id, charged)."""
    return sorted({(i, charged) for i, _a, charged, _d in solves}, key=repr)


def instance_labels(instances):
    """Instance id -> `formula/shape`, with the id added where a label repeats."""
    labels = {i["id"]: f"{i['formula']}/{i['shape']}" for i in instances}
    counts = Counter(labels.values())
    return {i: f"{lab} ({i})" if counts[lab] > 1 else lab for i, lab in labels.items()}


def src_lines(checkout):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((Path(checkout) / "src").rglob("*.py")))


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, sign, bound):
    """"worse" if the change's median is worse than the parent's by more
    than `bound` times it; "unresolved" if the parent's quartile spread
    exceeds that margin and some change run is not better than every
    parent run; else "holds". sign is 1 where lower is better, -1 where
    higher is."""
    p_med = statistics.median(parent)
    margin = bound * abs(p_med)
    if sign * (statistics.median(change) - p_med) > margin:
        return "worse"
    best = min(sign * p for p in parent)
    if quartile_spread(parent) > margin and any(sign * c >= best for c in change):
        return "unresolved"
    return "holds"


def instance_verdict(instances, bound):
    """"worse" if some instance's change median solve time is worse than
    its parent median by more than `bound` times it, else "holds"."""
    worse = any(s["change_median"] - s["parent_median"] > bound * s["parent_median"]
                for s in instances.values())
    return "worse" if worse else "holds"


def summarize(pairs, metrics, instances):
    """Per end-to-end metric of BENCHMARK.json: medians, their ratio, the
    parent's quartile spread, pairs the change wins and the bound verdict.
    A solve-time metric (`solve_s_*`) that reads "unresolved" also gets
    the `instance_verdict` of `instances` (`summarize_instances`): its
    pooled samples are the solves, which the per-instance medians split
    by instance, so one instance's spread no longer hides another's."""
    out = {}
    for name, spec in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {"parent_median": p_med, "change_median": c_med,
                     "change_over_parent": c_med / p_med if p_med else None,
                     "parent_quartile_spread": quartile_spread(parent),
                     "change_wins": wins, "pairs": len(pairs),
                     "bound": spec["bound"],
                     "verdict": verdict(parent, change, sign, spec["bound"])}
        if out[name]["verdict"] == "unresolved" and name.startswith("solve_s"):
            out[name]["instance_verdict"] = instance_verdict(instances, spec["bound"])
    return out


def summarize_instances(pairs):
    """Per instance label: both sides' median solve time across the pairs
    that ran it, and the pairs the change wins (lower is better)."""
    out = {}
    labels = sorted({lab for p in pairs for lab in p["parent"]["instance_medians"]})
    for lab in labels:
        both = [(p["parent"]["instance_medians"][lab], p["change"]["instance_medians"][lab])
                for p in pairs if lab in p["parent"]["instance_medians"]
                and lab in p["change"]["instance_medians"]]
        out[lab] = {"parent_median": statistics.median(p for p, _ in both),
                    "change_median": statistics.median(c for _, c in both),
                    "change_wins": sum(c < p for p, c in both), "pairs": len(both)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="source checkout of the parent commit")
    ap.add_argument("change", help="source checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", required=True, help="JSON file to update")
    args = ap.parse_args(argv)

    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    pairs = []
    for k, seed in enumerate(args.seeds):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": sides[0]}
        solves = {}
        for side in sides:
            result, solves[side], per_instance = run_side(
                getattr(args, side), args.workload, seed, args.seconds)
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            pair[side]["failed"] = result["failed"]
            pair[side]["correct"] = result["correct"]
            pair[side].update(per_instance)
        pair["answers_and_witnesses_identical"] = (
            outcomes(solves["parent"]) == outcomes(solves["change"]))
        pair["charges_identical"] = (
            charges(solves["parent"]) == charges(solves["change"]))
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    instances = summarize_instances(pairs)
    doc.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds, "pairs": pairs,
        "failed": {side: sum(p[side]["failed"] for p in pairs)
                   for side in ("parent", "change")},
        "summary": summarize(pairs, metrics, instances),
        "instance_summary": instances}
    doc["src_lines"] = {"parent": src_lines(args.parent),
                        "change": src_lines(args.change)}
    doc["host"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
