"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 bench/pairs.py PARENT_DIR CHANGE_DIR --workload warm_witness \
        --seeds 1 2 3 --out bench.json

PARENT_DIR and CHANGE_DIR are two source checkouts. For each seed this
runs each checkout's own `perfbench/run.py --trace 0` once, alternating
which side goes first, and reads its end-to-end metrics from the last
stdout line and its per-solve records from `perfbench/out/`. The entry
for the workload in `--out` is replaced (other workloads in the file are
kept). It holds, per seed, both sides' metrics and whether every
instance's answer, charge and witness SHA-256 agree; per metric, both
medians, the parent's quartile spread, and the number of pairs the
change wins; and each checkout's `src` line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout, workload, seed, seconds):
    """One `perfbench/run.py` run in `checkout`: (result line, solve records)."""
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
    return result, solves


def src_lines(checkout):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((Path(checkout) / "src").rglob("*.py")))


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs, better):
    """Per metric: medians, parent quartile spread, pairs the change wins."""
    out = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        out[name] = {"parent_median": statistics.median(parent),
                     "change_median": statistics.median(change),
                     "parent_quartile_spread": quartile_spread(parent),
                     "change_wins": wins, "pairs": len(pairs)}
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
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for k, seed in enumerate(args.seeds):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": sides[0]}
        solves = {}
        for side in sides:
            result, solves[side] = run_side(getattr(args, side), args.workload,
                                            seed, args.seconds)
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            pair[side]["failed"] = result["failed"]
            pair[side]["correct"] = result["correct"]
        pair["solves_identical"] = solves["parent"] == solves["change"]
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds, "pairs": pairs,
        "summary": summarize(pairs, better)}
    doc["src_lines"] = {"parent": src_lines(args.parent),
                        "change": src_lines(args.change)}
    doc["host"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
