"""North-star compiles, each in a fresh process, parent and change alternating.

    python3 bench/north_star.py PARENT_DIR CHANGE_DIR --out bench.json

PARENT_DIR and CHANGE_DIR are two source checkouts. Each run of an
instance starts one interpreter per side, with that checkout's `src` on
PYTHONPATH and a 3 GB address-space limit; each instance runs RUNS times,
and run k starts the parent first when k is even, the change first when
it is odd. The instances are:

- `compile_diam1_t4`: compile(gen_diam(1), 4) from empty caches, with
  its seconds, `charged` (Budget.used), `ru_maxrss_kb`, states,
  transitions and the SHA-256 of its canonical JSON dump;
- `compile_diam2_t3_capped`: compile(gen_diam(2), 3) under
  Budget(5 * 10**6), which stops it with a ResourceExceededError; its
  seconds, `ru_maxrss_kb` at that point, and the error's stage and
  count. `bytes_per_charged` is `ru_maxrss` over the cap.

The entry of each instance in `--out` is replaced; other keys are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CAP = 5 * 10 ** 6
RUNS = 2
MEM_LIMIT = 3 * 1024 ** 3

CHILD = r"""
import hashlib, json, resource, sys, time
name, cap, mem_limit = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
resource.setrlimit(resource.RLIMIT_AS, (mem_limit, mem_limit))
from supertw.cmso.compile import compile
from supertw.cmso.generators import gen_diam
from supertw.errors import ResourceExceededError
from supertw.tree_automata import to_json
from supertw.util import Budget
out = {}
t0 = time.monotonic()
if name == "compile_diam1_t4":
    budget = Budget(None)
    aut = compile(gen_diam(1), 4, budget)
    out["seconds"] = round(time.monotonic() - t0, 2)
    out["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["charged"] = budget.used
    out["states"] = len(aut.states)
    out["transitions"] = aut.n_transitions
    text = json.dumps(to_json(aut), sort_keys=True)
    out["sha256"] = hashlib.sha256(text.encode()).hexdigest()
else:
    try:
        compile(gen_diam(2), 3, Budget(cap))
        out["error"] = None
    except ResourceExceededError as err:
        out["error"] = {"stage": err.stage, "count": err.count}
    out["seconds"] = round(time.monotonic() - t0, 2)
    out["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["bytes_per_charged"] = round(out["ru_maxrss_kb"] * 1024 / cap, 1)
print(json.dumps(out))
"""

WHAT = {
    "compile_diam1_t4": "compile(gen_diam(1), 4) from empty caches in a fresh "
                        "process; seconds are wall time, charged is Budget.used, "
                        "sha256 that of its canonical JSON dump",
    "compile_diam2_t3_capped": f"compile(gen_diam(2), 3) under Budget({CAP}) in a "
                               "fresh process, up to its ResourceExceededError; "
                               "bytes_per_charged is ru_maxrss over the cap",
}


def run_one(checkout, name):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    got = subprocess.run([sys.executable, "-c", CHILD, name, str(CAP), str(MEM_LIMIT)],
                         cwd=checkout, env=env, capture_output=True, text=True)
    if got.returncode != 0:
        raise SystemExit(f"{checkout} {name}: exit {got.returncode}\n{got.stderr}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    for name in sorted(WHAT):
        runs = {"parent": [], "change": []}
        for k in range(RUNS):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                res = run_one(getattr(args, side), name)
                runs[side].append(res)
                print(name, side, json.dumps(res), flush=True)
        doc[name] = {"what": WHAT[name], "runs": runs}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
