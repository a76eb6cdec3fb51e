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
  Budget(5 * 10**6), with its seconds and `ru_maxrss_kb`. A run the cap
  stops records `bytes_per_charged`, `ru_maxrss` over the cap. A run
  that finishes records `charged`, states, transitions and the SHA-256
  as above, and checks the automaton against the evaluator on every
  term of depth at most 2 over the 3-label bag alphabet: `terms`, how
  many satisfy diam=2 (`true`) and the `mismatches`, which must be 0.

Every run records `error`: null, or the ResourceExceededError's stage
and count. The entry of each instance in `--out` is replaced; other
keys are kept.
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
from supertw.cmso.evaluate import eval_direct
from supertw.cmso.generators import gen_diam
from supertw.decomp import bag_alphabet, decode_graph
from supertw.errors import ResourceExceededError
from supertw.terms import enumerate_terms
from supertw.tree_automata import accepts, to_json
from supertw.util import Budget
d, t, budget = (1, 4, Budget(None)) if name == "compile_diam1_t4" else (2, 3, Budget(cap))
phi = gen_diam(d)
out = {}
t0 = time.monotonic()
try:
    aut = compile(phi, t, budget)
    out["error"] = None
except ResourceExceededError as err:
    aut = None
    out["error"] = {"stage": err.stage, "count": err.count}
out["seconds"] = round(time.monotonic() - t0, 2)
out["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if aut is None:
    out["bytes_per_charged"] = round(out["ru_maxrss_kb"] * 1024 / cap, 1)
else:
    out["charged"] = budget.used
    out["states"] = len(aut.states)
    out["transitions"] = aut.n_transitions
    text = json.dumps(to_json(aut), sort_keys=True)
    out["sha256"] = hashlib.sha256(text.encode()).hexdigest()
if aut is not None and d == 2:
    terms = list(enumerate_terms(bag_alphabet(t), 2))
    cache, truth, bad = {}, 0, 0
    for tm in terms:
        want = eval_direct(phi, decode_graph(tm))
        truth += want
        bad += accepts(aut, tm, cache) != want
    out["terms"], out["true"], out["mismatches"] = len(terms), truth, bad
print(json.dumps(out))
"""

WHAT = {
    "compile_diam1_t4": "compile(gen_diam(1), 4) from empty caches in a fresh "
                        "process; seconds are wall time, charged is Budget.used, "
                        "sha256 that of its canonical JSON dump",
    "compile_diam2_t3_capped": f"compile(gen_diam(2), 3) under Budget({CAP}) in a "
                               "fresh process; a stopped run records its "
                               "ResourceExceededError and bytes_per_charged, "
                               "ru_maxrss over the cap; a finished one charged, "
                               "states, transitions, sha256 and its mismatches "
                               "with eval_direct on the terms of depth <= 2",
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
