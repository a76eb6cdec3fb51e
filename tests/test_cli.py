"""Exercises the installed CLI through subprocesses.

Covers the exit-code contract (0 YES / 1 NO / 2 error), witness export,
deterministic dumps across interpreter hash seeds, and the oracle
subcommands.
"""

import json
import os
import resource
import subprocess
import sys

from supertw.cmso.generators import gen_diam
from supertw.cmso.evaluate import eval_direct
from supertw.graph import graph_from_json, graph_to_json, load_graph
from corpus import complete, path, single_vertex


def run_cli(args, seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run([sys.executable, "-m", "supertw.cli", *args],
                          capture_output=True, text=True, env=env)


def dump(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(json.dumps(graph_to_json(g)))
    return str(p)


def test_solve_yes_writes_witness(tmp_path):
    graph = dump(tmp_path, "p3.json", path(3))
    wpath = tmp_path / "w.json"
    dpath = tmp_path / "w.dot"
    spath = tmp_path / "stats.json"
    res = run_cli(["solve", "--graph", graph, "--preset", "diam=1",
                   "--treewidth", "2", "--witness", str(wpath),
                   "--witness-dot", str(dpath), "--stats", str(spath)])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "YES"
    witness = load_graph(str(wpath))
    assert eval_direct(gen_diam(1), witness)
    obj = json.loads(wpath.read_text())
    assert len(obj["embedding"]) == 3
    assert "--" in dpath.read_text()
    stats = json.loads(spath.read_text())
    assert stats["answer"] is True


def test_solve_no_exit_code(tmp_path):
    graph = dump(tmp_path, "p4.json", path(4))
    res = run_cli(["solve", "--graph", graph, "--preset", "diam=1",
                   "--treewidth", "2"])
    assert res.returncode == 1
    assert res.stdout.strip() == "NO"


def test_solve_disconnected_is_an_error(tmp_path):
    p = tmp_path / "disc.json"
    p.write_text(json.dumps({"vertices": [0, 1], "edges": []}))
    res = run_cli(["solve", "--graph", str(p), "--preset", "diam=1",
                   "--treewidth", "2"])
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert "connected" in err["message"]


def test_solve_with_formula_file(tmp_path):
    graph = dump(tmp_path, "k1.json", single_vertex())
    f = tmp_path / "taut.cmso"
    f.write_text("true\n")
    res = run_cli(["solve", "--graph", graph, "--formula", str(f),
                   "--treewidth", "1"])
    assert res.returncode == 0


def test_usage_errors_are_one_json_object(tmp_path):
    graph = dump(tmp_path, "p3.json", path(3))
    for args in (["solve", "--graph", graph, "--preset", "diam=1"],
                 ["solve", "--graph", graph, "--preset", "diam=1",
                  "--treewidth", "two"],
                 ["solve", "--graph", graph, "--preset", "diam=1",
                  "--treewidth", "2", "--threads", "1"],
                 ["oracle"], []):
        res = run_cli(args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert set(err) == {"error", "message"}
        assert err["error"] == "UsageError"
        assert err["message"].startswith("supertw")


def test_compile_roundtrip_and_determinism(tmp_path):
    f = tmp_path / "phi.cmso"
    f.write_text("exists v x . x = x\n")
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"aut{seed}.json"
        stats = tmp_path / f"stats{seed}.json"
        res = run_cli(["compile", "--formula", str(f), "--labels", "2",
                       "--out", str(out), "--stats", str(stats)], seed=seed)
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
        sizes = json.loads(stats.read_text())
        assert sizes["states"] > 0 and sizes["transitions"] > 0
        assert isinstance(sizes["seconds"], float) and sizes["seconds"] >= 0
        assert isinstance(sizes["charged"], int) and sizes["charged"] > 0
    assert outs[0] == outs[1]


def test_compile_syntax_error_reports_location(tmp_path):
    f = tmp_path / "bad.cmso"
    f.write_text("exists v x x = x\n")
    res = run_cli(["compile", "--formula", str(f), "--labels", "1"])
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert "1:" in err["message"]


def test_witness_bytes_stable_across_hash_seeds(tmp_path):
    graph = dump(tmp_path, "p3.json", path(3))
    blobs = []
    for seed in ("3", "4"):
        wpath = tmp_path / f"w{seed}.json"
        res = run_cli(["solve", "--graph", graph, "--preset", "diam=1",
                       "--treewidth", "2", "--witness", str(wpath)],
                      seed=seed)
        assert res.returncode == 0
        blobs.append(wpath.read_bytes())
    assert blobs[0] == blobs[1]


def test_oracle_tw(tmp_path):
    graph = dump(tmp_path, "k3.json", complete(3))
    res = run_cli(["oracle", "tw", "--graph", graph])
    assert res.returncode == 0
    assert res.stdout.strip() == "2"


def test_oracle_search_found_and_exhausted(tmp_path):
    graph = dump(tmp_path, "p3.json", path(3))
    out = tmp_path / "found.json"
    res = run_cli(["oracle", "search", "--graph", graph, "--preset", "diam=1",
                   "--treewidth", "2", "--out", str(out)])
    assert res.returncode == 0
    found = graph_from_json(json.loads(out.read_text()))
    assert eval_direct(gen_diam(1), found)

    res = run_cli(["oracle", "search", "--graph", graph, "--preset", "diam=1",
                   "--treewidth", "2", "--max-extra-vertices", "0",
                   "--max-extra-edges", "0"])
    assert res.returncode == 1
    assert res.stdout.strip() == "none found"


def test_solve_edge_list_input(tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n")
    res = run_cli(["solve", "--graph", str(p), "--preset", "diam=1",
                   "--treewidth", "2"])
    assert res.returncode == 0


def test_out_of_memory_is_an_error_not_no(tmp_path):
    # an uncaught MemoryError would exit 1, the code for NO. diam=2 at
    # treewidth 2 now solves within the cap, so the solve asks for
    # treewidth 3, whose compile runs out of memory within seconds
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n")
    limit = 150 * 1024 ** 2

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = subprocess.run(
        [sys.executable, "-m", "supertw.cli", "solve", "--graph", str(p),
         "--preset", "diam=2", "--treewidth", "3"],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert set(json.loads(res.stderr)) == {"error", "message"}
