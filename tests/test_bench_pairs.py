"""The verdicts `bench/pairs.py` gives on alternating parent/change runs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "bench" / "pairs.py")
pairs_mod = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs_mod)

METRICS = {"solve_s_p50": {"better": "lower", "bound": 0.25},
           "wall_s": {"better": "lower", "bound": 0.25}}


def make_pairs(parent_pooled, change_pooled, parent_a, change_a):
    """Pairs whose pooled metrics spread widely, with instance "a" at the
    given medians and instance "b" at 1.0 on both sides."""
    return [{side: {"solve_s_p50": pooled, "wall_s": pooled,
                    "instance_medians": {"a": a, "b": 1.0}}
             for side, pooled, a in (("parent", p, parent_a),
                                     ("change", c, change_a))}
            for p, c in zip(parent_pooled, change_pooled)]


def summary(pairs):
    return pairs_mod.summarize(pairs, METRICS, pairs_mod.summarize_instances(pairs))


def test_unresolved_solve_metric_gets_an_instance_verdict():
    # the parent's quartile spread exceeds the bound: the pooled verdict
    # is "unresolved", and instance "a" 40 % slower makes it "worse" there
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [1.1, 2.1, 1.1, 2.1, 1.1, 2.1]
    got = summary(make_pairs(parent, change, 1.0, 1.4))
    assert got["solve_s_p50"]["verdict"] == "unresolved"
    assert got["solve_s_p50"]["instance_verdict"] == "worse"
    # wall_s is not made of per-instance solves: no instance verdict
    assert got["wall_s"]["verdict"] == "unresolved"
    assert "instance_verdict" not in got["wall_s"]
    # within the bound on every instance it holds
    got = summary(make_pairs(parent, change, 1.0, 1.2))
    assert got["solve_s_p50"]["instance_verdict"] == "holds"


def test_resolved_metric_gets_no_instance_verdict():
    got = summary(make_pairs([1.0] * 4, [0.9] * 4, 1.0, 2.0))
    assert got["solve_s_p50"]["verdict"] == "holds"
    assert "instance_verdict" not in got["solve_s_p50"]
