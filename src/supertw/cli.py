"""Command-line front end.

Subcommands:
  solve    decide whether a graph has a bounded-treewidth supergraph
           satisfying a formula; optionally export the witness
  compile  compile a formula to a bag automaton and dump it as JSON
  oracle   brute-force cross-checks (exact treewidth, supergraph search)

Exit codes: 0 = YES, 1 = NO, 2 = error (errors, usage errors included,
are one JSON object on stderr). All output is deterministic for identical
inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cmso.parser import parse as parse_formula
from .cmso.compile import compile as compile_formula
from .graph import Graph, graph_to_json, load_graph
from .oracle import SupergraphBudget, exact_treewidth, search_supergraph
from .solver import (DEFAULT_MAX_TRANSITIONS, _stage, _start, has_supergraph,
                     preset_formula, solve_named)
from .tree_automata import to_json as automaton_to_json
from .util import Budget, osorted


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dot(g: Graph) -> str:
    lines = ["graph witness {"]
    for v in osorted(g.vertices):
        lines.append(f'  "{v}";')
    for e in osorted(g.edges):
        ends = osorted(g.ends[e])
        if ends:
            lines.append(f'  "{ends[0]}" -- "{ends[1]}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_preset(text: str) -> dict:
    name, sep, value = text.partition("=")
    if not sep or not value.lstrip("-").isdigit():
        raise ValueError(f"preset must look like diam=1, got {text!r}")
    return {name: int(value)}


def _budget(args) -> Budget:
    return Budget(args.max_states, args.timeout_secs)


def _read_formula(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_formula(fh.read())


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    want_witness = bool(args.witness or args.witness_dot)
    if args.preset:
        verdict = solve_named(g, _parse_preset(args.preset), args.treewidth,
                              budget=_budget(args), want_witness=want_witness)
    else:
        verdict = has_supergraph(g, _read_formula(args.formula),
                                 args.treewidth, budget=_budget(args),
                                 want_witness=want_witness)
    if args.stats:
        _write_json(args.stats, verdict.stats)
    if verdict.answer and verdict.witness is not None:
        w = verdict.witness
        if args.witness:
            obj = graph_to_json(w.graph)
            obj["embedding"] = [[v, u] for v, u in w.embedding.items()]
            _write_json(args.witness, obj)
        if args.witness_dot:
            with open(args.witness_dot, "w", encoding="utf-8") as fh:
                fh.write(_dot(w.graph))
    print("YES" if verdict.answer else "NO")
    return 0 if verdict.answer else 1


def cmd_compile(args) -> int:
    phi = _read_formula(args.formula)
    budget = _budget(args)
    stats = {}
    start = _start(budget)
    aut = compile_formula(phi, args.labels, budget)
    _stage(stats, "compile", start, budget, aut)
    _write_json(args.out, automaton_to_json(aut))
    if args.stats:
        _write_json(args.stats, {
            "states": len(aut.states),
            "final": len(aut.final),
            "transitions": len(aut.transitions),
            "alphabet": len(aut.alphabet),
            "seconds": stats["compile"]["seconds"],
            "charged": stats["compile"]["charged"],
        })
    return 0


def cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    if args.oracle_cmd == "tw":
        print(exact_treewidth(g))
        return 0
    if args.preset:
        phi = preset_formula(_parse_preset(args.preset))
    else:
        phi = _read_formula(args.formula)
    budget = SupergraphBudget(args.max_extra_vertices, args.max_extra_edges,
                              not args.multi)
    found = search_supergraph(g, phi, args.treewidth, budget)
    if found is None:
        print("none found")
        return 1
    _write_json(args.out, graph_to_json(found))
    return 0


def _add_budget_flags(p):
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_TRANSITIONS,
                   help="cap on constructed automaton transitions")
    p.add_argument("--timeout-secs", type=float, default=None,
                   help="wall-clock deadline for automaton construction")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one JSON error object and exit code 2,
    like every other error; subcommand parsers inherit this."""

    def error(self, message):
        print(json.dumps({"error": "UsageError",
                          "message": f"{self.prog}: {message}"}),
              file=sys.stderr)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="supertw",
        description="bounded-treewidth supergraph solver for CMSO properties")
    sub = top.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="decide and optionally export a witness")
    ps.add_argument("--graph", required=True, help="graph JSON or edge-list file")
    grp = ps.add_mutually_exclusive_group(required=True)
    grp.add_argument("--preset", help="diam=D or vertex_cover=K (simple witnesses)")
    grp.add_argument("--formula", help="CMSO formula file")
    ps.add_argument("--treewidth", type=int, required=True,
                    help="treewidth bound t for the supergraph")
    ps.add_argument("--witness", help="write the witness graph JSON here")
    ps.add_argument("--witness-dot", help="write the witness graph DOT here")
    ps.add_argument("--stats", help="write per-stage stats JSON here")
    _add_budget_flags(ps)
    ps.set_defaults(go=cmd_solve)

    pc = sub.add_parser("compile", help="compile a formula to an automaton dump")
    pc.add_argument("--formula", required=True, help="CMSO formula file")
    pc.add_argument("--labels", type=int, required=True,
                    help="number of bag labels t (width bound plus one)")
    pc.add_argument("--out", default="-", help="automaton JSON path, - for stdout")
    pc.add_argument("--stats", help="write size, seconds and charged-transition "
                                    "stats JSON here")
    _add_budget_flags(pc)
    pc.set_defaults(go=cmd_compile)

    po = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = po.add_subparsers(dest="oracle_cmd", required=True)
    ptw = osub.add_parser("tw", help="exact treewidth of a small graph")
    ptw.add_argument("--graph", required=True)
    ptw.set_defaults(go=cmd_oracle)
    pse = osub.add_parser("search", help="bounded supergraph search")
    pse.add_argument("--graph", required=True)
    sgrp = pse.add_mutually_exclusive_group(required=True)
    sgrp.add_argument("--preset")
    sgrp.add_argument("--formula")
    pse.add_argument("--treewidth", type=int, required=True)
    pse.add_argument("--max-extra-vertices", type=int, default=2)
    pse.add_argument("--max-extra-edges", type=int, default=4)
    pse.add_argument("--multi", action="store_true",
                     help="allow parallel edges in candidates")
    pse.add_argument("--out", default="-", help="found supergraph JSON path")
    pse.set_defaults(go=cmd_oracle)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.go(args)
    except Exception as exc:
        # MemoryError included: uncaught, it would exit 1, which means NO
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
