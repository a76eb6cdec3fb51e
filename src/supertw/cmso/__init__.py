from .ast import (And, Card, Exists, FalseF, Forall, Iff, Implies, Inc, MemE,
                  MemV, Not, Or, TrueF, Var, VarEq, VarKind, free_vars,
                  to_text)
from .compile import (InterpretedBag, compile, compile_open,
                      interpreted_alphabet, validity_automaton)
from .evaluate import eval_direct
from .generators import (even_order, gen_diam, gen_vertex_cover,
                         no_isolated_vertex, simple_graph, some_vertex)
from .parser import parse, parse_formula

__all__ = [
    "And", "Card", "Exists", "FalseF", "Forall", "Iff", "Implies", "Inc",
    "MemE", "MemV", "Not", "Or", "TrueF", "Var", "VarEq", "VarKind",
    "free_vars", "to_text", "parse", "parse_formula", "eval_direct",
    "InterpretedBag", "compile", "compile_open", "interpreted_alphabet",
    "validity_automaton", "gen_diam", "gen_vertex_cover", "even_order",
    "no_isolated_vertex", "simple_graph", "some_vertex",
]
