"""Parser for the concrete CMSO syntax.

Grammar (lowest precedence first, -> and <-> right-associative):

    formula   := iff
    iff       := implies ('<->' iff)?
    implies   := or ('->' implies)?
    or        := and ('or' and)*
    and       := unary ('and' unary)*
    unary     := 'not' unary | quant | atom
    quant     := ('exists' | 'forall') kind NAME '.' formula
    kind      := 'v' | 'e' | 'vs' | 'es'
    atom      := 'true' | 'false' | '(' formula ')'
               | 'inc' '(' NAME ',' NAME ')'
               | 'card' '(' INT ',' INT ',' NAME ')'
               | NAME '=' NAME
               | NAME 'in' NAME

A quantifier body extends as far right as possible.  Variables must be
bound before use; binding sites fix the kind.  Shadowing is allowed.
"""

from __future__ import annotations

from ..errors import CmsoKindError, CmsoSyntaxError
from .ast import (And, Card, Exists, FalseF, Forall, Iff, Implies, Inc, MemE,
                  MemV, Not, Or, TrueF, Var, VarEq, VarKind)

_KEYWORDS = {"true", "false", "not", "and", "or", "exists", "forall", "in",
             "inc", "card"}
_KINDS = {"v": VarKind.VERTEX, "e": VarKind.EDGE,
          "vs": VarKind.VERTEX_SET, "es": VarKind.EDGE_SET}
_PUNCT = ("<->", "->", "(", ")", ",", ".", "=")
_DIGITS = frozenset("0123456789")  # str.isdigit also takes "²", which int() rejects


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


def _tokenize(src: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        matched = None
        for p in _PUNCT:
            if src.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(_Token("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            kind = "keyword" if word in _KEYWORDS else "name"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise CmsoSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.scopes = []  # list of dicts name -> Var

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise CmsoSyntaxError(msg, tok.line, tok.col)

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            self.error(f"expected {text!r}, got {tok.text!r}", tok)
        return tok

    def lookup(self, tok):
        for scope in reversed(self.scopes):
            if tok.text in scope:
                return scope[tok.text]
        self.error(f"unbound variable {tok.text!r}", tok)

    def formula(self):
        left = self.implies()
        if self.peek().text == "<->":
            self.next()
            return Iff(left, self.formula())
        return left

    def implies(self):
        left = self.or_()
        if self.peek().text == "->":
            self.next()
            return Implies(left, self.implies())
        return left

    def or_(self):
        left = self.and_()
        while self.peek().text == "or":
            self.next()
            left = Or(left, self.and_())
        return left

    def and_(self):
        left = self.unary()
        while self.peek().text == "and":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok.text == "not":
            self.next()
            return Not(self.unary())
        if tok.text in ("exists", "forall"):
            return self.quant()
        return self.atom()

    def quant(self):
        quant_tok = self.next()
        kind_tok = self.next()
        if kind_tok.text not in _KINDS:
            self.error(f"expected variable kind v/e/vs/es, got {kind_tok.text!r}",
                       kind_tok)
        name_tok = self.next()
        if name_tok.kind != "name":
            self.error(f"expected variable name, got {name_tok.text!r}", name_tok)
        self.expect(".")
        var = Var(name_tok.text, _KINDS[kind_tok.text])
        self.scopes.append({var.name: var})
        body = self.formula()
        self.scopes.pop()
        cls = Exists if quant_tok.text == "exists" else Forall
        return cls(var, body)

    def atom(self):
        tok = self.next()
        if tok.text == "true":
            return TrueF()
        if tok.text == "false":
            return FalseF()
        if tok.text == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.text == "inc":
            self.expect("(")
            v_tok = self.next()
            v = self.lookup(v_tok)
            self.expect(",")
            e_tok = self.next()
            e = self.lookup(e_tok)
            self.expect(")")
            try:
                return Inc(v, e)
            except CmsoKindError as exc:
                self.error(str(exc), v_tok)
        if tok.text == "card":
            self.expect("(")
            r_tok = self.next()
            if r_tok.kind != "int":
                self.error("card modulus must be an integer literal", r_tok)
            self.expect(",")
            a_tok = self.next()
            if a_tok.kind != "int":
                self.error("card residue must be an integer literal", a_tok)
            self.expect(",")
            z_tok = self.next()
            z = self.lookup(z_tok)
            self.expect(")")
            try:
                return Card(int(a_tok.text), int(r_tok.text), z)
            except CmsoKindError as exc:
                self.error(str(exc), z_tok)
        if tok.kind == "name":
            left = self.lookup(tok)
            op = self.next()
            if op.text == "=":
                right_tok = self.next()
                right = self.lookup(right_tok)
                try:
                    return VarEq(left, right)
                except CmsoKindError as exc:
                    self.error(str(exc), tok)
            if op.text == "in":
                right_tok = self.next()
                right = self.lookup(right_tok)
                try:
                    if left.kind == VarKind.VERTEX:
                        return MemV(left, right)
                    if left.kind == VarKind.EDGE:
                        return MemE(left, right)
                    raise CmsoKindError(
                        f"membership element must be a vertex or edge, got {left!r}")
                except CmsoKindError as exc:
                    self.error(str(exc), tok)
            self.error(f"expected '=' or 'in' after variable, got {op.text!r}", op)
        self.error(f"unexpected token {tok.text!r}", tok)


def parse(src: str):
    """Parse a CMSO formula; raises CmsoSyntaxError with location on errors."""
    parser = _Parser(_tokenize(src))
    phi = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"trailing input starting at {tok.text!r}", tok)
    return phi


parse_formula = parse
