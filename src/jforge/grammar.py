"""Text form for rational functions: parser and round-tripping serializer.

The accepted grammar is the usual arithmetic one:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom (('^' | '**') exponent)?
    atom   := INT | NAME | '(' expr ')'

Exponents are integers, optionally signed or parenthesized: x^2, x^-1,
x^(-3).  There are no floats; rational constants are written 3/2.  serialize
emits text that parse maps back to the identical canonical RatFunc.
"""

from __future__ import annotations

import re

from . import poly as P
from .errors import GrammarError
from .field import RatFunc
from .laurent import Laurent

_TOKEN = re.compile(
    r"\s*(?:(?P<INT>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<POW>\*\*|\^)|(?P<OP>[+\-*/()]))"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stray = text[pos:].lstrip()
            if not stray:
                break
            raise GrammarError(f"unexpected character {stray[0]!r} at position {pos}")
        pos = m.end()
        if m.lastgroup == "INT":
            tokens.append(("INT", int(m.group("INT"))))
        elif m.lastgroup == "NAME":
            tokens.append(("NAME", m.group("NAME")))
        elif m.lastgroup == "POW":
            tokens.append(("POW", "^"))
        else:
            tokens.append(("OP", m.group("OP")))
    return tokens


class _Parser:
    def __init__(self, tokens: list, text: str):
        self.tokens = tokens
        self.text = text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "OP" or val != op:
            raise GrammarError(f"expected {op!r} in {self.text!r}")

    def expr(self) -> RatFunc:
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "OP" and val in "+-":
                self.i += 1
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> RatFunc:
        value = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "OP" and val in "*/":
                self.i += 1
                rhs = self.unary()
                value = value * rhs if val == "*" else value / rhs
            else:
                return value

    def unary(self) -> RatFunc:
        sign = 1
        while True:
            kind, val = self.peek()
            if kind == "OP" and val in "+-":
                self.i += 1
                if val == "-":
                    sign = -sign
            else:
                break
        value = self.power()
        return -value if sign < 0 else value

    def power(self) -> RatFunc:
        value = self.atom()
        kind, _ = self.peek()
        if kind == "POW":
            self.i += 1
            return value ** self.exponent()
        return value

    def exponent(self) -> int:
        sign = 1
        kind, val = self.peek()
        while kind == "OP" and val in "+-":
            self.i += 1
            if val == "-":
                sign = -sign
            kind, val = self.peek()
        if kind == "INT":
            self.i += 1
            return sign * val
        if kind == "OP" and val == "(":
            self.i += 1
            inner = self.exponent()
            self.expect_op(")")
            return sign * inner
        raise GrammarError(f"expected integer exponent in {self.text!r}")

    def atom(self) -> RatFunc:
        kind, val = self.take()
        if kind == "INT":
            return RatFunc.const(val)
        if kind == "NAME":
            return RatFunc.var(val)
        if kind == "OP" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise GrammarError(f"unexpected token in {self.text!r}")


def parse(text: str) -> RatFunc:
    """Parse an expression string into a canonical RatFunc."""
    if not isinstance(text, str):
        raise GrammarError(f"expected a string, got {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise GrammarError("empty expression")
    parser = _Parser(tokens, text)
    value = parser.expr()
    if parser.i != len(tokens):
        raise GrammarError(f"trailing tokens in {text!r}")
    return value


def _is_bare_var(p: P.Poly) -> bool:
    names = P.pvars(p)
    return len(names) == 1 and p == P.pvar(*names)


def serialize(f) -> str:
    """Canonical text for f; parse(serialize(f)) == f.

    A Laurent prints through its RatFunc form, so both types of the tower
    give the same text for the same value.
    """
    if isinstance(f, Laurent):
        f = f.to_rf()
    if f.is_zero():
        return "0"
    num_txt = P.pstr(f.num)
    if f.den == P.PONE:
        return num_txt
    if len(f.num) > 1:
        num_txt = f"({num_txt})"
    den_txt = P.pstr(f.den)
    if not _is_bare_var(f.den):
        den_txt = f"({den_txt})"
    return f"{num_txt}/{den_txt}"
