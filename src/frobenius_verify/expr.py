"""Expression language for real-valued Kahler potentials.

A potential is a function Phi(z, zbar) of n complex chart variables and
their conjugates.  The grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' integer)?
    atom   := number | 'z' index | 'zbar' index
            | 'exp(' expr ')' | 'log(' expr ')'
            | 're(' expr ')'  | 'im(' expr ')' | '(' expr ')'

Indices are 1-based in source text (``z1`` is axis 0 on the AST).
Numbers are decimal literals with optional fraction/exponent; a literal
may carry a leading ``-`` where an atom is expected, so printed
negative constants re-parse.  There is no division node; negative
integer exponents are rejected.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from typing import NamedTuple, Union

LOG_MODULUS_FLOOR = 1e-300


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the source text."""

    start: int
    end: int


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


class LogDomainError(ExprError):
    """log() argument has modulus below the singularity floor."""


class ExpOverflowError(ExprError):
    """exp() argument whose value overflows a complex double."""


# --- AST -------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    axis: int


@dataclass(frozen=True)
class ConjVar:
    axis: int


@dataclass(frozen=True)
class Sum:
    terms: tuple["Node", ...]
    signs: tuple[int, ...]  # +1 / -1 per term; the first sign is always +1


@dataclass(frozen=True)
class Product:
    factors: tuple["Node", ...]


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Exp:
    arg: "Node"


@dataclass(frozen=True)
class Log:
    arg: "Node"


@dataclass(frozen=True)
class Re:
    arg: "Node"


@dataclass(frozen=True)
class Im:
    arg: "Node"


Node = Union[Const, Var, ConjVar, Sum, Product, Power, Exp, Log, Re, Im]


def _validate(node: Node, dim: int) -> None:
    if isinstance(node, (Var, ConjVar)):
        if not 0 <= node.axis < dim:
            raise ValueError(f"variable axis {node.axis} out of range for dim {dim}")
    elif isinstance(node, Sum):
        if len(node.terms) != len(node.signs) or not node.terms:
            raise ValueError("malformed sum node")
        if node.signs[0] != 1 or any(s not in (1, -1) for s in node.signs):
            raise ValueError("sum signs must be +-1 with leading +1")
        for t in node.terms:
            _validate(t, dim)
    elif isinstance(node, Product):
        if not node.factors:
            raise ValueError("empty product node")
        for f in node.factors:
            _validate(f, dim)
    elif isinstance(node, Power):
        if not isinstance(node.exponent, int) or node.exponent < 0:
            raise ValueError("power exponent must be a nonnegative integer")
        _validate(node.base, dim)
    elif isinstance(node, (Exp, Log, Re, Im)):
        _validate(node.arg, dim)
    elif isinstance(node, Const):
        float(node.value)
    else:
        raise TypeError(f"unknown node {node!r}")


@dataclass(frozen=True)
class PotentialExpr:
    """AST of a chart potential together with the chart dimension."""

    root: Node
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        _validate(self.root, self.dim)


# --- parsing ---------------------------------------------------------

_NUMBER_RE = _re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = _re.compile(r"[A-Za-z]+\d*")
_INT_RE = _re.compile(r"\d+\Z")


class _Token(NamedTuple):
    kind: str  # NUMBER | NAME | OP | EOF
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            toks.append(_Token("NUMBER", m.group(), i, m.end()))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(_Token("NAME", m.group(), i, m.end()))
            i = m.end()
            continue
        if ch in "+-*^()":
            toks.append(_Token("OP", ch, i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1))
    toks.append(_Token("EOF", "", n, n))
    return toks


def _const(tok: _Token, sign: float) -> Const:
    value = sign * float(tok.text)
    if not math.isfinite(value):
        raise ParseError("number out of range", tok.span)
    return Const(value)


def _int(tok: _Token, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} out of range", tok.span) from None


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

    def expr(self) -> Node:
        terms = [self.term()]
        signs = [1]
        while self.at_op("+", "-"):
            signs.append(1 if self.take().text == "+" else -1)
            terms.append(self.term())
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms), tuple(signs))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.at_op("*"):
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self) -> Node:
        base = self.atom()
        if not self.at_op("^"):
            return base
        self.take()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.take()
            bad = self.peek()
            raise ParseError(
                "negative exponents are not supported",
                SourceSpan(tok.start, bad.end),
            )
        if tok.kind != "NUMBER" or not _INT_RE.match(tok.text):
            raise ParseError("exponent must be a nonnegative integer", tok.span)
        self.take()
        return Power(base, _int(tok, tok.text, "exponent"))

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.take()
            return _const(tok, 1.0)
        if tok.kind == "OP" and tok.text == "-":
            nxt = self.toks[self.pos + 1]
            if nxt.kind == "NUMBER":
                self.take()
                self.take()
                return _const(nxt, -1.0)
            raise ParseError("expected an atom", tok.span)
        if tok.kind == "OP" and tok.text == "(":
            open_tok = self.take()
            inner = self.expr()
            if not self.at_op(")"):
                raise ParseError("unmatched '('", open_tok.span)
            self.take()
            return inner
        if tok.kind == "NAME":
            return self.name_atom()
        raise ParseError("expected an atom", tok.span)

    def name_atom(self) -> Node:
        tok = self.take()
        name = tok.text
        if name in ("exp", "log", "re", "im"):
            if not self.at_op("("):
                raise ParseError(f"expected '(' after {name}", self.peek().span)
            open_tok = self.take()
            inner = self.expr()
            if not self.at_op(")"):
                raise ParseError("unmatched '('", open_tok.span)
            self.take()
            return {"exp": Exp, "log": Log, "re": Re, "im": Im}[name](inner)
        m = _re.fullmatch(r"(zbar|z)(\d+)", name)
        if not m:
            raise ParseError(f"unknown name {name!r}", tok.span)
        index = _int(tok, m.group(2), "variable index")
        if index < 1:
            raise ParseError("variable indices start at 1", tok.span)
        if index > self.dim:
            raise ParseError(
                f"variable index {index} out of range for dim {self.dim}", tok.span
            )
        axis = index - 1
        return ConjVar(axis) if m.group(1) == "zbar" else Var(axis)


def parse(text: str, dim: int) -> PotentialExpr:
    """Parse source text into a :class:`PotentialExpr` on ``dim`` variables."""
    if not text.strip():
        raise ParseError("empty input", SourceSpan(0, len(text)))
    if dim < 1:
        raise ValueError("dim must be >= 1")
    parser = _Parser(text, dim)
    try:
        root = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", SourceSpan(0, len(text))) from None
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError("unexpected trailing input", tok.span)
    return PotentialExpr(root, dim)


# --- printing --------------------------------------------------------


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _needs_parens_as_factor(node: Node) -> bool:
    return isinstance(node, (Sum, Product))


def _is_atomic(node: Node) -> bool:
    return isinstance(node, (Const, Var, ConjVar, Exp, Log, Re, Im))


def _render(node: Node) -> str:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return f"z{node.axis + 1}"
    if isinstance(node, ConjVar):
        return f"zbar{node.axis + 1}"
    if isinstance(node, Sum):
        parts = [_render_term(node.terms[0])]
        for sign, term in zip(node.signs[1:], node.terms[1:]):
            parts.append(" + " if sign == 1 else " - ")
            parts.append(_render_term(term))
        return "".join(parts)
    if isinstance(node, Product):
        return "*".join(_render_factor(f) for f in node.factors)
    if isinstance(node, Power):
        base = _render(node.base)
        if not _is_atomic(node.base):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Exp):
        return f"exp({_render(node.arg)})"
    if isinstance(node, Log):
        return f"log({_render(node.arg)})"
    if isinstance(node, Re):
        return f"re({_render(node.arg)})"
    if isinstance(node, Im):
        return f"im({_render(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


def _render_term(node: Node) -> str:
    if isinstance(node, Sum):
        return f"({_render(node)})"
    return _render(node)


def _render_factor(node: Node) -> str:
    if _needs_parens_as_factor(node):
        return f"({_render(node)})"
    return _render(node)


def to_source(expr: PotentialExpr | Node) -> str:
    """Canonical source text; ``parse(to_source(e), e.dim)`` equals ``e``."""
    node = expr.root if isinstance(expr, PotentialExpr) else expr
    return _render(node)
