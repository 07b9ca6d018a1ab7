"""Expression DSL for exponent sequences.

Grammar (whitespace insignificant)::

    expr    := atom { "+" atom }
    atom    := drift | linear | const | "blocks" | "inf"
             | "merge(" ("even"|"odd") ":" expr "," expr ")"
             | "prefix(" index "=" const { "," index "=" const } ";" expr ")"
             | ("absdiff" | "rn" | "nakexp") "(" expr "," expr ")"
             | "recip(" expr ")"
    drift   := number ("+"|"-") number "/n" ["^" number]
    linear  := [number "*"] "n" ["+"|"-" number]
    const   := number | "inf"

Drift and linear forms munch maximally, except that an additive number is
left to the enclosing sum when it starts a drift of its own (so
``n + 1 + 1/n`` is a linear plus a drift).  ``print_expression`` emits the
canonical form; parse → print → parse is the identity on the family.

Descriptor trees deeper than ``MAX_DEPTH`` (nested calls plus chained sums)
are refused: the analysis layers recurse once per level.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from . import exponents as E
from .errors import ParseError
from .indexsets import Evens, Odds

INF = math.inf
MAX_DEPTH = 100

# call forms name(expr, ...): one argument per dataclass field, in field order
_CALLS = {"absdiff": E.AbsDiff, "rn": E.RnOf, "nakexp": E.NakanoExponent, "recip": E.Recip}
_CALL_NAMES = {cls: name for name, cls in _CALLS.items()}
# index sets named in merge(set: expr, expr)
_SETS = {"even": Evens, "odd": Odds}
_SET_NAMES = {cls: name for name, cls in _SETS.items()}

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_]+)
  | (?P<SYM>[+\-*/^(),:;=])
  | (?P<WS>\s+)
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | IDENT | SYM | EOF
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    out = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", source, m.start())
        out.append(_Token(kind, m.group(), m.start()))
    out.append(_Token("EOF", "", len(source)))
    return out


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.nesting = 0  # parse_expr calls in progress

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, self.source, tok.pos)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != sym:
            self.error(f"expected {sym!r}", tok)
        return self.advance()

    def accept_sym(self, sym: str) -> bool:
        tok = self.peek()
        if tok.kind == "SYM" and tok.text == sym:
            self.advance()
            return True
        return False

    def number(self) -> float:
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.error("expected a number", tok)
        self.advance()
        value = float(tok.text)
        if not math.isfinite(value):
            self.error(f"numeric literal {tok.text} is out of range", tok)
        return value

    def const(self) -> float:
        if self._is_ident(self.peek(), "inf"):
            self.advance()
            return INF
        return self.number()

    def _is_ident(self, tok: _Token, name: str) -> bool:
        return tok.kind == "IDENT" and tok.text == name

    # -- pattern matchers with backtracking ---------------------------------

    def _drift_starts_at(self, j: int) -> bool:
        """Tokens j.. look like: NUMBER (+|-) NUMBER / n."""
        t = self.tokens
        return (
            self.peek(j).kind == "NUMBER"
            and self.peek(j + 1).kind == "SYM"
            and self.peek(j + 1).text in "+-"
            and self.peek(j + 2).kind == "NUMBER"
            and self.peek(j + 3).kind == "SYM"
            and self.peek(j + 3).text == "/"
            and self._is_ident(self.peek(j + 4), "n")
        )

    def try_drift(self):
        if not self._drift_starts_at(0):
            return None
        limit = self.number()
        sign = 1.0 if self.advance().text == "+" else -1.0
        coeff = self.number()
        self.expect_sym("/")
        self.advance()  # the 'n'
        decay = 1.0
        if self.peek().kind == "SYM" and self.peek().text == "^":
            self.advance()
            decay = self.number()
        return E.RationalDrift(limit, sign * coeff, decay)

    def try_linear(self):
        mark = self.i
        slope = 1.0
        if self.peek().kind == "NUMBER":
            if not (self.peek(1).kind == "SYM" and self.peek(1).text == "*"):
                return None
            slope = self.number()
            self.advance()  # '*'
        if not self._is_ident(self.peek(), "n"):
            self.i = mark
            return None
        self.advance()
        intercept = 0.0
        tok = self.peek()
        if tok.kind == "SYM" and tok.text in "+-" and self.peek(1).kind == "NUMBER":
            # leave the number to the enclosing sum when it starts a drift
            if not (tok.text == "+" and self._drift_starts_at(1)):
                sign = 1.0 if self.advance().text == "+" else -1.0
                intercept = sign * self.number()
        return E.Linear(slope, intercept)

    # -- grammar ------------------------------------------------------------

    def parse_atom(self) -> E.ExponentSequence:
        node = self.try_drift()
        if node is not None:
            return node
        node = self.try_linear()
        if node is not None:
            return node
        tok = self.peek()
        if tok.kind == "NUMBER" or self._is_ident(tok, "inf"):
            return E.Const(self.const())
        if tok.kind == "IDENT":
            name = tok.text
            if name == "blocks":
                self.advance()
                return E.BlockRepeat()
            if name == "merge":
                self.advance()
                self.expect_sym("(")
                set_tok = self.peek()
                if set_tok.kind != "IDENT" or set_tok.text not in _SETS:
                    self.error(f"expected {' or '.join(map(repr, _SETS))}", set_tok)
                index_set = _SETS[self.advance().text]()
                self.expect_sym(":")
                on_set = self.parse_expr()
                self.expect_sym(",")
                off_set = self.parse_expr()
                self.expect_sym(")")
                return E.Merge(index_set, on_set, off_set)
            if name == "prefix":
                self.advance()
                self.expect_sym("(")
                overrides = []
                while True:
                    idx_tok = self.peek()
                    idx = self.number()
                    if idx != int(idx):
                        self.error("override index must be an integer", idx_tok)
                    self.expect_sym("=")
                    overrides.append((int(idx), self.const()))
                    if not self.accept_sym(","):
                        break
                self.expect_sym(";")
                tail = self.parse_expr()
                self.expect_sym(")")
                return E.Prefix(tuple(overrides), tail)
            if name in _CALLS:
                cls = _CALLS[name]
                self.advance()
                self.expect_sym("(")
                args = [self.parse_expr()]
                for _ in fields(cls)[1:]:
                    self.expect_sym(",")
                    args.append(self.parse_expr())
                self.expect_sym(")")
                return cls(*args)
            self.error(f"unknown name {name!r}", tok)
        self.error("expected an expression", tok)

    def parse_expr(self) -> E.ExponentSequence:
        # every enclosing call is a level of the tree above this expression
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")
        node = self.parse_atom()
        while self.accept_sym("+"):
            node = E.Sum(node, self.parse_atom())
        self.nesting -= 1
        return node

    def parse(self) -> E.ExponentSequence:
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "EOF":
            self.error("unexpected trailing input", tok)
        if _height(node) > MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels", self.tokens[0])
        return node


def _height(node: E.ExponentSequence) -> int:
    """Levels of the descriptor tree, counted without recursion."""
    height, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack.extend((v, depth + 1) for v in vars(node).values() if isinstance(v, E.ExponentSequence))
    return height


def parse_expression(source: str) -> E.ExponentSequence:
    """Parse DSL text to an exponent-sequence descriptor."""
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# canonical printer
# --------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == INF:
        return "inf"
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def print_expression(seq: E.ExponentSequence) -> str:
    """Canonical DSL text; round-trips through :func:`parse_expression`."""
    if isinstance(seq, E.Const):
        return _fmt(seq.value)
    if isinstance(seq, E.RationalDrift):
        sign = "+" if seq.coeff >= 0 else "-"
        decay = "" if seq.decay == 1.0 else f"^{_fmt(seq.decay)}"
        return f"{_fmt(seq.limit)} {sign} {_fmt(abs(seq.coeff))}/n{decay}"
    if isinstance(seq, E.Linear):
        head = "n" if seq.slope == 1.0 else f"{_fmt(seq.slope)}*n"
        if seq.intercept == 0.0:
            return head
        sign = "+" if seq.intercept > 0 else "-"
        return f"{head} {sign} {_fmt(abs(seq.intercept))}"
    if isinstance(seq, E.BlockRepeat):
        return "blocks"
    if isinstance(seq, E.Sum):
        return f"{print_expression(seq.left)} + {print_expression(seq.right)}"
    if isinstance(seq, E.Merge):
        # other index sets are not DSL-expressible; printable for diagnostics only
        name = _SET_NAMES.get(type(seq.index_set), f"<{seq.index_set!r}>")
        return f"merge({name}: {print_expression(seq.on_set)}, {print_expression(seq.off_set)})"
    if isinstance(seq, E.Prefix):
        pairs = ", ".join(f"{i}={_fmt(v)}" for i, v in seq.overrides)
        return f"prefix({pairs}; {print_expression(seq.tail)})"
    name = _CALL_NAMES.get(type(seq))
    if name is not None:
        return f"{name}({', '.join(print_expression(getattr(seq, f.name)) for f in fields(seq))})"
    raise TypeError(f"not a printable descriptor: {seq!r}")
