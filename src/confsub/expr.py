"""Analytic expression language for metrics, map components and vector
fields.

Grammar (EBNF)::

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := base ("^" exponent)?
    base     := number | ident | "(" expr ")" | func "(" expr ")" | "-" base
    exponent := "-"? integer | "(" "-"? integer "/" integer ")"
    func     := "exp" | "log" | "sin" | "cos" | "sqrt"

Exponents are constant rationals so jet evaluation of x^r stays
closed-form; write exp(g*log(f)) for a general power.

Domain predicates use a separate entry point and additionally allow the
comparison operators <, <=, >, >= combined with ``and`` / ``or``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import jets

FUNCTIONS = {
    "exp": jets.sexp,
    "log": jets.slog,
    "sin": jets.ssin,
    "cos": jets.scos,
    "sqrt": jets.ssqrt,
}


class ExprError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message, text, pos):
        self.pos = pos
        super().__init__(f"{message} (column {pos + 1} in {text!r})")


class Const(NamedTuple):
    value: float


class Coord(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: object


class BinOp(NamedTuple):
    op: str  # one of + - * /
    left: object
    right: object


class Pow(NamedTuple):
    base: object
    exponent: int  # or a fractions.Fraction with denominator > 1


class Call(NamedTuple):
    func: str
    arg: object


class Compare(NamedTuple):
    op: str  # < <= > >=
    left: object
    right: object


class BoolOp(NamedTuple):
    op: str  # and / or
    left: object
    right: object


# one token after optional whitespace: a punctuator, a number (decimal
# digits and dots with an optional exponent), a name (a letter or "_"
# followed by letters, digits and "_"), or any other character, which is
# an error
_TOKEN = re.compile(r"\s*(?:(?P<punct><=|>=|[-+*/^()<>])"
                    r"|(?P<number>[\d.]+(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>\w+)|(?P<bad>\S))")


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            val, pos = m.group(kind), m.start(kind)
            # \w also takes a numeric character that is no letter ("½")
            if kind == "bad" or (kind == "name" and not val[0].isalpha()
                                 and val[0] != "_"):
                raise ExprError(f"unexpected character {val[0]!r}", text, pos)
            self.tokens.append((kind, val, pos))
        self.tokens.append(("end", "", len(text)))
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            self.idx += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.peek()
        if val != value or kind == "end":
            raise ExprError(f"expected {value!r}", self.text, pos)
        return self.next()


class _Parser:
    def __init__(self, text, coords=None):
        self.toks = _Tokenizer(text)
        self.text = text
        self.coords = coords

    def parse_expr_top(self):
        node = self._expr()
        kind, val, pos = self.toks.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {val!r}", self.text, pos)
        return node

    def parse_predicate_top(self):
        node = self._bool_or()
        kind, val, pos = self.toks.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {val!r}", self.text, pos)
        return node

    # boolean layer (domain predicates only)

    def _bool_or(self):
        node = self._bool_and()
        while self._at_name("or"):
            self.toks.next()
            node = BoolOp("or", node, self._bool_and())
        return node

    def _bool_and(self):
        node = self._comparison()
        while self._at_name("and"):
            self.toks.next()
            node = BoolOp("and", node, self._comparison())
        return node

    def _at_name(self, name):
        kind, val, _ = self.toks.peek()
        return kind == "name" and val == name

    def _comparison(self):
        left = self._expr()
        kind, val, pos = self.toks.peek()
        if val in ("<", "<=", ">", ">="):
            self.toks.next()
            return Compare(val, left, self._expr())
        raise ExprError("expected a comparison operator", self.text, pos)

    # arithmetic layer

    def _expr(self):
        node = self._term()
        while True:
            kind, val, _ = self.toks.peek()
            if val in ("+", "-"):
                self.toks.next()
                node = BinOp(val, node, self._term())
            else:
                return node

    def _term(self):
        node = self._factor()
        while True:
            kind, val, _ = self.toks.peek()
            if val in ("*", "/"):
                self.toks.next()
                node = BinOp(val, node, self._factor())
            else:
                return node

    def _factor(self):
        # negation binds looser than ^ (so -x^2 == -(x^2)), tighter than *
        kind, val, _ = self.toks.peek()
        if val == "-":
            self.toks.next()
            return Neg(self._factor())
        node = self._base()
        kind, val, _ = self.toks.peek()
        if val == "^":
            self.toks.next()
            node = Pow(node, self._exponent())
        return node

    def _exponent(self):
        kind, val, pos = self.toks.peek()
        sign = 1
        if val == "-":
            self.toks.next()
            sign = -1
            kind, val, pos = self.toks.peek()
        if val == "(":
            self.toks.next()
            if self.toks.peek()[1] == "-":
                self.toks.next()
                sign = -sign
            num = sign * self._integer()
            self.toks.expect("/")
            pos = self.toks.peek()[2]
            den = self._integer()
            if den == 0:
                raise ExprError("zero denominator in an exponent", self.text,
                                pos)
            self.toks.expect(")")
            from fractions import Fraction  # only a rational exponent
            r = Fraction(num, den)
            return r.numerator if r.denominator == 1 else r
        return sign * self._integer()

    def _integer(self):
        kind, val, pos = self.toks.peek()
        if kind != "number" or not val.isdigit():
            raise ExprError("expected an integer exponent", self.text, pos)
        self.toks.next()
        return int(val)

    def _base(self):
        kind, val, pos = self.toks.next()
        if val == "-":
            return Neg(self._base())
        if val == "(":
            node = self._expr()
            self.toks.expect(")")
            return node
        if kind == "number":
            try:
                return Const(float(val))
            except ValueError:
                raise ExprError(f"malformed number {val!r}",
                                self.text, pos) from None
        if kind == "name":
            nkind, nval, _ = self.toks.peek()
            if nval == "(" and val in FUNCTIONS:
                self.toks.next()
                arg = self._expr()
                self.toks.expect(")")
                return Call(val, arg)
            if val in FUNCTIONS:
                raise ExprError(f"function {val!r} needs an argument list",
                                self.text, pos)
            if self.coords is not None and val not in self.coords:
                raise ExprError(f"unknown identifier {val!r}", self.text, pos)
            return Coord(val)
        raise ExprError(f"unexpected token {val!r}" if val else "unexpected end of input",
                        self.text, pos)


def parse_expression(text, coords=None):
    """Parse an arithmetic expression; ``coords``, when given, is the set
    of identifiers allowed to appear."""
    return _Parser(text, coords).parse_expr_top()


def parse_predicate(text, coords=None):
    """Parse a boolean domain predicate."""
    return _Parser(text, coords).parse_predicate_top()


def eval_expr(node, env):
    """Evaluate an AST against ``env`` mapping coordinate names to
    scalars (floats or jets) or to float arrays over a point axis, which
    evaluates the AST at every point at once; a subexpression free of
    coordinates stays a float."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        try:
            return env[node.name]
        except KeyError:
            raise jets.EvaluationError(f"unbound coordinate {node.name!r}") from None
    if isinstance(node, Neg):
        return -eval_expr(node.arg, env)
    if isinstance(node, BinOp):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return jets.sdiv(left, right)
        except jets.EvaluationError as exc:
            raise jets.EvaluationError(f"{exc} in {to_text(node)!r}") from None
    if isinstance(node, Pow):
        base = eval_expr(node.base, env)
        try:
            return jets.spow(base, node.exponent)
        except jets.EvaluationError as exc:
            raise jets.EvaluationError(f"{exc} in {to_text(node)!r}") from None
    if isinstance(node, Call):
        arg = eval_expr(node.arg, env)
        try:
            return FUNCTIONS[node.func](arg)
        except jets.EvaluationError as exc:
            raise jets.EvaluationError(f"{exc} in {to_text(node)!r}") from None
    if isinstance(node, Compare):
        left = jets.primal(eval_expr(node.left, env))
        right = jets.primal(eval_expr(node.right, env))
        return {"<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right}[node.op]
    if isinstance(node, BoolOp):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        return (left & right) if node.op == "and" else (left | right)
    raise TypeError(f"not an expression node: {node!r}")


_PRECEDENCE = {"or": 0, "and": 1, "cmp": 2, "+": 3, "-": 3, "*": 4, "/": 4,
               "neg": 5, "pow": 6, "atom": 7}


def _prec(node):
    if isinstance(node, (Const, Coord, Call)):
        return _PRECEDENCE["atom"]
    if isinstance(node, Pow):
        return _PRECEDENCE["pow"]
    if isinstance(node, Neg):
        return _PRECEDENCE["neg"]
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Compare):
        return _PRECEDENCE["cmp"]
    if isinstance(node, BoolOp):
        return _PRECEDENCE[node.op]
    raise TypeError(node)


def _wrap(node, parent_prec, strict=False):
    text = to_text(node)
    prec = _prec(node)
    if prec < parent_prec or (strict and prec == parent_prec):
        return f"({text})"
    return text


def to_text(node):
    """Render the AST; the result reparses to an identical tree."""
    if isinstance(node, Const):
        v = node.value
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    if isinstance(node, Coord):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _PRECEDENCE["neg"])
    if isinstance(node, BinOp):
        p = _PRECEDENCE[node.op]
        return (_wrap(node.left, p) + " " + node.op + " "
                + _wrap(node.right, p, strict=True))
    if isinstance(node, Pow):
        e = node.exponent
        if e.denominator == 1:
            etext = str(e.numerator) if e.numerator >= 0 else f"-{-e.numerator}"
        else:
            etext = f"({e.numerator}/{e.denominator})"
        return _wrap(node.base, _PRECEDENCE["pow"], strict=True) + "^" + etext
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, Compare):
        p = _PRECEDENCE["cmp"]
        return f"{_wrap(node.left, p)} {node.op} {_wrap(node.right, p)}"
    if isinstance(node, BoolOp):
        p = _PRECEDENCE[node.op]
        return (_wrap(node.left, p) + " " + node.op + " "
                + _wrap(node.right, p, strict=True))
    raise TypeError(f"not an expression node: {node!r}")
