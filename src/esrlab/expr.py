"""Expression trees, the generating grammar, length accounting, text I/O, hashing.

The operator vocabulary is fixed: variables, parameter placeholders, numeric
constants, the binary ops + - * /, the unary reciprocal ``inv(a) == 1/a`` and
``powabs(a, b) == |a| ** b``.  ``neg`` and ``abs`` only appear as products of
rewriting, never from the grammar.

Text syntax (the interchange format for catalogs and run logs):

    operators   + - * / ^        (^ always has powabs semantics)
    functions   inv(e), abs(e), powabs(a, b)
    display     inv(a)      ->  "1.0 / a"
                powabs(a,b) ->  "|a| ^ b"   (bars dropped for parameter and
                                             nonnegative-constant bases)
    leaves      x or x1..xk, p1..pk, numeric literals

``parse(render(e))`` reproduces ``e`` node for node.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

__all__ = [
    "Expr", "Grammar", "ParseError",
    "VAR", "PARAM", "CONST", "ADD", "SUB", "MUL", "DIV", "INV", "POWABS",
    "NEG", "ABS", "HOLE",
    "var", "param", "const", "add", "sub", "mul", "div", "inv", "powabs",
    "neg", "abs_", "hole",
    "length", "render", "parse", "structural_hash",
    "param_count", "renumber_params", "count_nodes", "subtrees", "validate",
    "DEFAULT_GRAMMAR",
]

# Node kinds.  The numeric order doubles as the fixed tie-break order used by
# canonical extraction.
VAR = 0
PARAM = 1
CONST = 2
ADD = 3
SUB = 4
MUL = 5
DIV = 6
INV = 7
POWABS = 8
NEG = 9
ABS = 10
HOLE = 11  # opaque placeholder leaf for partial derivations (internal)

ARITY = {
    VAR: 0, PARAM: 0, CONST: 0, HOLE: 0,
    INV: 1, NEG: 1, ABS: 1,
    ADD: 2, SUB: 2, MUL: 2, DIV: 2, POWABS: 2,
}

KIND_NAME = {
    VAR: "var", PARAM: "param", CONST: "const", ADD: "add", SUB: "sub",
    MUL: "mul", DIV: "div", INV: "inv", POWABS: "powabs", NEG: "neg",
    ABS: "abs", HOLE: "hole",
}


class Expr:
    """Immutable expression tree node.

    ``value`` holds the variable index (VAR), parameter index (PARAM),
    literal (CONST) or hole index (HOLE); it is None for operators.
    """

    __slots__ = ("kind", "value", "children", "_hash")

    def __init__(self, kind, value=None, children=()):
        if len(children) != ARITY[kind]:
            raise ValueError(
                f"{KIND_NAME[kind]} takes {ARITY[kind]} children, got {len(children)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, v):
        raise AttributeError("Expr is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        if self.kind != other.kind or self.value != other.value:
            return False
        return self.children == other.children

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.value, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Expr({render(self)!r})"


def var(index: int = 1) -> Expr:
    if index < 1:
        raise ValueError("variable index starts at 1")
    return Expr(VAR, index)


def param(index: int) -> Expr:
    if index < 1:
        raise ValueError("parameter index starts at 1")
    return Expr(PARAM, index)


def const(v: float) -> Expr:
    return Expr(CONST, float(v))


def hole(index: int) -> Expr:
    return Expr(HOLE, index)


def add(a: Expr, b: Expr) -> Expr:
    return Expr(ADD, None, (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr(SUB, None, (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return Expr(MUL, None, (a, b))


def div(a: Expr, b: Expr) -> Expr:
    return Expr(DIV, None, (a, b))


def inv(a: Expr) -> Expr:
    return Expr(INV, None, (a,))


def powabs(a: Expr, b: Expr) -> Expr:
    return Expr(POWABS, None, (a, b))


def neg(a: Expr) -> Expr:
    return Expr(NEG, None, (a,))


def abs_(a: Expr) -> Expr:
    return Expr(ABS, None, (a,))


@dataclass(frozen=True)
class Grammar:
    """The production alternatives for the single nonterminal E.

    Each production is (token, node kind, arity); every node contributes one
    unit to expression length.  The default grammar has the six alternative
    forms x, p, inv(E), powabs(E,E), E (+|-) E, E (*|/) E, which expand to
    eight concrete productions.
    """

    productions: tuple = (
        ("x", VAR, 0),
        ("p", PARAM, 0),
        ("inv", INV, 1),
        ("powabs", POWABS, 2),
        ("+", ADD, 2),
        ("-", SUB, 2),
        ("*", MUL, 2),
        ("/", DIV, 2),
    )
    name: str = "univariate-v1"


DEFAULT_GRAMMAR = Grammar()


def count_nodes(e: Expr) -> int:
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def length(e: Expr) -> int:
    """Expression length: the number of operator and operand nodes."""
    return count_nodes(e)


def subtrees(e: Expr):
    """Yield every node of ``e`` in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def param_count(e: Expr) -> int:
    mx = 0
    for node in subtrees(e):
        if node.kind == PARAM and node.value > mx:
            mx = node.value
    return mx


def renumber_params(e: Expr) -> Expr:
    """Renumber parameter leaves 1..k in left-to-right (pre-order) order.

    Distinct input indices map to distinct output indices; repeated indices
    stay shared.
    """
    mapping: dict[int, int] = {}

    def walk(node: Expr) -> Expr:
        if node.kind == PARAM:
            idx = mapping.setdefault(node.value, len(mapping) + 1)
            return param(idx) if idx != node.value else node
        if not node.children:
            return node
        kids = tuple(walk(c) for c in node.children)
        if all(k is c for k, c in zip(kids, node.children)):
            return node
        return Expr(node.kind, node.value, kids)

    return walk(e)


def validate(e: Expr) -> None:
    """Raise ValueError unless parameter indices are contiguous from 1."""
    seen = set()
    for node in subtrees(e):
        if node.kind == PARAM:
            seen.add(node.value)
    if seen and sorted(seen) != list(range(1, len(seen) + 1)):
        raise ValueError(f"parameter indices not contiguous: {sorted(seen)}")


# -- hashing ---------------------------------------------------------------

def _serialize(e: Expr, out: list) -> None:
    k = e.kind
    out.append(bytes((k,)))
    if k == CONST:
        out.append(struct.pack("<d", e.value))
    elif k in (VAR, PARAM, HOLE):
        out.append(struct.pack("<I", e.value))
    for c in e.children:
        _serialize(c, out)


def structural_hash(e: Expr) -> int:
    """Deterministic 64-bit hash of the tree shape and leaf labels."""
    parts: list = []
    _serialize(e, parts)
    digest = hashlib.blake2b(b"".join(parts), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def text_hash(s: str) -> int:
    """Deterministic 64-bit hash of a string (used for semantic hashes)."""
    digest = hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# -- rendering -------------------------------------------------------------

# Precedence levels: higher binds tighter.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return f"{int(v)}.0"
    return repr(v)


def _render(e: Expr):
    """Return (text, precedence) for e."""
    k = e.kind
    if k == VAR:
        return ("x" if e.value == 1 else f"x{e.value}"), _PREC_ATOM
    if k == PARAM:
        return f"p{e.value}", _PREC_ATOM
    if k == CONST:
        s = _fmt_const(e.value)
        return s, (_PREC_ATOM if e.value >= 0 else _PREC_NEG)
    if k == HOLE:
        return f"?{e.value}", _PREC_ATOM
    if k == ABS:
        s, _ = _render(e.children[0])
        return f"abs({s})", _PREC_ATOM
    if k == INV:
        s, p = _render(e.children[0])
        if p <= _PREC_MUL:
            s = f"({s})"
        return f"1.0 / {s}", _PREC_MUL
    if k == NEG:
        c = e.children[0]
        if c.kind == INV:  # "-1.0 / a" display form
            s, p = _render(c.children[0])
            if p <= _PREC_MUL:
                s = f"({s})"
            return f"-1.0 / {s}", _PREC_MUL
        s, p = _render(c)
        if p < _PREC_NEG:
            s = f"({s})"
        return f"-{s}", _PREC_NEG
    if k == POWABS:
        base, exp = e.children
        if base.kind == PARAM or (base.kind == CONST and base.value >= 0):
            bs, _ = _render(base)
        else:
            bs, _ = _render(base)
            if bs.startswith("|"):
                bs = f"({bs})"
            bs = f"|{bs}|"
        es, ep = _render(exp)
        if ep < _PREC_ATOM:
            es = f"({es})"
        return f"{bs} ^ {es}", _PREC_POW
    # binary arithmetic
    a, b = e.children
    if k == ADD:
        op, prec = "+", _PREC_ADD
    elif k == SUB:
        op, prec = "-", _PREC_ADD
    elif k == MUL:
        op, prec = "*", _PREC_MUL
    else:
        op, prec = "/", _PREC_MUL
    ls, lp = _render(a)
    if lp < prec:
        ls = f"({ls})"
    rs, rp = _render(b)
    # left-associative display: right operand needs parens at equal precedence
    if rp < prec or (rp == prec and k in (SUB, DIV, MUL, ADD)):
        # keep strictly deterministic: parenthesize equal-precedence right sides
        rs = f"({rs})"
    return f"{ls} {op} {rs}", prec


def render(e: Expr) -> str:
    """Deterministic text form of ``e``; ``parse`` inverts it exactly."""
    return _render(e)[0]


# -- parsing ---------------------------------------------------------------

class ParseError(ValueError):
    """Malformed expression text; ``position`` is the 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_number(self) -> float:
        start = self.pos
        t = self.text
        n = len(t)
        while self.pos < n and (t[self.pos].isdigit() or t[self.pos] == "."):
            self.pos += 1
        if self.pos < n and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and t[self.pos].isdigit():
                while self.pos < n and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        try:
            return float(t[start:self.pos])
        except ValueError:
            self.pos = start
            self.error("bad numeric literal")

    def parse_name(self) -> str:
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start:self.pos]

    def parse_atom(self) -> Expr:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.eat("(")
            e = self.parse_sum()
            self.eat(")")
            return self.maybe_pow(e)
        if ch == "|":
            self.eat("|")
            e = self.parse_sum()
            self.eat("|")
            # bars followed by ^ are powabs syntax, otherwise plain abs
            if self.peek() == "^":
                self.eat("^")
                exp = self.parse_unary()
                return powabs(e, exp)
            return abs_(e)
        if ch == "-":
            self.eat("-")
            operand = self.parse_unary()
            return self.fold_neg(operand)
        if ch.isdigit() or ch == ".":
            v = self.parse_number()
            # "1.0 / e" is the display form of inv(e)
            if v == 1.0 and self.peek() == "/":
                self.eat("/")
                rhs = self.parse_unary()
                return self.maybe_pow(inv(rhs))
            return self.maybe_pow(const(v))
        if ch.isalpha():
            name = self.parse_name()
            if name in ("inv", "abs", "powabs"):
                self.eat("(")
                a = self.parse_sum()
                if name == "powabs":
                    self.eat(",")
                    b = self.parse_sum()
                    self.eat(")")
                    return self.maybe_pow(powabs(a, b))
                self.eat(")")
                return self.maybe_pow(inv(a) if name == "inv" else abs_(a))
            if name == "x":
                return self.maybe_pow(var(1))
            if name.startswith("x") and name[1:].isdigit():
                return self.maybe_pow(var(int(name[1:])))
            if name.startswith("p") and name[1:].isdigit():
                return self.maybe_pow(param(int(name[1:])))
            self.pos -= len(name)
            self.error(f"unknown symbol {name!r}")
        self.error(f"unexpected character {ch!r}")

    def fold_neg(self, operand: Expr) -> Expr:
        # "-1.0 / e" is the display form of neg(inv(e))
        if operand.kind == CONST and operand.value == 1.0 and self.peek() == "/":
            self.eat("/")
            rhs = self.parse_unary()
            return neg(inv(rhs))
        if operand.kind == CONST:
            return const(-operand.value)
        return neg(operand)

    def maybe_pow(self, base: Expr) -> Expr:
        if self.peek() == "^":
            self.eat("^")
            exp = self.parse_unary()
            return powabs(base, exp)
        return base

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            self.eat("-")
            return self.fold_neg(self.parse_unary())
        return self.parse_atom()

    def parse_product(self) -> Expr:
        e = self.parse_unary()
        while True:
            ch = self.peek()
            if ch == "*":
                self.eat("*")
                e = mul(e, self.parse_unary())
            elif ch == "/":
                self.eat("/")
                e = div(e, self.parse_unary())
            else:
                return e

    def parse_sum(self) -> Expr:
        e = self.parse_product()
        while True:
            ch = self.peek()
            if ch == "+":
                self.eat("+")
                e = add(e, self.parse_product())
            elif ch == "-":
                self.eat("-")
                e = sub(e, self.parse_product())
            else:
                return e

    def parse(self) -> Expr:
        e = self.parse_sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e


def parse(s: str) -> Expr:
    """Parse the text expression syntax; raises ParseError with a column."""
    return _Parser(s).parse()
