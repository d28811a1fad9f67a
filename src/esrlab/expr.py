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
    leaves      x, p1..pk, numeric literals

``render(parse(s)) == s`` for every rendered text (``read_catalog`` checks
it), and ``parse(render(e)) == e`` for trees without literal leaves, grammar
trees among them; ``div(-1.0, e)`` and ``div(1.0, e)`` print as the display
forms of ``neg(inv(e))`` and ``inv(e)``.
"""

from __future__ import annotations

import hashlib
import math
import struct

from ._files import InputError

__all__ = [
    "Expr", "ParseError",
    "VAR", "PARAM", "CONST", "ADD", "SUB", "MUL", "DIV", "INV", "POWABS",
    "NEG", "ABS", "HOLE",
    "var", "param", "const", "add", "sub", "mul", "div", "inv", "powabs",
    "neg", "abs_", "hole",
    "length", "render", "parse", "MAX_DEPTH", "structural_hash",
    "structural_key", "param_count", "renumber_params", "renumber_leaves",
    "subtrees", "PRODUCTIONS", "GRAMMAR_ID",
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

    ``value`` holds the parameter index (PARAM), literal (CONST) or hole
    index (HOLE); it is 1 for the one variable (VAR) and None for
    operators.
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

    def __reduce__(self):
        # rebuilt through the constructor: pickle's default restores slots
        # by setattr, which an immutable node refuses
        return Expr, (self.kind, self.value, self.children)

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


def var() -> Expr:
    return Expr(VAR, 1)


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


# The generating grammar: the node kinds of the production alternatives for
# the single nonterminal E, in enumeration order; every node contributes one
# unit to expression length.  The six alternative forms x, p, inv(E),
# powabs(E,E), E (+|-) E, E (*|/) E expand to these eight productions.
PRODUCTIONS = (VAR, PARAM, INV, POWABS, ADD, SUB, MUL, DIV)
GRAMMAR_ID = "univariate-v1"


def length(e: Expr) -> int:
    """Expression length: the number of operator and operand nodes."""
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


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
    """Number the parameter leaves 1..k in left-to-right (pre-order) order,
    one index per leaf: every parameter leaf is its own parameter, so no two
    leaves share an index, whatever their indices were.
    """
    return _renumber(e, None)


def renumber_leaves(e: Expr) -> Expr:
    """``renumber_params``, and holes numbered apart by first appearance; a
    partial tree's canonical form can repeat a hole, which stays shared."""
    return _renumber(e, {})


def _renumber(e: Expr, holes: dict | None) -> Expr:
    # One left-to-right walk: the n-th parameter leaf becomes p<n>, and a
    # hole, when ``holes`` is a dict, the number of its index's first
    # appearance.  A node comes back as it is when nothing under it changes.
    n = 0

    def walk(node: Expr) -> Expr:
        nonlocal n
        kids = node.children
        if not kids:
            kind = node.kind
            if kind == PARAM:
                n += 1
                return node if node.value == n else Expr(PARAM, n)
            if kind == HOLE and holes is not None:
                idx = holes.setdefault(node.value, len(holes) + 1)
                return node if node.value == idx else Expr(HOLE, idx)
            return node
        a = walk(kids[0])
        if len(kids) == 1:
            return node if a is kids[0] else Expr(node.kind, node.value, (a,))
        b = walk(kids[1])
        if a is kids[0] and b is kids[1]:
            return node
        return Expr(node.kind, node.value, (a, b))

    return walk(e)


# -- hashing ---------------------------------------------------------------

_KIND_BYTE = tuple(bytes((k,)) for k in range(len(ARITY)))
_pack_d = struct.Struct("<d").pack
_pack_I = struct.Struct("<I").pack


def structural_key(e: Expr) -> bytes:
    """Exact byte serialization of the tree: one kind byte per node in
    pre-order, then a payload fixed by the kind (``<d`` for CONST, ``<I``
    for VAR/PARAM/HOLE, none for operators).

    The kind fixes both the arity and the payload width, so the bytes decode
    one way only: two trees with finite literals share a key exactly when
    they are equal as ``Expr`` values.  ``-0.0`` is written as ``0.0``, as
    ``Expr.__eq__`` treats them.
    """
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        c = node.children
        if c:
            out.append(_KIND_BYTE[node.kind])
            if len(c) == 2:
                stack.append(c[1])
            stack.append(c[0])
        elif node.kind == CONST:
            # adding 0.0 turns -0.0 into 0.0 and leaves every other value
            out.append(_KIND_BYTE[CONST] + _pack_d(node.value + 0.0))
        else:
            out.append(_KIND_BYTE[node.kind] + _pack_I(node.value))
    return b"".join(out)


def structural_hash(e: Expr) -> int:
    """Deterministic 64-bit hash of the tree shape and leaf labels: blake2b
    over ``structural_key``, so ``0.0`` and ``-0.0`` give equal digests."""
    digest = hashlib.blake2b(structural_key(e), digest_size=8).digest()
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
        return "x", _PREC_ATOM
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
    """Deterministic text form of ``e``, which ``parse`` reads back."""
    return _render(e)[0]


# -- parsing ---------------------------------------------------------------

class ParseError(InputError):
    """Malformed expression text; ``position`` is the 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


# The deepest tree that ``parse`` accepts, far above the 16 nodes of a
# catalog entry and the few more of GP's over-length candidates.  The syntax
# may nest twice as deep (an operand inside a prefix operator, inside
# parentheses), since ``render`` nests each level of a tree at most twice.
# The parser and the recursive passes downstream (rendering,
# canonicalization, fitting) take at most four frames per level, so at
# these bounds they stay well inside Python's default recursion limit.
MAX_DEPTH = 64
_MAX_NESTING = 2 * MAX_DEPTH


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0
        # id of each interior node built -> its depth (a leaf's is 1); every
        # such node stays in the tree until parse returns, so ids stay
        # unique.  A tree has no more nodes than its text has characters, so
        # a text no longer than MAX_DEPTH cannot be too deep and tracks none.
        self.depth = {} if len(text) > MAX_DEPTH else None

    def error(self, msg: str):
        raise ParseError(msg, self.pos + 1)

    def node(self, make, *kids) -> Expr:
        """``make(*kids)``, refused if it is deeper than MAX_DEPTH."""
        e = make(*kids)
        if self.depth is not None:
            depth = 1 + max(self.depth.get(id(k), 1) for k in kids)
            if depth > MAX_DEPTH:
                self.error(f"expression deeper than {MAX_DEPTH} levels")
            self.depth[id(e)] = depth
        return e

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
            v = float(t[start:self.pos])
        except ValueError:
            self.pos = start
            self.error("bad numeric literal")
        if not math.isfinite(v):
            self.pos = start
            self.error("numeric literal out of range")
        return v

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
                return self.node(powabs, e, exp)
            return self.node(abs_, e)
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
                return self.maybe_pow(self.node(inv, rhs))
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
                    return self.maybe_pow(self.node(powabs, a, b))
                self.eat(")")
                return self.maybe_pow(
                    self.node(inv if name == "inv" else abs_, a))
            if name == "x":
                return self.maybe_pow(var())
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
            return self.node(neg, self.node(inv, rhs))
        if operand.kind == CONST:
            return const(-operand.value)
        return self.node(neg, operand)

    def maybe_pow(self, base: Expr) -> Expr:
        if self.peek() == "^":
            self.eat("^")
            exp = self.parse_unary()
            return self.node(powabs, base, exp)
        return base

    def parse_unary(self) -> Expr:
        # every recursion of the parser passes through here
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            self.error(f"expression nested deeper than {_MAX_NESTING} levels")
        if self.peek() == "-":
            self.eat("-")
            e = self.fold_neg(self.parse_unary())
        else:
            e = self.parse_atom()
        self.nesting -= 1
        return e

    def parse_product(self) -> Expr:
        e = self.parse_unary()
        while True:
            ch = self.peek()
            if ch == "*":
                self.eat("*")
                e = self.node(mul, e, self.parse_unary())
            elif ch == "/":
                self.eat("/")
                e = self.node(div, e, self.parse_unary())
            else:
                return e

    def parse_sum(self) -> Expr:
        e = self.parse_product()
        while True:
            ch = self.peek()
            if ch == "+":
                self.eat("+")
                e = self.node(add, e, self.parse_product())
            elif ch == "-":
                self.eat("-")
                e = self.node(sub, e, self.parse_product())
            else:
                return e

    def parse(self) -> Expr:
        e = self.parse_sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e


def parse(s: str) -> Expr:
    """Parse the text expression syntax; raises ParseError with a column,
    also for a tree deeper than MAX_DEPTH or a syntax nested more than twice
    as deep."""
    return _Parser(s).parse()
