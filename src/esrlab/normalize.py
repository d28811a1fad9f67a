"""Deterministic algebraic normalization applied before equality saturation.

Whole families of trivially congruent trees (orderings of sums and products,
sign variants, reciprocal/power chains, parameter-only subexpressions)
collapse to one normal form in one recursive pass, so the e-graph budget is
spent on the deep equalities (distribution, factoring, exponent arithmetic)
instead of on enumerating those orbits.  The pass costs O(n * depth), since
folding analyzes each subtree it meets.  A subtree of at most 5 nodes is
normalized once per process: a memo of at most 4,096 entries keys its normal
form by the subtree's shape, which drops parameter indices and keeps literal
bits and hole indices.

Every local rewrite preserves the function family:

  * sums and products are flattened and sorted, with a numeric coefficient
    per term/product and exact constant folding;
  * repeated parameter-free terms/factors combine ((c1+c2)*u; u*u = |u|^2,
    odd copies keep one signed u);
  * any variable-free subexpression folds to its numeric value, or to a
    fresh parameter when it holds one or its arithmetic is degenerate; the
    fold uses the e-graph's constant analysis (``_const_analysis``), so both
    passes fold alike;
  * inv(inv(u)) = u, inv(|u|^b) = |u|^-b, |c*u| = |c|*|u|, ||u|| = |u|,
    |u|^1 = |u|, (|u|^a)^b = |u|^(a*b), |-u| = |u|, |1/u| = 1/|u|;
  * differences and quotients rewrite to sums/products with -1 or inv.
"""

from __future__ import annotations

from . import expr as ex
from .egraph import (_CONST, _FRESH_BASE, _OTHER, _PARAMONLY,
                     _const_analysis, _const_eval)
from .expr import (
    Expr, PARAM, CONST, ADD, SUB, MUL, DIV, INV, POWABS, NEG, ABS, HOLE,
)

__all__ = ["normalize"]


def _sort_key(e: Expr):
    # parameters compare as interchangeable placeholders: every occurrence is
    # an independent slot, so indices must not affect the ordering
    parts = []
    stack = [e]
    while stack:
        n = stack.pop()
        parts.append(n.kind)
        if n.kind == PARAM:
            parts.append(0.0)
        else:
            parts.append(float(n.value) if n.value is not None else -1.0)
        stack.extend(reversed(n.children))
    return tuple(parts)


def _merge_key(base: Expr, n_keys: int) -> tuple:
    """Key under which equal bases merge their coefficients or counts; a
    base with parameters never merges (parameters make it unsound)."""
    if any(n.kind == PARAM for n in ex.subtrees(base)):
        return ("unique", n_keys)
    return ("base", _sort_key(base))


def _analyze(e: Expr) -> tuple:
    """(kind, value) of ``e`` under the e-graph's constant analysis."""
    kids = []
    for c in e.children:
        a = _analyze(c)
        if a[0] == _OTHER:  # a variable below makes the whole term one too
            return a
        kids.append(a)
    return _const_analysis(e.kind, kids, e.value)


def _chain(kind: int, items: list) -> Expr:
    """Left-nested ADD or MUL chain over ``items``."""
    acc = items[0]
    for t in items[1:]:
        acc = Expr(kind, None, (acc, t))
    return acc


def _flatten(e: Expr, kind: int) -> list:
    """Operands of the ADD or MUL chain rooted at ``e``, right to left."""
    out = []
    stack = [e]
    while stack:
        n = stack.pop()
        if n.kind == kind:
            stack.extend(n.children)
        else:
            out.append(n)
    return out


# The memo of small subtrees' normal forms, by ``_shape``.
_MEMO_LENGTH = 5   # nodes
_MEMO_SIZE = 4096   # entries; a full memo still answers
_memo: dict = {}


def _shape(e: Expr):
    """Memo key of ``e``, one item per node in a fixed order: a literal's
    ``float.hex`` (so -0.0 stays apart from 0.0), ``-1 - index`` for a
    hole, and the kind for any other node, so parameter indices drop out.
    None when ``e`` has more than _MEMO_LENGTH nodes."""
    parts = []
    stack = [e]
    while stack:
        if len(parts) == _MEMO_LENGTH:
            return None
        node = stack.pop()
        k = node.kind
        if k == CONST:
            parts.append(node.value.hex())
        elif k == HOLE:
            parts.append(-1 - node.value)
        else:
            parts.append(k)
            stack += node.children
    return tuple(parts)


class _Normalizer:
    def __init__(self):
        self.fresh = 0

    def fresh_param(self) -> Expr:
        self.fresh += 1
        return ex.param(_FRESH_BASE + self.fresh)

    def fold(self, e: Expr) -> Expr | None:
        """Fold a variable-free subtree by the e-graph's constant analysis:
        a finite constant folds to its literal, anything else (parameters,
        or degenerate non-finite arithmetic) collapses to a single fresh
        parameter."""
        kind, v = _analyze(e)
        if kind == _CONST:
            return ex.const(v)
        if kind == _PARAMONLY:
            return self.fresh_param()
        return None

    def norm(self, e: Expr) -> Expr:
        if not e.children:
            return e
        key = _shape(e)
        if key is None:
            return self.norm_node(e)
        n = _memo.get(key)
        if n is None:
            n = self.norm_node(e)
            if len(_memo) < _MEMO_SIZE:
                _memo[key] = n
        return n

    def norm_node(self, e: Expr) -> Expr:
        k = e.kind
        folded = self.fold(e)
        if folded is not None:
            return folded
        if k == SUB:
            return self.norm(ex.add(e.children[0],
                                    ex.mul(ex.const(-1), e.children[1])))
        if k == DIV:
            return self.norm(ex.mul(e.children[0], ex.inv(e.children[1])))
        if k == NEG:
            return self.norm(ex.mul(ex.const(-1), e.children[0]))
        if k == ADD:
            return self.norm_sum(e)
        if k == MUL:
            return self.norm_product(e)
        if k == INV:
            return self.norm_inv(self.norm(e.children[0]))
        if k == ABS:
            return self.norm_abs(self.norm(e.children[0]))
        if k == POWABS:
            return self.norm_powabs(self.norm(e.children[0]),
                                    self.norm(e.children[1]))
        raise AssertionError(k)

    # -- sums ---------------------------------------------------------------

    def split_coeff(self, t: Expr):
        """Split a normalized term into (coefficient, base)."""
        if t.kind == CONST:
            return t.value, None
        if t.kind == MUL:
            a, b = t.children
            if a.kind == CONST:
                return a.value, b
        return 1.0, t

    def norm_sum(self, e: Expr) -> Expr:
        terms: list[Expr] = []

        def collect(node: Expr):
            if node.kind == ADD:
                collect(node.children[0])
                collect(node.children[1])
            elif node.kind == SUB:
                collect(node.children[0])
                collect(self.norm(ex.mul(ex.const(-1), node.children[1])))
            else:
                terms.append(self.norm(node))

        collect(e.children[0])
        collect(e.children[1])
        const_sum = 0.0
        param_only: list[Expr] = []
        by_base: dict = {}
        unfolded: list[Expr] = []   # terms whose coefficient would overflow
        for t in terms:
            if t.kind == ADD:  # re-flatten terms normalized into sums
                terms.extend(_flatten(t, ADD))
                continue
            coeff, base = self.split_coeff(t)
            if base is None:
                folded = _const_eval(ADD, [const_sum, coeff])
                if folded is None:   # the sum would not be finite
                    unfolded.append(t)
                else:
                    const_sum = folded
                continue
            if _analyze(base)[0] != _OTHER:
                param_only.append(t)
                continue
            key = _merge_key(base, len(by_base))
            if key not in by_base:
                by_base[key] = (coeff, base)
                continue
            folded = _const_eval(ADD, [by_base[key][0], coeff])
            if folded is None:
                unfolded.append(t)
            else:
                by_base[key] = (folded, base)

        out: list[Expr] = unfolded
        for key, (coeff, base) in by_base.items():
            if coeff == 0.0 and key[0] == "base":
                continue
            out.append(self.apply_coeff(coeff, base))
        if param_only:
            # one fresh parameter absorbs every parameter-only term and the
            # numeric remainder
            out.append(self.fresh_param())
            const_sum = 0.0
        if const_sum != 0.0 or not out:
            out.append(ex.const(const_sum))
        out.sort(key=_sort_key)
        return _chain(ADD, out)

    def apply_coeff(self, coeff: float, base: Expr) -> Expr:
        if coeff == 1.0:
            return base
        return ex.mul(ex.const(coeff), base)

    # -- products -----------------------------------------------------------

    def norm_product(self, e: Expr) -> Expr:
        factors: list[Expr] = []

        def collect(node: Expr):
            if node.kind == MUL:
                collect(node.children[0])
                collect(node.children[1])
            else:
                factors.extend(_flatten(self.norm(node), MUL))

        collect(e.children[0])
        collect(e.children[1])
        coeff = 1.0
        param_only = False
        by_base: dict = {}
        unfolded: list[Expr] = []
        for f in factors:
            if f.kind == CONST:
                folded = _const_eval(MUL, [coeff, f.value])
                if folded is None:   # the product would not be finite
                    unfolded.append(f)
                else:
                    coeff = folded
                continue
            if _analyze(f)[0] != _OTHER:
                param_only = True
                continue
            # reciprocal factors count negatively against their base, so
            # u * (1/u) cancels and u/(u*u) becomes |u|^-2 * u-parity
            step = 1
            base = f
            if f.kind == INV:
                step = -1
                base = f.children[0]
            key = _merge_key(base, len(by_base))
            if key in by_base:
                by_base[key] = (by_base[key][0] + step, base)
            else:
                by_base[key] = (step, base)
        if coeff == 0.0:
            return ex.const(0.0)

        out: list[Expr] = unfolded
        for count, base in by_base.values():
            if count == 0:
                continue  # u/u cancels (almost everywhere, as the rules do)
            # repeated factors stay verbatim: u*u and |u|^2 are equal
            # functions but distinct under the rewrite vocabulary (the power
            # rules only see integer exponents through true powers)
            piece = base if count > 0 else ex.inv(base)
            out.extend([piece] * abs(count))
        if param_only:
            out.append(self.fresh_param())  # absorbs the coefficient too
            coeff = 1.0
        if not out:
            return ex.const(coeff)
        if coeff != 1.0 and len(out) == 1 and out[0].kind == ADD:
            # distribute a numeric coefficient over a sum (exact), so terms
            # like x - (x + p) cancel during sum normalization
            return self.norm(_chain(ADD, [ex.mul(ex.const(coeff), n)
                                          for n in _flatten(out[0], ADD)]))
        out.sort(key=_sort_key)
        acc = _chain(MUL, out)
        if coeff != 1.0:
            acc = ex.mul(ex.const(coeff), acc)
        return acc

    # -- unary chains ---------------------------------------------------------

    def norm_inv(self, n: Expr) -> Expr:
        folded = self.fold(ex.inv(n))
        if folded is not None:
            return folded
        if n.kind == INV:
            return n.children[0]
        if n.kind == POWABS:
            return self.norm_powabs(
                n.children[0],
                self.norm(ex.mul(ex.const(-1), n.children[1])))
        if n.kind == MUL:
            # 1/(u*v) = (1/u)*(1/v) almost everywhere, so reciprocal factors
            # can cancel against plain ones during product normalization
            a, b = n.children
            return self.norm_product(ex.mul(ex.inv(a), ex.inv(b)))
        return ex.inv(n)

    def norm_abs(self, n: Expr) -> Expr:
        folded = self.fold(ex.abs_(n))
        if folded is not None:
            return folded
        if n.kind == ABS:
            return n
        if n.kind == POWABS:
            return n  # already nonnegative
        if n.kind == INV:
            return ex.inv(self.norm_abs(n.children[0]))
        if n.kind == MUL:
            a, b = n.children
            if a.kind == CONST:
                return self.norm_product(
                    ex.mul(ex.const(abs(a.value)), self.norm_abs(b)))
        return ex.abs_(n)

    def norm_powabs(self, base: Expr, exp: Expr) -> Expr:
        folded = self.fold(ex.powabs(base, exp))
        if folded is not None:
            return folded
        # |c*u|^b = |c|^b * |u|^b only folds for constant exponents; the sign
        # of a -1 coefficient always drops
        if base.kind == MUL and base.children[0].kind == CONST \
                and base.children[0].value == -1.0:
            base = base.children[1]
        if base.kind == ABS:
            base = base.children[0]
        if base.kind == POWABS and (exp.kind == CONST
                                    and exp.value == int(exp.value)):
            # (|a|^b)^c collapses only for integer constant c, mirroring the
            # rewrite vocabulary's guard; non-integer chains stay nested
            inner_base, inner_exp = base.children
            return self.norm_powabs(inner_base,
                                    self.norm(ex.mul(inner_exp, exp)))
        if exp.kind == CONST:
            if exp.value == 0.0:
                return ex.const(1.0)
            if exp.value == 1.0:
                return self.norm_abs(base)
        if base.kind == CONST:
            if base.value == 1.0 or base.value == -1.0:
                return ex.const(1.0)
            if base.value < 0.0:
                base = ex.const(-base.value)
        if base.kind == INV:
            # |1/u|^b = |u|^-b
            return self.norm_powabs(
                base.children[0],
                self.norm(ex.mul(ex.const(-1), exp)))
        return ex.powabs(base, exp)


def normalize(e: Expr) -> Expr:
    """Normal form of ``e``, its parameter leaves numbered 1..k left to
    right; same function family, deterministic.  Every parameter leaf is its
    own parameter, so a tree that repeats an index is refused with a
    ValueError naming it.

    Nothing here reads a parameter's index (``_sort_key`` ignores it,
    ``_merge_key`` never merges a base that holds a parameter, and the
    final renumbering gives every leaf a new one), so the memo, which
    answers subtrees that differ only there alike, changes no output.
    """
    indices = [n.value for n in ex.subtrees(e) if n.kind == PARAM]
    if len(indices) != len(set(indices)):
        i = next(i for i in indices if indices.count(i) > 1)
        raise ValueError(f"p{i} appears more than once; every parameter "
                         "leaf is its own parameter")
    return ex.renumber_params(_Normalizer().norm(e))
