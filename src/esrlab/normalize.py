"""Deterministic algebraic normalization applied before equality saturation.

Whole families of trivially congruent trees (orderings of sums and products,
sign variants, reciprocal/power chains, parameter-only subexpressions)
collapse to one normal form in a single O(n log n) pass, so the e-graph
budget is spent on the deep equalities (distribution, factoring, exponent
arithmetic) instead of on enumerating those orbits.

Every local rewrite preserves the function family:

  * sums and products are flattened and sorted, with a numeric coefficient
    per term/product and exact constant folding;
  * repeated parameter-free terms/factors combine ((c1+c2)*u; u*u = |u|^2,
    odd copies keep one signed u);
  * any variable-free subexpression folds to a fresh parameter (if it
    contains one) or to its numeric value;
  * inv(inv(u)) = u, inv(|u|^b) = |u|^-b, |c*u| = |c|*|u|, ||u|| = |u|,
    |u|^1 = |u|, (|u|^a)^b = |u|^(a*b), |-u| = |u|, |1/u| = 1/|u|;
  * differences and quotients rewrite to sums/products with -1 or inv.

Parameter-only folding and fresh renumbering assume parameter occurrences
are independent; when an expression reuses a parameter index the pass keeps
parameters untouched (the exact rewrites still apply).
"""

from __future__ import annotations

import math

from . import expr as ex
from .expr import (
    Expr, VAR, PARAM, CONST, ADD, SUB, MUL, DIV, INV, POWABS, NEG, ABS, HOLE,
)

__all__ = ["normalize"]

_FRESH = 1 << 20  # parameter indices used by folding, renumbered away at the end


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


def _has_var(e: Expr) -> bool:
    return any(n.kind in (VAR, HOLE) for n in ex.subtrees(e))


def _has_param(e: Expr) -> bool:
    return any(n.kind == PARAM for n in ex.subtrees(e))


def _const_value(e: Expr):
    """Numeric value of a constant-only subtree, or None."""
    k = e.kind
    if k == CONST:
        return e.value
    if k in (VAR, PARAM, HOLE):
        return None
    vals = [_const_value(c) for c in e.children]
    if any(v is None for v in vals):
        return None
    try:
        if k == ADD:
            v = vals[0] + vals[1]
        elif k == SUB:
            v = vals[0] - vals[1]
        elif k == MUL:
            v = vals[0] * vals[1]
        elif k == DIV:
            v = vals[0] / vals[1]
        elif k == INV:
            v = 1.0 / vals[0]
        elif k == POWABS:
            v = abs(vals[0]) ** vals[1]
        elif k == NEG:
            v = -vals[0]
        elif k == ABS:
            v = abs(vals[0])
        else:
            return None
    except (ZeroDivisionError, OverflowError, ValueError):
        return None
    return v if math.isfinite(v) else None


class _Normalizer:
    def __init__(self, fold_params: bool):
        self.fold_params = fold_params
        self.fresh = 0

    def fresh_param(self) -> Expr:
        self.fresh += 1
        return ex.param(_FRESH + self.fresh)

    def fold(self, e: Expr) -> Expr | None:
        """Fold a variable-free subtree: a finite constant folds to its
        literal, anything else (parameters, or degenerate non-finite
        arithmetic) collapses to a single fresh parameter, mirroring the
        e-graph analysis."""
        if _has_var(e):
            return None
        v = _const_value(e)
        if v is not None:
            return ex.const(v)
        if self.fold_params:
            return self.fresh_param()
        return None

    def norm(self, e: Expr) -> Expr:
        k = e.kind
        if k in (VAR, PARAM, CONST, HOLE):
            return e
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
        order: list = []
        for t in terms:
            if t.kind == ADD:  # re-flatten terms normalized into sums
                stack = [t]
                flat = []
                while stack:
                    n = stack.pop()
                    if n.kind == ADD:
                        stack.extend(n.children)
                    else:
                        flat.append(n)
                terms.extend(flat)
                continue
            coeff, base = self.split_coeff(t)
            if base is None:
                const_sum += coeff
                continue
            if self.fold_params and not _has_var(base):
                param_only.append(t)
                continue
            if _has_param(base):
                # parameters make coefficient merging unsound; keep verbatim
                key = ("unique", len(order))
            else:
                key = ("base", _sort_key(base))
            if key in by_base:
                c0, _ = by_base[key]
                by_base[key] = (c0 + coeff, base)
            else:
                by_base[key] = (coeff, base)
                order.append(key)

        out: list[Expr] = []
        for key in order:
            coeff, base = by_base[key]
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
        acc = out[0]
        for t in out[1:]:
            acc = ex.add(acc, t)
        return acc

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
                n = self.norm(node)
                if n.kind == MUL:
                    stack = [n]
                    while stack:
                        m = stack.pop()
                        if m.kind == MUL:
                            stack.extend(m.children)
                        else:
                            factors.append(m)
                else:
                    factors.append(n)

        collect(e.children[0])
        collect(e.children[1])
        coeff = 1.0
        param_only = False
        by_base: dict = {}
        order: list = []
        for f in factors:
            if f.kind == CONST:
                coeff *= f.value
                continue
            if self.fold_params and not _has_var(f):
                param_only = True
                continue
            # reciprocal factors count negatively against their base, so
            # u * (1/u) cancels and u/(u*u) becomes |u|^-2 * u-parity
            step = 1
            base = f
            if f.kind == INV:
                step = -1
                base = f.children[0]
            if _has_param(base):
                key = ("unique", len(order))
            else:
                key = ("base", _sort_key(base))
            if key in by_base:
                by_base[key] = (by_base[key][0] + step, base)
            else:
                by_base[key] = (step, base)
                order.append(key)
        if coeff == 0.0:
            return ex.const(0.0)

        out: list[Expr] = []
        for key in order:
            count, base = by_base[key]
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
            terms = []
            stack = [out[0]]
            while stack:
                n = stack.pop()
                if n.kind == ADD:
                    stack.extend(n.children)
                else:
                    terms.append(ex.mul(ex.const(coeff), n))
            acc = terms[0]
            for t in terms[1:]:
                acc = ex.add(acc, t)
            return self.norm(acc)
        out.sort(key=_sort_key)
        acc = out[0]
        for f in out[1:]:
            acc = ex.mul(acc, f)
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
            if base.value == 0.0 and exp.kind == CONST and exp.value > 0:
                return ex.const(0.0)
            if base.value < 0.0:
                base = ex.const(-base.value)
        if base.kind == INV:
            # |1/u|^b = |u|^-b
            return self.norm_powabs(
                base.children[0],
                self.norm(ex.mul(ex.const(-1), exp)))
        return ex.powabs(base, exp)


def _renumber(e: Expr) -> Expr:
    counter = [0]

    def walk(node: Expr) -> Expr:
        if node.kind == PARAM:
            counter[0] += 1
            return node if node.value == counter[0] else ex.param(counter[0])
        if not node.children:
            return node
        kids = tuple(walk(c) for c in node.children)
        if all(a is b for a, b in zip(kids, node.children)):
            return node
        return Expr(node.kind, node.value, kids)

    return walk(e)


def normalize(e: Expr) -> Expr:
    """Normal form of ``e``; same function family, deterministic.

    When parameter occurrences are independent (no repeated index) every
    occurrence is renumbered left-to-right; otherwise parameter folding is
    disabled and indices are preserved.
    """
    indices = [n.value for n in ex.subtrees(e) if n.kind == PARAM]
    independent = len(indices) == len(set(indices))
    n = _Normalizer(fold_params=independent).norm(e)
    return _renumber(n) if independent else n
