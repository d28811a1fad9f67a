"""Expression evaluation and forward-mode automatic differentiation.

Evaluation is vectorized over data points and follows IEEE semantics:
division by zero and powabs(0, negative) produce non-finite values that
propagate to the caller instead of raising.

``eval_with_grad`` carries one derivative lane per requested direction
(each parameter, or the input x alone) through the whole tree, applying the
chain rule at each operator.  powabs(a, b) = |a|**b differentiates to
|a|**b * (b'*log|a| + b*a'/a); at a == 0 the derivative is 0 when b > 1 and
non-finite otherwise (the almost-everywhere value, which avoids poisoning
whole-gradient checks at isolated points).

Fitting evaluates one structure thousands of times, so each structure is
compiled once per lane layout and data shape into a straight-line numpy
function (``_kernel``) and kept in a bounded cache; a fit looks its kernel
up once, not per evaluation.  Theta may carry a batch axis, ``(B, k)``, to
evaluate B parameter vectors in one call; one kernel serves every B, since
fitting's batches shrink from round to round.  Every value operand is a
full array of the point shape, ``(n,)``, or of the batch shape, ``(B, n)``,
never a broadcast view: numpy may route strided or broadcast input through
other loops than contiguous input (an x of shape ``(1,)`` against
``(B, 1)`` values takes another ``np.power`` loop and changes a last bit),
and fits are pinned to the last bit.  Lanes are full ``(lanes, n)``, or
``(lanes, B, n)`` in a batch, arrays, and values broadcast along the lane
axis only.  Leaf lanes and literal values are built once and shared,
read-only, between kernels; a batch kernel builds full ones per call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .expr import (
    Expr, VAR, PARAM, CONST, ADD, SUB, MUL, DIV, INV, POWABS, NEG, ABS,
)

__all__ = ["eval_expr", "eval_with_grad"]


def eval_expr(e: Expr, theta, x) -> np.ndarray:
    """Evaluate ``e`` at parameter vector ``theta`` over the 1-d points
    ``x``: the value ``eval_with_grad`` returns, from the same kernel."""
    return eval_with_grad(e, theta, x)[0]


# compiled kernels kept at once; a structure is compiled again after it
# drops out
_CACHE_SIZE = 1024

# the one globals dict of every kernel
_GLOBALS = {"np": np}


class _Key:
    """An expression as a kernel-cache key.  ``Expr`` equality counts the
    literals 0.0 and -0.0 as equal; kernels built from them are not, so keys
    also compare the literals' bits."""

    __slots__ = ("e",)

    def __init__(self, e: Expr):
        self.e = e

    def __hash__(self):
        return hash(self.e)

    def __eq__(self, other):
        return self.e is other.e or (self.e == other.e
                                     and _same_literals(self.e, other.e))


def _same_literals(a: Expr, b: Expr) -> bool:
    if a.kind == CONST:
        return float(a.value).hex() == float(b.value).hex()
    return all(map(_same_literals, a.children, b.children))


@lru_cache(maxsize=_CACHE_SIZE)
def _lane(lanes: int, row, n: int) -> np.ndarray:
    """Read-only leaf lanes: zeros, with a row of ones unless ``row`` is
    None.  Kernels share them and never write to their operands."""
    d = np.zeros((lanes, n))
    if row is not None:
        d[row] = 1.0
    d.flags.writeable = False
    return d


@lru_cache(maxsize=_CACHE_SIZE)
def _literal(bits: str, n: int) -> np.ndarray:
    """Read-only values of a literal leaf, keyed on ``float.hex``."""
    v = np.full(n, float.fromhex(bits))
    v.flags.writeable = False
    return v


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel(key: _Key, n_theta: int, wrt_x: bool, n: int, batched: bool):
    """Compile ``key.e`` into ``kernel(theta, pts) -> (value, lanes)``.

    The lanes are d/dp1..d/dpk, or d/dx alone when ``wrt_x``.  Each node
    becomes the numpy operations of the forward-mode chain rule on full
    value and derivative arrays: ``(n,)`` and ``(lanes, n)`` for one theta,
    ``(B, n)`` and ``(lanes, B, n)`` for a ``(B, k)`` batch of them.
    Parameter leaves are built once per call, and so are a batch's other
    leaves.  Out-of-range leaves raise here, and since the cache keeps no
    exceptions, they raise on every call.
    """
    lines = [""]          # the def line, once the shared arrays are known
    made: dict = {}       # leaf key -> name of its array in the kernel
    arrays: dict = {}     # id -> (name, shared array)
    lanes = 1 if wrt_x else n_theta

    def shared(value) -> str:
        return arrays.setdefault(id(value), (f"s{len(arrays)}", value))[0]

    def assign(text: str) -> str:
        name = f"t{len(lines)}"
        lines.append(f"    {name} = {text}")
        return name

    def once(key, text: str) -> str:
        """The name of a per-call array, built at its first use."""
        if key not in made:
            made[key] = assign(text)
        return made[key]

    def lane(row) -> str:
        d = shared(_lane(lanes, row, n))
        if not batched:
            return d
        return once(("lane", row), f"np.repeat({d}[:, None], len(theta), 1)")

    def walk(e: Expr) -> tuple:
        k = e.kind
        if k == VAR:
            v = once("x", "np.repeat(np.expand_dims(pts, -2), len(theta), "
                          "-2)") if batched else "pts"
            return v, lane(0 if wrt_x else None)
        if k == PARAM:
            if e.value > n_theta:
                raise ValueError(f"p{e.value} requested but theta has "
                                 f"{n_theta} entries")
            i = e.value - 1
            if batched:
                rows = once("p", f"np.repeat(theta.T, {n}).reshape("
                                 f"{n_theta}, -1, {n})")
                v = once(e.value, f"{rows}[{i}]")
            else:
                v = once(e.value, f"np.full({n}, theta[{i}])")
            return v, lane(None if wrt_x else i)
        if k == CONST:
            bits = float(e.value).hex()
            if batched:
                v = once(bits, f"np.full((len(theta), {n}), "
                               f"float.fromhex({bits!r}))")
            else:
                v = shared(_literal(bits, n))
            return v, lane(None)
        if k != POWABS and k not in _RULES:
            raise ValueError(f"cannot differentiate node kind {k}")
        kids = [walk(c) for c in e.children]
        (av, ad), (bv, bd) = kids[0], kids[-1]   # a unary node's b is a
        if k == POWABS:
            absa = assign(f"np.abs({av})")
            v = assign(f"np.power({absa}, {bv})")
            d = assign(f"{v} * ({bd} * np.log({absa}) "
                       f"+ np.divide({bv} * {ad}, {av}))")
            zero = assign(f"{av} == 0.0")
            lines.append(f"    if {zero}.any():")
            lines.append(f"        {d} = np.where({zero} & ({bv} > 1.0), "
                         f"0.0, {d})")
            return v, d
        value, lane_rule = _RULES[k]
        v = assign(value.format(av=av, bv=bv))
        return v, assign(lane_rule.format(v=v, av=av, ad=ad, bv=bv, bd=bd))

    v, d = walk(key.e)
    if key.e.kind in (VAR, PARAM, CONST) and not batched:
        lines.append(f"    return {v}.copy(), {d}.copy()")
    else:
        lines.append(f"    return {v}, {d}")
    # shared arrays are bound as defaults, so they are fast locals and no
    # kernel holds a namespace of its own
    lines[0] = "def kernel(theta, pts, {}):".format(
        ", ".join(f"{name}={name}" for name, _ in arrays.values()))
    ns = dict(arrays.values())
    exec("\n".join(lines), _GLOBALS, ns)  # closed vocabulary: _RULES, powabs
    return ns["kernel"]


# the value and lane of each operator but powabs under the chain rule: av/ad
# and bv/bd are the children's values and lanes, v the operator's value
_RULES = {
    ADD: ("{av} + {bv}", "{ad} + {bd}"),
    SUB: ("{av} - {bv}", "{ad} - {bd}"),
    MUL: ("{av} * {bv}", "{ad} * {bv} + {bd} * {av}"),
    INV: ("np.divide(1.0, {av})", "-{ad} * {v} * {v}"),
    DIV: ("np.divide({av}, {bv})",
          "np.divide({ad}, {bv}) - np.divide({v} * {bd}, {bv})"),
    NEG: ("-{av}", "-{ad}"),
    ABS: ("np.abs({av})", "{ad} * np.sign({av})"),
}


def eval_with_grad(e: Expr, theta, x, wrt: str = "params"):
    """Evaluate ``e`` and its gradient over the 1-d points ``x``.

    wrt="params": lanes are d/dp1..d/dpk.
    wrt="x": a single d/dx lane.

    Returns (value, grad): value ``(n,)`` and grad ``(lanes, n)``.  Gradient
    values match central finite differences wherever the function is
    differentiable.  A ``(B, k)`` theta is a batch of B parameter vectors
    over the same points: value is ``(B, n)`` and grad ``(B, lanes, n)``,
    and each row is bit for bit what that row alone gives.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 1:
        raise ValueError(f"x must be one-dimensional, not of shape "
                         f"{pts.shape}")
    if wrt not in ("params", "x"):
        raise ValueError(f"unknown wrt {wrt!r}")
    theta = np.asarray(theta, dtype=float)
    batched = theta.ndim == 2
    kernel = _lookup(e, (theta.shape[-1], wrt == "x", pts.shape[-1], batched))
    with np.errstate(all="ignore"):
        v, g = kernel(theta, pts)
    return (v, g.swapaxes(0, 1)) if batched else (v, g)


# the kernels of the Expr object evaluated last, by signature: a fit
# evaluates one Expr object many times, and a lookup in the kernel cache
# compares whole trees when the object is not the one the kernel was
# compiled for
_recent: tuple = (None, {})


def _lookup(e: Expr, signature: tuple):
    global _recent
    owner, kernels = _recent
    if owner is not e:
        kernels = {}
        _recent = (e, kernels)
    kernel = kernels.get(signature)
    if kernel is None:
        kernel = kernels[signature] = _kernel(_Key(e), *signature)
    return kernel
