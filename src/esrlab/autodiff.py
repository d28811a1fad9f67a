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

The least-squares fit evaluates one structure over one dataset, so
``mse_kernel`` compiles the structure bound to the dataset: one generated
function returns the values, the parameter lanes, the mean squared error
and its gradient.  Every subtree without a parameter leaf (``|x| ^ x``,
``1.0 / x``) is evaluated once, when the kernel is compiled, and its value
and lanes are bound as constants; its lanes are kept as computed, NaN
included, not assumed zero.  Like leaf lanes and literals, these arrays
are read-only and shared: kernels that compute equal bits keep one copy.  A
batch kernel repeats each such ``(n,)`` value to ``(B, n)`` per call.  The
same numpy operations run on the same shapes as in the unbound kernel, so
the bits are the same.  Both kinds share
one cache of ``_CACHE_SIZE`` kernels, keyed on the structure (literal bits
included), the number of parameters, the lane layout, the number of points,
batch or not, and the dataset the kernel is bound to, if any.  A dataset
keys by identity: its columns are read-only, so a bound kernel cannot go
stale, and a cached kernel keeps its dataset alive, so no other dataset can
take its identity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .expr import (
    Expr, VAR, PARAM, CONST, ADD, SUB, MUL, DIV, INV, POWABS, NEG, ABS,
    param_count,
)

__all__ = ["eval_expr", "eval_with_grad", "mse_kernel"]


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
def _frozen(shape: tuple, bits: bytes) -> np.ndarray:
    """A read-only array of these bits: the value or lanes of a subtree a
    bound kernel computed once.  Kernels that compute equal ones, as GP's
    and a catalog's structures sharing a subtree do, keep one copy."""
    v = np.frombuffer(bits).reshape(shape).copy()
    v.flags.writeable = False
    return v


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel(key: _Key, n_theta: int, wrt_x: bool, n: int, batched: bool,
            data=None):
    """Compile ``key.e`` into ``kernel(theta, pts) -> (value, lanes)``, or,
    bound to ``data``, into ``kernel(theta) -> (value, lanes, mses,
    grads)``.

    The lanes are d/dp1..d/dpk, or d/dx alone when ``wrt_x``.  Each node
    becomes the numpy operations of the forward-mode chain rule on full
    value and derivative arrays: ``(n,)`` and ``(lanes, n)`` for one theta,
    ``(B, n)`` and ``(lanes, B, n)`` for a ``(B, k)`` batch of them.
    Parameter leaves are built once per call, and so are a batch's other
    leaves.  Bound to ``data``, a subtree without a parameter leaf is
    evaluated once, here, over ``data.x`` and for one theta, and the kernel
    reads its value and lanes (which may hold NaN) as read-only arrays; a
    batch repeats them to its shape on each call.  Out-of-range leaves
    raise here, and since the cache keeps no exceptions, they raise on
    every call.
    """
    body = []             # the kernel's lines, run on every call
    setup = []            # the parameter-free subtrees' lines, run once
    made: dict = {}       # leaf or hoisted key -> name of its per-call array
    arrays: dict = {}     # id -> (name, shared array)
    fixed: list = []      # names of the setup arrays the kernel reads
    lanes = 1 if wrt_x else n_theta

    def shared(value) -> str:
        return arrays.setdefault(id(value), (f"s{len(arrays)}", value))[0]

    def assign(lines: list, text: str) -> str:
        name = f"t{len(body) + len(setup)}"
        lines.append(f"{name} = {text}")
        return name

    def once(key, text: str) -> str:
        """The name of a per-call array, built at its first use."""
        if key not in made:
            made[key] = assign(body, text)
        return made[key]

    def lane(row, batched: bool) -> str:
        d = shared(_lane(lanes, row, n))
        if not batched:
            return d
        return once(("lane", row), f"{d}[:, None].repeat(len(theta), 1)")

    def walk(e: Expr, lines: list, batched: bool) -> tuple:
        k = e.kind
        if k == VAR:
            v = once("x", "pts[None].repeat(len(theta), 0)") if batched \
                else "pts"
            return v, lane(0 if wrt_x else None, batched)
        if k == PARAM:
            if e.value > n_theta:
                raise ValueError(f"p{e.value} requested but theta has "
                                 f"{n_theta} entries")
            i = e.value - 1
            if batched:
                rows = once("p", f"theta.T.repeat({n}).reshape("
                                 f"{n_theta}, -1, {n})")
                v = once(e.value, f"{rows}[{i}]")
            else:
                v = once(e.value, f"theta[{i}:{i + 1}].repeat({n})")
            return v, lane(None if wrt_x else i, batched)
        if k == CONST:
            v = shared(_literal(float(e.value).hex(), n))
            if batched:
                v = once(v, f"{v}[None].repeat(len(theta), 0)")
            return v, lane(None, batched)
        if k != POWABS and k not in _RULES:
            raise ValueError(f"cannot differentiate node kind {k}")
        if data is not None and lines is body and param_count(e) == 0:
            v, d = walk(e, setup, False)
            fixed.extend((v, d))
            if not batched:
                return v, d
            return (once(v, f"{v}[None].repeat(len(theta), 0)"),
                    once(d, f"{d}[:, None].repeat(len(theta), 1)"))
        kids = [walk(c, lines, batched) for c in e.children]
        (av, ad), (bv, bd) = kids[0], kids[-1]   # a unary node's b is a
        if k == POWABS:
            absa = assign(lines, f"np.abs({av})")
            v = assign(lines, f"np.power({absa}, {bv})")
            d = assign(lines, f"{v} * ({bd} * np.log({absa}) "
                              f"+ np.divide({bv} * {ad}, {av}))")
            zero = assign(lines, f"{av} == 0.0")
            lines.append(f"if {zero}.any():")
            lines.append(f"    {d} = np.where({zero} & ({bv} > 1.0), 0.0, "
                         f"{d})")
            return v, d
        value, lane_rule = _RULES[k]
        v = assign(lines, value.format(av=av, bv=bv))
        return v, assign(lines, lane_rule.format(v=v, av=av, ad=ad, bv=bv,
                                                 bd=bd))

    v, d = walk(key.e, body, batched)
    # shared arrays are bound as defaults, so they are fast locals and no
    # kernel holds a namespace of its own
    args = "".join(f", {name}={name}" for name, _ in arrays.values())
    ns = dict(arrays.values())
    if data is None:
        copy = ".copy()" if key.e.kind in (VAR, PARAM, CONST) \
            and not batched else ""
        body.append(f"return {v}{copy}, {d}{copy}")
        src = [f"def kernel(theta, pts{args}):"]
    else:
        # the parameter-free subtrees run once, as the source is executed;
        # the kernel takes them as defaults, swapped below for the shared
        # read-only copies
        ns.update(pts=data.x, y=data.y)
        body += _MSE[batched].format(v=v, d=d, n=n).split("\n")
        src = setup + [f"def kernel(theta, pts=pts, y=y{args}" + "".join(
            f", {name}={name}" for name in fixed) + "):"]
    src += [f"    {line}" for line in body]
    exec("\n".join(src), _GLOBALS, ns)  # closed vocabulary: _RULES, powabs
    kernel = ns["kernel"]
    if fixed:
        kernel.__defaults__ = kernel.__defaults__[:-len(fixed)] + tuple(
            _frozen(ns[name].shape, ns[name].tobytes()) for name in fixed)
    return kernel


# a bound kernel's mse and gradient rows, for one theta and for a batch:
# the residual, reductions and gradient product of the unbound path
# (tests/oracles.py keeps it), so both match it bit for bit
_MSE = {
    False: "r = {v} - y\n"
           "return {v}, {d}, [float(np.add.reduce(r * r) / {n})], "
           "((2.0 / {n}) * ({d} @ r))[None]",
    True: "r = {v} - y\n"
          "g = {d}.swapaxes(0, 1)\n"
          "return {v}, g, (np.add.reduce(r * r, -1) / {n}).tolist(), "
          "(2.0 / {n}) * (g @ r[..., None])[..., 0]",
}


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
    kernel = _lookup(e, (theta.shape[-1], wrt == "x", pts.shape[-1], batched,
                         None))
    with np.errstate(all="ignore"):
        v, g = kernel(theta, pts)
    return (v, g.swapaxes(0, 1)) if batched else (v, g)


def mse_kernel(e: Expr, n_theta: int, data, batched: bool):
    """The kernel of ``e`` bound to ``data`` (read-only ``x`` and ``y``
    columns): ``kernel(theta) -> (value, lanes, mses, grads)``.

    For one theta of ``n_theta`` entries, value is ``(n,)``, lanes
    ``(k, n)``, mses a list of one float and grads ``(1, k)``; for a
    ``(B, k)`` theta (``batched``) they are ``(B, n)``, ``(B, k, n)``, B
    floats and ``(B, k)``.  Value and lanes are bit for bit those of
    ``eval_with_grad(e, theta, data.x)`` and may be read-only arrays the
    kernel keeps; mses are the mean squared residuals against ``data.y``
    and grads their gradients in theta, non-finite where they are.  The
    kernel enters no ``np.errstate`` of its own.
    """
    return _lookup(e, (n_theta, False, len(data.x), batched, data))


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
