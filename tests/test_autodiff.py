import math

import numpy as np
import pytest

from esrlab import expr as ex, fitting, objectives
from esrlab.autodiff import eval_expr, eval_with_grad, mse_kernel
from esrlab.dataset import Dataset


def _at(x: float) -> np.ndarray:
    return np.array([x])


def _grad(e, theta, xs, wrt):
    """Value and lanes of one layout.  "params_and_x" stacks the d/dx lane
    of ``wrt="x"`` under the parameter lanes of ``wrt="params"``, as the
    reference walk lays out both at once."""
    if wrt != "params_and_x":
        return eval_with_grad(e, theta, xs, wrt=wrt)
    v, g = eval_with_grad(e, theta, xs, wrt="params")
    vx, gx = eval_with_grad(e, theta, xs, wrt="x")
    assert v.tobytes() == vx.tobytes()
    return v, np.concatenate([g, gx], axis=-2)


def test_eval_examples():
    assert eval_expr(ex.parse("|x| ^ p1"), [2.0], _at(-3.0))[0] == 9.0
    assert not math.isfinite(eval_expr(ex.parse("1.0 / x"), [], _at(0.0))[0])
    assert eval_expr(ex.parse("x + p2"), [1.0, 0.5], _at(2.0))[0] == 2.5


def test_eval_vectorized_matches_scalar():
    e = ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")
    theta = [0.301, 0.673, -0.453]
    xs = np.linspace(0.5, 3.0, 11)
    vec = eval_expr(e, theta, xs)
    for i, x in enumerate(xs):
        assert vec[i] == eval_expr(e, theta, _at(x))[0]


def test_grad_simple_cases():
    v, g = eval_with_grad(ex.parse("p1 * x"), [2.0], _at(3.0))
    assert v[0] == 6.0 and g[0, 0] == 3.0
    v, g = eval_with_grad(ex.parse("|x| ^ 2.0"), [], _at(-3.0), wrt="x")
    assert v[0] == 9.0 and g[0, 0] == -6.0


def test_grad_value_matches_eval_bitwise():
    rng = np.random.default_rng(3)
    e = ex.parse("p1 - |p2 + -1.0 / (p3 + x)| ^ p4")
    for _ in range(50):
        theta = rng.uniform(-3, 3, 4)
        x = rng.uniform(-2, 2, 9)
        v0 = eval_expr(e, theta, x)
        for wrt in ("params", "x"):
            v1, _ = eval_with_grad(e, theta, x, wrt=wrt)
            assert v0.tobytes() == v1.tobytes()


def _central(f, h):
    with np.errstate(all="ignore"):
        return (f(h) - f(-h)) / (2 * h)


def _check_grad_fd(e, theta, xs, rel=1e-5, h=1e-6):
    v, g = _grad(e, theta, xs, "params_and_x")
    k = len(theta)
    for i in range(k):
        def probe(d, i=i):
            t = np.array(theta, dtype=float)
            t[i] += d
            return eval_expr(e, t, xs)
        _assert_close(v, g[i], probe, rel, h)

    def probe_x(d):
        return eval_expr(e, theta, xs + d)
    _assert_close(v, g[k], probe_x, rel, h)


def _assert_close(value, grad, probe, rel, h):
    # finite differences are a valid oracle only where (a) the h and h/2
    # estimates agree (rules out exploding curvature near singularities) and
    # (b) the cancellation noise floor eps|f|/h sits below the asserted
    # tolerance times the signal, otherwise roundoff masquerades as error
    with np.errstate(all="ignore"):
        fd1 = _central(probe, h)
        fd2 = _central(probe, h / 2)
        fd = (4.0 * fd2 - fd1) / 3.0
        consistent = np.abs(fd1 - fd2) <= 1e-7 * np.maximum(np.abs(fd2), 1e-12)
        noise = 2.3e-16 * np.abs(value) / h
        signal = np.maximum(np.abs(fd), np.abs(grad))
        mask = (np.isfinite(fd) & np.isfinite(grad) & (np.abs(grad) > 1e-6)
                & consistent & (noise <= 1e-6 * signal))
        if not np.any(mask):
            return
        err = np.abs(grad[mask] - fd[mask]) / np.maximum(np.abs(fd[mask]), 1e-9)
    assert np.max(err) < rel


def test_grad_matches_central_differences():
    rng = np.random.default_rng(7)
    cases = [
        "p1 / (1.0 / (p2 + x) - p3 ^ x)",
        "p1 - |p2 + 1.0 / (p3 + x)| ^ p4",
        "1.0 / (p1 + |p2 + p3 ^ x| ^ p4)",
        "p1 ^ (p2 - x ^ p3) - x",
        "p1 * x + p2 * |x| ^ 2.0",
    ]
    for text in cases:
        e = ex.parse(text)
        k = ex.param_count(e)
        theta = rng.uniform(-2, 2, k)
        xs = rng.uniform(0.3, 2.5, 40)
        _check_grad_fd(e, theta, xs)


def test_grad_over_catalog_structures(catalog6):
    rng = np.random.default_rng(11)
    for entry in catalog6.entries:
        e = ex.parse(entry.text)
        theta = rng.uniform(-2.5, 2.5, entry.n_params)
        xs = rng.uniform(-2.5, 2.5, 25)
        _check_grad_fd(e, theta, xs)


def test_powabs_derivative_at_zero():
    # smooth case b > 1: derivative 0; b <= 1: non-finite
    e = ex.parse("|x| ^ p1")
    _, g = eval_with_grad(e, [2.0], _at(0.0), wrt="x")
    assert g[0, 0] == 0.0
    _, g = eval_with_grad(e, [0.5], _at(0.0), wrt="x")
    assert not np.all(np.isfinite(g))


def test_multivariable_naming():
    """x is the one variable, given as a 1-d array of points: the texts x1
    and x2 do not parse, and a scalar x, points as rows of a 2-d x, and
    other lane layouts are rejected."""
    for text in ("x1", "x + x2"):
        with pytest.raises(ex.ParseError, match="unknown symbol 'x[12]'"):
            ex.parse(text)
    for x in (2.0, np.array([[1.0, 2.0], [10.0, 20.0]])):
        with pytest.raises(ValueError, match="x must be one-dimensional"):
            eval_expr(ex.parse("x"), [], x)
    with pytest.raises(ValueError, match="unknown wrt 'params_and_x'"):
        eval_with_grad(ex.parse("p1 * x"), [1.0], np.ones(3),
                       wrt="params_and_x")
    assert np.array_equal(eval_expr(ex.parse("x + x"), [], _at(2.0)), [4.0])


def test_missing_theta_rejected():
    with pytest.raises(ValueError):
        eval_expr(ex.parse("p2 + x"), [1.0], _at(0.5))


@pytest.mark.parametrize("text", ["x", "p1", "2.0"])
def test_leaf_results_are_fresh_writable_arrays(text):
    e = ex.parse(text)
    xs = np.array([1.0, -2.0, 3.0])
    for wrt in ("params", "x"):
        v, g = eval_with_grad(e, [0.5], xs, wrt=wrt)
        want_v, want_g = v.copy(), g.copy()
        v[:] = 7.0
        g[:] = 7.0
        v2, g2 = eval_with_grad(e, [0.5], xs, wrt=wrt)
        assert np.array_equal(v2, want_v) and np.array_equal(g2, want_g)
        assert np.array_equal(xs, [1.0, -2.0, 3.0])


def test_out_of_range_leaves_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="p2 requested but theta has 1"):
            eval_with_grad(ex.parse("p1 + p2"), [1.0], np.ones(3))
        with pytest.raises(ex.ParseError, match="unknown symbol 'x2'"):
            ex.parse("x + x2")


def test_signed_zero_literals_get_their_own_kernels():
    xs = np.array([1.0, 2.0])
    # Expr equality counts 0.0 and -0.0 as equal; a kernel compiled for one
    # must not serve the other
    pos, _ = eval_with_grad(ex.mul(ex.var(), ex.const(0.0)), [], xs)
    neg, _ = eval_with_grad(ex.mul(ex.var(), ex.const(-0.0)), [], xs)
    assert not np.any(np.signbit(pos))
    assert np.all(np.signbit(neg))


def test_kernels_match_the_reference_walk_bitwise(catalog6):
    from oracles import dual_walk

    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(-3, 3, 20), [0.0, -0.0, 1.0, -1.0]])
    for entry in catalog6.entries:
        e = ex.parse(entry.text)
        k = entry.n_params
        theta = rng.uniform(-3, 3, k)
        for wrt, lanes, x_lane in (("params", k, None),
                                   ("params_and_x", k + 1, k), ("x", 1, 0)):
            v, g = _grad(e, theta, xs, wrt)
            with np.errstate(all="ignore"):
                rv, rg = dual_walk(e, theta, xs, lanes, x_lane)
            assert v.tobytes() == rv.tobytes(), (entry.text, wrt)
            assert g.tobytes() == rg.tobytes(), (entry.text, wrt)
            assert eval_expr(e, theta, xs).tobytes() == rv.tobytes(), \
                (entry.text, wrt)


# every operator, powabs at a zero base among them; literal exponents and
# bases, repeated parameters, and the mixed-rank regression case below
_BATCH_CASES = [
    "p1 + x", "p1 - x", "p1 * x", "p1 / x", "1.0 / (p1 + x)", "-(p1 * x)",
    "|p1 - x|", "|x| ^ p1", "|x - p1| ^ p2", "|p1| ^ x", "|x| ^ 2.0",
    "|x| ^ 0.5", "2.0 ^ (p1 * x)", "p1 * (x + p2) / (x - p2)",
    "|(p1 * x)| ^ (p2 - x) - 1.0 / x",
    # at x = 0.5 a value operand that lacks the batch shape takes another
    # np.power loop and changes the last bit of one row
    "p1 / (1.0 / (p2 + x) - p3 ^ x)",
    "p1", "x", "2.0", "p1 + p2", "-0.0 * x",
]


def _batch_points(n):
    # random points, then zero, signed zero, 0.5 (where the first theta row
    # puts powabs of x - p1 at a zero base) and +-1
    pts = np.random.default_rng(n).uniform(-3, 3, n)
    special = [0.5, 0.0, -0.0, 1.0, -1.0][:n - 1]
    pts[1:1 + len(special)] = special
    return pts


@pytest.mark.parametrize("wrt", ["params", "x", "params_and_x"])
@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("batch", [1, 3, 20])
def test_batched_rows_match_single_rows_bitwise(batch, n, wrt):
    """Each row of a (B, k) batch equals the one-theta call and the reference
    walk bit for bit, NaNs and signed zeros included."""
    from oracles import dual_walk

    rng = np.random.default_rng(batch * 100 + n)
    xs = _batch_points(n)
    for text in _BATCH_CASES:
        e = ex.parse(text)
        k = ex.param_count(e)
        theta = rng.uniform(-3, 3, (batch, k))
        theta[0, :] = 0.5
        if batch > 2:
            theta[1, :] = -0.0
        v, g = _grad(e, theta, xs, wrt)
        lanes, x_lane = {"params": (k, None), "x": (1, 0),
                         "params_and_x": (k + 1, k)}[wrt]
        assert v.shape == (batch, n) and g.shape == (batch, lanes, n)
        for b in range(batch):
            v1, g1 = _grad(e, theta[b], xs, wrt)
            with np.errstate(all="ignore"):
                rv, rg = dual_walk(e, theta[b], xs, lanes, x_lane)
            assert v[b].tobytes() == v1.tobytes() == rv.tobytes(), (text, b)
            assert g[b].tobytes() == g1.tobytes() == rg.tobytes(), (text, b)
        assert eval_expr(e, theta, xs).tobytes() == v.tobytes()


def test_batch_mixed_rank_regression():
    """A value operand without the batch shape (x as (1,) against (B, 1)
    values) takes another np.power loop and changes the last bit at x = 0.5;
    every value operand is a full array of the batch shape."""
    e = ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")
    theta = np.array([[0.301, 0.673, -0.453], [1.5, -0.25, 2.0],
                      [0.301, 0.673, -0.453]])
    for x in (np.array([0.5]), np.linspace(0.5, 3.0, 11)):
        v, g = eval_with_grad(e, theta, x)
        for b in range(len(theta)):
            v1, g1 = eval_with_grad(e, theta[b], x)
            assert v[b].tobytes() == v1.tobytes()
            assert g[b].tobytes() == g1.tobytes()


def test_batched_two_variables():
    """A batch takes the same one-variable points as a single theta, and
    the text names no second variable."""
    with pytest.raises(ex.ParseError, match="unknown symbol 'x2'"):
        ex.parse("x * p1 + |x2| ^ p2")
    e = ex.parse("x * p1 + |x| ^ p2")
    theta = np.array([[0.5, 1.5], [-1.0, 0.25], [2.0, -0.0]])
    with pytest.raises(ValueError, match="x must be one-dimensional"):
        eval_with_grad(e, theta, np.ones((2, 9)))


def _hard_thetas(k: int, rng) -> np.ndarray:
    """Rows that put signed zeros in every parameter, poles (1 / (x - p)
    at x = 1 or 0) and powabs bases of 0 (|x - p| at x = 0.5) at the
    points of ``_batch_points``, then random rows."""
    rows = [np.full(k, v) for v in (0.5, 0.0, -0.0, 1.0, -1.0)]
    return np.concatenate([np.array(rows),
                           rng.uniform(-3, 3, (3, k))])


def test_bound_kernels_match_the_unbound_path_bitwise(catalog6):
    """Over every catalog(6) structure, one theta at a time and in batches,
    the kernel bound to a dataset gives the values and lanes of
    ``eval_with_grad``, ``mse`` gives what the unbound path gave, and the
    fit's objective gives the values, gradients and bad points it gave."""
    from oracles import BAD, mse_unbound, mse_value_grad_unbound

    rng = np.random.default_rng(11)
    data = Dataset(_batch_points(24), rng.uniform(-2, 2, 24))
    bad = nan_lanes = 0
    for entry in catalog6.entries:
        e = ex.parse(entry.text)
        k = entry.n_params
        thetas = _hard_thetas(k, rng)
        fun = fitting._mse_value_grad(e, data)
        for theta in list(thetas) + [thetas, thetas[1:3]]:
            batched = theta.ndim == 2
            with np.errstate(all="ignore"):
                v, g, _, _ = mse_kernel(e, k, data, batched)(theta)
            rv, rg = eval_with_grad(e, theta, data.x)
            assert v.tobytes() == rv.tobytes(), (entry.text, theta)
            assert g.tobytes() == rg.tobytes(), (entry.text, theta)
            nan_lanes += not np.isfinite(rg).all()
            assert np.array(objectives.mse(e, theta, data)).tobytes() == \
                np.array(mse_unbound(e, theta, data)).tobytes(), entry.text
            if k == 0:       # a fit evaluates these once, through mse
                continue
            points = theta if batched else theta[None]
            with np.errstate(all="ignore"):
                values, grads = fun(points)
            want, want_grads = mse_value_grad_unbound(e, data, points)
            assert np.array(values).tobytes() == np.array(want).tobytes(), \
                (entry.text, theta)
            assert grads.tobytes() == want_grads.tobytes(), (entry.text, theta)
            bad += want.count(BAD)
    assert bad and nan_lanes


def test_bound_kernels_are_per_dataset():
    """Datasets of one length that differ in x or in y never share a
    kernel, and neither do equal copies: datasets key by identity."""
    from oracles import mse_unbound

    x = np.linspace(0.1, 2.0, 9)
    y = np.sin(x)
    sets = [Dataset(x, y), Dataset(x + 0.5, y), Dataset(x, y + 0.5),
            Dataset(x, y)]
    e = ex.parse("p1 * |x| ^ x + 1.0 / x")    # both terms read x once
    theta = np.array([0.75])
    kernels = [mse_kernel(e, 1, data, False) for data in sets]
    assert len(set(map(id, kernels))) == len(sets)
    mses = []
    for data, kernel in zip(sets, kernels):
        v, g, [value], _ = kernel(theta)
        rv, rg = eval_with_grad(e, theta, data.x)
        assert v.tobytes() == rv.tobytes() and g.tobytes() == rg.tobytes()
        assert value == mse_unbound(e, theta, data)
        mses.append(value)
    assert len(set(mses[:3])) == 3 and mses[3] == mses[0]


def test_bound_kernels_keep_their_arrays_read_only():
    """A structure without parameters is computed whole when its kernel is
    bound; the value and lanes it returns are the kernel's own, read-only."""
    data = Dataset(np.array([0.5, 1.5, 2.0]), np.zeros(3))
    v, g, _, _ = mse_kernel(ex.parse("|x| ^ x"), 0, data, False)(np.ones(0))
    for arr in (v, g):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 7.0
    assert v.tobytes() == eval_expr(ex.parse("|x| ^ x"), [], data.x).tobytes()
