import numpy as np
import pytest

from esrlab import expr as ex
from esrlab.autodiff import eval_expr
from esrlab.enumeration import enumerate_trees
from esrlab.normalize import normalize
from esrlab.simplify import Canonicalizer, canonicalize


def test_examples():
    cases = {
        "x + x": "2.0 * x",
        "x - x": "0.0",
        "inv(inv(x))": "x",
        "abs(-1.0 * x)": "abs(x)",
        "abs(abs(x))": "abs(x)",
        "powabs(x * -1.0, 2.0)": "|x| ^ 2.0",
        "powabs(x, 1.0)": "abs(x)",
        "powabs(x, 0.0)": "1.0",
        "p1 + p2": "p1",
        "p1 * p2 + p3": "p1",
        "x / x": "1.0",
        # a zero coefficient annihilates parameter factors too
        "x * p1 * 0.0": "0.0",
        "p1 / x * (x - x)": "0.0",
    }
    for text, want in cases.items():
        assert ex.render(normalize(ex.parse(text))) == want, text


def test_commutative_orbit_collapses():
    a = normalize(ex.parse("x + p1 * x + inv(x)"))
    b = normalize(ex.parse("inv(x) + x * p1 + x"))
    assert a == b
    c = normalize(ex.parse("x * (x + p1) * inv(x)"))
    d = normalize(ex.parse("inv(x) * (p1 + x) * x"))
    assert c == d


def test_sign_chain_collapses():
    a = normalize(ex.parse("1.0 / powabs(x, p1)"))
    b = normalize(ex.parse("powabs(x, p1)"))
    # |x|**-p1 and |x|**p1 are one family: the sign is absorbed by the
    # fresh parameter
    assert a == b


def test_pointwise_equal_on_param_free_trees():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3, 3, 64)
    checked = 0
    for t in enumerate_trees(7):
        if ex.param_count(t) > 0:
            continue
        n = normalize(t)
        with np.errstate(all="ignore"):
            a = eval_expr(t, (), xs)
        if ex.param_count(n) > 0:
            # a fresh parameter appears only when a variable-free subtree is
            # degenerate (non-finite arithmetic, like 1/(x-x)); those fold
            # to the constant family by definition, not pointwise
            continue
        with np.errstate(all="ignore"):
            b = eval_expr(n, (), xs)
        both = np.isfinite(a) & np.isfinite(b)
        scale = np.maximum(np.abs(a[both]), 1.0)
        # tolerance covers float artifacts of almost-everywhere identities
        # like 1/(1/x) = x
        assert np.all(np.abs(a[both] - b[both]) <= 1e-6 * scale), \
            (ex.render(t), ex.render(n))
        checked += 1
    assert checked > 1000


def test_param_trees_share_hash_through_cache():
    # a tree and its normal form always map to one semantic hash through the
    # caching front-end (the dedup path used by enumeration and analysis)
    from esrlab.simplify import Canonicalizer
    rng = np.random.default_rng(5)
    canon = Canonicalizer()
    trees = [t for t in enumerate_trees(6) if ex.param_count(t)]
    idx = rng.choice(len(trees), 200, replace=False)
    for i in idx:
        t = trees[i]
        assert canon(t).semantic_hash == \
            canon(normalize(t)).semantic_hash, ex.render(t)


def test_normalize_stable():
    for t in enumerate_trees(6):
        n = normalize(t)
        assert normalize(n) == n, (ex.render(t), ex.render(n))


def test_repeated_params_not_folded():
    shared = ex.parse("p1 + p1 * x")  # p1 appears twice: a real constraint
    n = normalize(shared)
    assert ex.param_count(n) == 1
    assert sum(1 for s in ex.subtrees(n) if s.kind == ex.PARAM) == 2


def test_family_preserved_under_folding():
    from esrlab.dataset import Dataset
    from esrlab.fitting import FitConfig, fit
    rng = np.random.default_rng(7)
    data = Dataset(rng.uniform(-2, 2, 24), rng.uniform(-2, 2, 24))
    cfg = FitConfig(restarts=30)
    for text in ["p1 * (x + p2)", "x / (p1 * p2)", "powabs(x, p1 + p2)",
                 "p1 - x * p2 * p3"]:
        t = ex.parse(text)
        n = normalize(t)
        orig = fit(t, data, "mse", cfg, seed=1).objective
        after = fit(n, data, "mse", cfg, seed=2).objective
        assert after <= orig + 1e-6, (text, ex.render(n))


@pytest.mark.parametrize("order", [("p1 / x * (x - x)", "1.0 / (x * p1)"),
                                   ("1.0 / (x * p1)", "p1 / x * (x - x)")])
def test_cache_keeps_zero_product_apart(order):
    # the cache keys on the normal form; a zero product must not share an
    # entry with 1/(x*p1), whichever of the two arrives first
    cache = Canonicalizer()
    for text in order:
        e = ex.parse(text)
        assert cache(e).semantic_hash == canonicalize(e).semantic_hash, text
