import gc
import hashlib
import importlib
import tracemalloc
import types
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from esrlab import egraph, enumeration, gp, simplify
from esrlab import expr as ex
from esrlab.autodiff import eval_expr
from esrlab.enumeration import enumerate_trees
from esrlab.normalize import normalize
from esrlab.simplify import Canonicalizer, canonicalize

from conftest import slow
from oracles import ExprKeyedCanonicalizer


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


@pytest.mark.parametrize("text", ["x * 1e300 * 1e300",
                                  "1e308 * x + 1e308 * x",
                                  "1e308 + 1e308 + x"])
def test_overflowing_literals_stay_unfolded(text):
    # folding these coefficients would give inf; the literals stay apart
    n = normalize(ex.parse(text))
    assert ex.parse(ex.render(n)) == n
    assert normalize(n) == n
    assert all(s.value == 1e300 or s.value == 1e308
               for s in ex.subtrees(n) if s.kind == ex.CONST)
    xs = np.array([0.5, 2.0])
    with np.errstate(over="ignore"):
        assert np.array_equal(eval_expr(n, [], xs),
                              eval_expr(ex.parse(text), [], xs))


def test_repeated_params_refused():
    # every parameter leaf is its own parameter, as in the catalog; a
    # repeated index would constrain two leaves to one value
    with pytest.raises(ValueError, match="p1 appears more than once"):
        normalize(ex.parse("p1 + p1 * x"))


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


# Shapes whose normal form can repeat an index fewer times than the tree
# does: they are refused as written, and reach a fixpoint with one index per
# leaf.  The Canonicalizer keys each tree on its normal form alone, so its
# answers do not rest on this; where it failed, a tree and its normal form
# would take two cache entries, and perhaps two hashes, for one function.
@pytest.mark.parametrize("text", ["|p1 * (x - x)| ^ p1",
                                  "(x / p1 + x * x) * |x / x| ^ (p1 * p1)"])
def test_normalize_is_idempotent_on_renumbered_trees(text):
    with pytest.raises(ValueError, match="p1 appears more than once"):
        normalize(ex.parse(text))
    n = normalize(ex.renumber_params(ex.parse(text)))
    assert normalize(n) == n, ex.render(n)


@pytest.mark.parametrize("order", [("p1 / x * (x - x)", "1.0 / (x * p1)"),
                                   ("1.0 / (x * p1)", "p1 / x * (x - x)")])
def test_cache_keeps_zero_product_apart(order):
    # the cache keys on the normal form; a zero product must not share an
    # entry with 1/(x*p1), whichever of the two arrives first
    cache = Canonicalizer()
    for text in order:
        e = ex.parse(text)
        assert cache(e).semantic_hash == canonicalize(e).semantic_hash, text


class _Paired:
    """A Canonicalizer that also runs the Expr-keyed reference cache on every
    tree and checks that the two give the same form."""

    def __init__(self, config, workers=1):
        self.real = Canonicalizer(config, workers)
        self.ref = ExprKeyedCanonicalizer(config)

    def __call__(self, e):
        got = self.real(e)
        assert got == self.ref(e), ex.render(e)
        return got

    def forms(self, items):
        trees = deque()

        def tee():
            for tree, payload in items:
                trees.append(tree)
                yield tree, payload

        for got, payload in self.real.forms(tee()):
            e = trees.popleft()
            assert got == self.ref(e), ex.render(e)
            yield got, payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.real.__exit__(*exc)


def _paired(monkeypatch, module):
    made = []

    def make(*args):
        made.append(_Paired(*args))
        return made[-1]

    monkeypatch.setattr(module, "Canonicalizer", make)
    return made


def test_cache_matches_expr_keyed_reference_over_catalog(monkeypatch):
    made = _paired(monkeypatch, enumeration)
    assert len(enumeration.build_catalog(6)) == 334
    # every tree offered normalizes once, as GOLDEN_CALLS pins
    assert made[0].ref.calls == GOLDEN_CALLS[6][0]


def _reachable(*roots) -> list:
    """Every object reachable from ``roots``, classes and modules aside."""
    seen, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and \
                not isinstance(obj, (type, types.ModuleType)):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_no_tree_is_kept(monkeypatch):
    """A canonical form is its text, hash, length and parameter count:
    neither the cache nor the catalog holds an expression tree."""
    made = _paired(monkeypatch, enumeration)
    catalog = enumeration.build_catalog(5)
    held = _reachable(made[0].real._cache, catalog.entries)
    assert sum(isinstance(o, simplify.CanonicalForm) for o in held) >= \
        len(catalog)
    assert not [o for o in held if isinstance(o, ex.Expr)]


def test_cache_matches_expr_keyed_reference_over_gp_run(monkeypatch, synth):
    made = _paired(monkeypatch, gp)
    # the helper's Canonicalizer calls would not reach this process
    log = gp.run_gp(replace(gp.gp_preset(10), generations=25), synth,
                    seed=100, workers=1)
    # GP's own memo answers most lookups: a tree reaches the Canonicalizer
    # the first time the run evaluates it
    in_length = sum(1 for r in log.records if r.sem_hash)
    assert made[0].ref.calls < 0.2 * in_length
    assert made[0].ref.calls == len({r.text for r in log.records
                                     if r.sem_hash})


def test_cache_matches_expr_keyed_reference_on_signed_zeros():
    canon = _Paired(simplify.EqSatConfig())
    canon(ex.mul(ex.var(), ex.const(0.0)))
    canon(ex.mul(ex.var(), ex.const(-0.0)))
    assert canon.ref.raw_hits == 1
    rng = np.random.default_rng(11)
    leaves = _RANDOM_LEAVES + (ex.const(-0.0),)
    for _ in range(400):
        canon(ex.renumber_params(_random_tree(rng, 4, leaves)))


# Bytes the cache holds after every partial and complete derivation up to
# length 6 went through it: 338,135 for its 1,143 entries, by tracemalloc on
# Python 3.11.  The bound leaves 18% above that.
_CACHE_BYTES_BOUND = 400_000


def test_cache_memory_is_bounded():
    tracemalloc.start()
    try:
        canon = Canonicalizer()

        def keep(t, key):
            canon(t)
            return True

        for t in enumerate_trees(6, keep):
            canon(t)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del canon
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < _CACHE_BYTES_BOUND


def _built_cache(monkeypatch, max_len, workers):
    made = []

    def make(*args):
        made.append(Canonicalizer(*args))
        return made[-1]

    monkeypatch.setattr(enumeration, "Canonicalizer", make)
    enumeration.build_catalog(max_len, workers=workers)
    return made[0]._cache


@pytest.mark.parametrize("workers", [1, 2])
def test_cache_holds_one_entry_per_canonicalize_call(monkeypatch, workers):
    cache = _built_cache(monkeypatch, 6, workers)
    assert len(cache) == GOLDEN_CALLS[6][1]
    assert all(isinstance(cf, simplify.CanonicalForm)
               for cf in cache.values())


@slow
def test_cache_holds_one_entry_per_canonicalize_call_slow(monkeypatch):
    assert len(_built_cache(monkeypatch, 7, 2)) == GOLDEN_CALLS[7][1]


# Digest over every partial and complete derivation of the enumeration (in
# derivation order) of its normal form and its uncached canonical form;
# partial counts, complete counts, digest prefix.
GOLDEN_FORMS = {5: (459, 610, "0091b4ac767ca876"),
                7: (14756, 19114, "e33c7327fbd29961")}
# normalize and canonicalize calls build_catalog makes through its cache:
# one normalize per tree offered, one canonicalize per entry it holds.  The
# cache's answers depend on its history, so these pin that history
GOLDEN_CALLS = {6: (3326, 1126), 7: (19165, 6559)}
# SaturationReport fields summed over the saturations build_catalog makes:
# saturations, iterations, fixpoint / iter_limit / node_budget stops, and the
# n_nodes and n_classes sums (n_nodes is the size the node budget reads)
GOLDEN_SATURATIONS = {6: (1126, 2654, 762, 364, 0, 18956, 10387),
                      7: (6559, 16384, 3705, 2854, 0, 156588, 80944)}


def _forms_digest(max_len):
    trees = {"partial": 0, "complete": 0}
    h = hashlib.sha256()

    def record(t):
        cf = canonicalize(t)
        h.update(f"{ex.render(t)}\t{ex.render(normalize(t))}\t{cf.text}\t"
                 f"{cf.semantic_hash}\t{cf.n_params}\t{cf.n_nodes}\n"
                 .encode("utf-8"))

    def keep(t, key):
        trees["partial"] += 1
        record(t)
        return True

    for t in enumerate_trees(max_len, keep):
        trees["complete"] += 1
        record(t)
    return trees["partial"], trees["complete"], h.hexdigest()[:16]


# Digest over seeded random trees up to depth 4 that the grammar does not
# produce: literals, neg and abs, with each parameter leaf renumbered to its
# own index.  Each line holds the tree, its normal form, its canonical text
# and its semantic hash.
GOLDEN_RANDOM_FORMS = (1500, "cdd92e89b75df3d7")

_RANDOM_LEAVES = ((ex.var(),) + tuple(ex.param(i) for i in range(1, 5))
                  + tuple(ex.const(v) for v in (0.0, 1.0, -1.0, 2.0, -2.0,
                                                0.5)))
_RANDOM_BINARY = (ex.add, ex.sub, ex.mul, ex.div, ex.powabs)
_RANDOM_OPS = _RANDOM_BINARY + (ex.inv, ex.neg, ex.abs_)


def _random_tree(rng, depth, leaves=_RANDOM_LEAVES):
    if depth == 1 or rng.random() < 0.3:
        return leaves[rng.integers(len(leaves))]
    op = _RANDOM_OPS[rng.integers(len(_RANDOM_OPS))]
    arity = 2 if op in _RANDOM_BINARY else 1
    return op(*(_random_tree(rng, depth - 1, leaves) for _ in range(arity)))


def _random_forms_digest(n):
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for _ in range(n):
        t = ex.renumber_params(_random_tree(rng, 4))
        cf = canonicalize(t)
        h.update(f"{ex.render(t)}\t{ex.render(normalize(t))}\t{cf.text}\t"
                 f"{cf.semantic_hash}\n".encode("utf-8"))
    return n, h.hexdigest()[:16]


def _catalog_calls(monkeypatch, max_len):
    calls = {"normalize": 0, "canonicalize": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simplify, name,
                            counted(name, getattr(simplify, name)))
    # one process, so that every call is made, and counted, here
    enumeration.build_catalog(max_len, workers=1)
    return calls["normalize"], calls["canonicalize"]


def _catalog_saturations(monkeypatch, max_len):
    reports = []
    saturate = egraph.EGraph.saturate

    def recorded(self):
        reports.append(saturate(self))
        return reports[-1]

    monkeypatch.setattr(egraph.EGraph, "saturate", recorded)
    enumeration.build_catalog(max_len, workers=1)
    stops = [r.stop_reason for r in reports]
    return (len(reports), sum(r.iterations for r in reports),
            stops.count("fixpoint"), stops.count("iter_limit"),
            stops.count("node_budget"), sum(r.n_nodes for r in reports),
            sum(r.n_classes for r in reports))


def test_golden_forms():
    assert _forms_digest(5) == GOLDEN_FORMS[5]


def test_golden_random_forms():
    assert _random_forms_digest(GOLDEN_RANDOM_FORMS[0]) == GOLDEN_RANDOM_FORMS


def test_golden_catalog_calls(monkeypatch):
    assert _catalog_calls(monkeypatch, 6) == GOLDEN_CALLS[6]


def test_golden_catalog_saturations(monkeypatch):
    assert (_catalog_saturations(monkeypatch, 6)
            == GOLDEN_SATURATIONS[6])


@slow
def test_golden_forms_slow():
    assert _forms_digest(7) == GOLDEN_FORMS[7]


@slow
def test_golden_catalog_calls_slow(monkeypatch):
    assert _catalog_calls(monkeypatch, 7) == GOLDEN_CALLS[7]


@slow
def test_golden_catalog_saturations_slow(monkeypatch):
    assert (_catalog_saturations(monkeypatch, 7)
            == GOLDEN_SATURATIONS[7])


# The memo of small subtrees' normal forms.  The package's ``normalize`` is
# the function, so the module is looked up by name.
_nm = importlib.import_module("esrlab.normalize")


def _bits(n):
    """A normal form as exact values: its structural key, which writes -0.0
    as 0.0, and every literal's bits."""
    return ex.structural_key(n), [s.value.hex() for s in ex.subtrees(n)
                                  if s.kind == ex.CONST]


def _memo_free(monkeypatch, trees) -> list:
    """The reference: normal forms with no subtree short enough to memoize."""
    with monkeypatch.context() as m:
        m.setattr(_nm, "_MEMO_LENGTH", 0)
        m.setattr(_nm, "_memo", {})
        out = [_bits(normalize(t)) for t in trees]
        assert not _nm._memo
    return out


def _assert_memo_changes_nothing(monkeypatch, trees):
    want = _memo_free(monkeypatch, trees)
    monkeypatch.setattr(_nm, "_memo", {})
    for t, w in zip(trees, want):
        assert _bits(normalize(t)) == w, ex.render(t)
    assert _nm._memo


def _derivations(max_len) -> list:
    """Every partial and complete derivation up to ``max_len``."""
    trees = []

    def keep(t, key):
        trees.append(t)
        return True

    trees.extend(enumerate_trees(max_len, keep))
    return trees


@pytest.mark.parametrize("max_len", [6, pytest.param(7, marks=slow)])
def test_memo_changes_no_normal_form_of_a_derivation(monkeypatch, max_len):
    _assert_memo_changes_nothing(monkeypatch, _derivations(max_len))


def test_memo_changes_no_normal_form_of_a_gp_run(monkeypatch, synth):
    log = gp.run_gp(replace(gp.gp_preset(10), generations=10), synth,
                    seed=100, workers=1)
    _assert_memo_changes_nothing(
        monkeypatch, [ex.parse(r.text) for r in log.records])


def test_memo_changes_no_normal_form_of_a_tree_with_literals(monkeypatch):
    rng = np.random.default_rng(23)
    leaves = _RANDOM_LEAVES + (ex.const(-0.0),)
    _assert_memo_changes_nothing(
        monkeypatch, [ex.renumber_params(_random_tree(rng, 4, leaves))
                      for _ in range(400)])


_X = ex.var()


@pytest.mark.parametrize("first, second", [
    (ex.powabs(ex.const(-0.0), _X), ex.powabs(ex.const(0.0), _X)),
    (ex.powabs(ex.const(0.0), _X), ex.powabs(ex.const(-0.0), _X)),
    (ex.add(_X, ex.hole(1)), ex.add(_X, ex.hole(2))),
    (ex.mul(ex.hole(2), ex.inv(ex.hole(1))),
     ex.mul(ex.hole(1), ex.inv(ex.hole(2)))),
], ids=["-0.0|0.0", "0.0|-0.0", "hole_1|2", "hole_order"])
def test_memo_keeps_apart_literal_bits_and_hole_indices(monkeypatch, first,
                                                         second):
    want = _memo_free(monkeypatch, [first, second])
    assert want[0] != want[1]
    monkeypatch.setattr(_nm, "_memo", {})
    assert _bits(normalize(first)) == want[0]
    assert _bits(normalize(second)) == want[1]
    assert _nm._shape(first) != _nm._shape(second)
    assert {_nm._shape(first), _nm._shape(second)} <= _nm._memo.keys()


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(_nm, "_memo", {})
    assert len(enumeration.build_catalog(7)) == 1713
    assert 0 < len(_nm._memo) <= _nm._MEMO_SIZE
    # one key item per node
    assert max(len(key) for key in _nm._memo) <= _nm._MEMO_LENGTH


def test_a_full_memo_still_answers(monkeypatch):
    trees = _derivations(5)
    want = _memo_free(monkeypatch, trees)
    monkeypatch.setattr(_nm, "_memo", {})
    monkeypatch.setattr(_nm, "_MEMO_SIZE", 50)
    assert [_bits(normalize(t)) for t in trees] == want
    assert len(_nm._memo) == 50


def test_repeated_params_refused_on_memo_hits(monkeypatch):
    monkeypatch.setattr(_nm, "_memo", {})
    normalize(ex.parse("x * p1 + x * p2"))
    assert _nm._shape(ex.parse("x * p1")) in _nm._memo
    with pytest.raises(ValueError, match="p1 appears more than once"):
        normalize(ex.parse("x * p1 + x * p1"))
