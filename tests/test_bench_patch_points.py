"""The benchmark's traced run patches library functions by attribute name
(perfbench/tracing.py).  Entering and leaving its ``Tracer`` here fails fast
when a refactor removes or renames one of those names, or stops calling
through one."""

import os

from esrlab import expr as ex
from esrlab.fitting import ESR_FIT, GP_FIT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_patch_points_exist(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    before = [getattr(owner, attr) for owner, attr, _, _ in tracing._PATCHES]
    with tracing.Tracer():
        pass
    after = [getattr(owner, attr) for owner, attr, _, _ in tracing._PATCHES]
    assert after == before


def test_fit_calls_through_patched_minimize(monkeypatch, synth):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing
    from esrlab import fitting

    with tracing.Tracer() as t:
        fitting.fit(ex.parse("p1 * x + p2"), synth, "mse", GP_FIT, seed=0)
    spans = t.summary()["spans"]
    assert spans["fitting.minimize"]["calls"] >= 1
    assert spans["objectives.mse"]["calls"] >= 1


def test_mnr_fit_calls_through_patched_spans(monkeypatch, synth):
    """The spans behind ``fitting.overhead_ratio``,
    ``autodiff.eval_with_grad.us_per_call`` and
    ``objectives.mnr_loglik.calls`` see an ESR-preset mnr fit."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing
    from esrlab import fitting

    with tracing.Tracer() as t:
        fitting.fit(ex.parse("p1 * x + p2"), synth, "mnr", ESR_FIT, seed=0)
    spans = t.summary()["spans"]
    for name in ("fitting.minimize", "autodiff.eval_with_grad",
                 "objectives.mnr_loglik"):
        assert spans[name]["calls"] >= 1, name
    child = t.summary()["child_incl"]
    assert child[("fitting.minimize", "autodiff.eval_with_grad")] > 0
    assert child[("fitting.minimize", "objectives.mnr_loglik")] > 0


def test_canonicalize_records_rebuild_under_saturate(monkeypatch):
    """``egraph.rebuild.self_s`` reads the spans of ``EGraph.rebuild`` made
    inside ``EGraph.saturate``."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing
    from esrlab.simplify import canonicalize

    with tracing.Tracer() as t:
        canonicalize(ex.parse("x * (x + p1) + p2 * x"))
    summary = t.summary()
    assert summary["spans"]["egraph.saturate"]["calls"] == 1
    assert summary["spans"]["egraph.rebuild"]["calls"] >= 2
    assert summary["child_incl"][("egraph.saturate", "egraph.rebuild")] > 0
