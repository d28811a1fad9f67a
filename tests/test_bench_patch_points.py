"""The benchmark's traced run patches library functions by attribute name
(perfbench/tracing.py).  Entering and leaving its ``Tracer`` here fails fast
when a refactor removes or renames one of those names."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_patch_points_exist(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    before = [getattr(owner, attr) for owner, attr, _, _ in tracing._PATCHES]
    with tracing.Tracer():
        pass
    after = [getattr(owner, attr) for owner, attr, _, _ in tracing._PATCHES]
    assert after == before
