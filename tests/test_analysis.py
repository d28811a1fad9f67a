import math

import numpy as np
import pytest

from esrlab.analysis import (DupStats, Ecdf, FitnessDistribution,
                             duplicate_stats, ecdf, fitness_distribution,
                             write_distribution_tsv, write_dupstats_tsv,
                             write_ecdf_tsv)
from esrlab.fitting import FitResult
from esrlab.runlog import LogRecord, RunLog
from esrlab.simplify import canonicalize
from esrlab import expr as ex


def _log(fitnesses, gen_size=None, config=None):
    records = []
    gen_size = gen_size or len(fitnesses)
    for i, f in enumerate(fitnesses):
        records.append(LogRecord(i // gen_size, i + 1, 1000 + i, 2000 + i,
                                 f, "x + p1", i + 1, (0.5,)))
    return RunLog(records, config or {}, seed=0)


def test_ecdf_flat_zero_when_unreachable():
    logs = [_log([5.0, 4.0, 3.0]) for _ in range(4)]
    (curve,) = ecdf(logs, [1.0])
    assert curve.xs == () and curve.ys == ()
    assert all(s is None for s in curve.first_success)
    assert curve.value_at(3) == 0.0


def test_ecdf_reaches_one_when_immediate():
    logs = [_log([1.0, 2.0]) for _ in range(5)]
    (curve,) = ecdf(logs, [1.5])
    assert curve.xs == (1,)
    assert curve.ys == (1.0,)


def test_ecdf_step_shape_and_monotone():
    logs = [_log([3.0, 2.0, 1.0]), _log([1.0, 5.0, 5.0]),
            _log([5.0, 5.0, 5.0])]
    (curve,) = ecdf(logs, [1.0])
    assert curve.xs == (1, 3)
    assert curve.ys == (pytest.approx(1 / 3), pytest.approx(2 / 3))
    assert list(curve.ys) == sorted(curve.ys)
    assert all(0.0 <= y <= 1.0 for y in curve.ys)


def test_ecdf_nested_thresholds_ordered():
    logs = [_log([4.0, 3.0, 2.0, 1.0]) for _ in range(3)]
    tight, loose = ecdf(logs, [1.0, 3.0])
    xs = [1, 2, 3, 4, 5]
    for x in xs:
        assert tight.value_at(x) <= loose.value_at(x)


def test_ecdf_fevals_axis():
    logs = [_log([3.0, 1.0])]
    (curve,) = ecdf(logs, [1.0], axis="fevals")
    assert curve.xs == (2,)  # fevals counter at the success record


def test_ecdf_fevals_requires_counters():
    records = [LogRecord(0, 1, 1, 1, 1.0, "x", 0, ())]
    with pytest.raises(ValueError):
        ecdf([RunLog(records, {}, 0)], [2.0], axis="fevals")


def test_ecdf_unknown_axis():
    with pytest.raises(ValueError):
        ecdf([_log([1.0])], [1.0], axis="time")


def test_ecdf_tsv(tmp_path):
    logs = [_log([3.0, 2.0, 1.0])]
    curves = ecdf(logs, [1.0, 2.0])
    path = tmp_path / "ecdf.tsv"
    write_ecdf_tsv(curves, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "threshold\taxis\tx\tsuccess_probability"
    assert len(lines) == 1 + sum(len(c.xs) for c in curves)


def _record(gen, eval_id, struct, sem, fitness, text, theta=(0.5,)):
    return LogRecord(gen, eval_id, struct, sem, fitness, text, eval_id, theta)


def test_dupstats_all_distinct():
    records = [_record(0, i + 1, i, i, 1.0, "x + p1") for i in range(6)]
    stats = duplicate_stats(RunLog(records, {}, 0))
    assert stats.per_gen["expr"] == [1.0]
    assert stats.per_gen["structures"] == [1.0]
    assert stats.per_gen["simplified"] == [1.0]


def test_dupstats_constant_detection():
    # every entry is p1+p2: one structure, one semantic class, all constant
    e = ex.parse("p1 + p2")
    sh = ex.structural_hash(e)
    zh = canonicalize(e).semantic_hash
    records = [_record(g, g * 4 + i + 1, sh, zh, 2.0, "p1 + p2", (0.1, 0.2))
               for g in range(3) for i in range(4)]
    stats = duplicate_stats(RunLog(records, {}, 0))
    assert stats.per_gen["constant"] == [1.0, 1.0, 1.0]
    assert stats.per_gen["simplified"] == [0.25, 0.25, 0.25]
    assert stats.cumulative["simplified"][-1] == pytest.approx(1 / 12)


def test_dupstats_ordering_chain():
    rng = np.random.default_rng(4)
    records = []
    for g in range(5):
        for i in range(10):
            s = int(rng.integers(0, 6))
            records.append(_record(
                g, g * 10 + i + 1, s, s % 3, 1.0, "x + p1",
                (float(rng.integers(0, 3)),)))
    stats = duplicate_stats(RunLog(records, {}, 0))
    for i in range(len(stats.gens)):
        assert 0.0 <= stats.per_gen["simplified"][i] \
            <= stats.per_gen["structures"][i] \
            <= stats.per_gen["expr"][i] <= 1.0


def test_dupstats_sentinels_excluded():
    good = _record(0, 1, 7, 8, 1.0, "x + p1")
    sentinel = LogRecord(0, 2, 9, 0, math.inf,
                         "x + x + x + x + x + x", 1, ())
    stats = duplicate_stats(RunLog([good, sentinel], {}, 0))
    assert stats.per_gen["expr"] == [1.0]  # denominator excludes sentinel


def test_dupstats_huge_parameters():
    # 1e300 * 1e12 overflows; such values are keyed by themselves, and two
    # records differing only there are distinct expressions
    records = [_record(0, 1, 7, 8, 1.0, "x + p1", (1e300,)),
               _record(0, 2, 7, 8, 1.0, "x + p1", (-1e300,)),
               _record(0, 3, 7, 8, 1.0, "x + p1", (1e300,)),
               _record(0, 4, 7, 8, 1.0, "x + p1", (1e288,))]
    stats = duplicate_stats(RunLog(records, {}, 0))
    assert stats.per_gen["expr"] == [0.75]
    assert stats.per_gen["structures"] == [0.25]


def test_dupstats_coverage(catalog4):
    entry = catalog4.entries[0]
    e = ex.parse(entry.text)
    rec = _record(0, 1, ex.structural_hash(e), entry.semantic_hash, 1.0,
                  entry.text)
    stats = duplicate_stats(RunLog([rec], {}, 0), catalog=catalog4)
    assert stats.coverage == pytest.approx(1 / len(catalog4))


def test_dupstats_tsv(tmp_path):
    records = [_record(0, 1, 1, 1, 1.0, "x + p1")]
    stats = duplicate_stats(RunLog(records, {}, 0))
    path = tmp_path / "dups.tsv"
    write_dupstats_tsv(stats, str(path))
    header = path.read_text().split("\n", 1)[0].split("\t")
    assert header[:5] == ["gen", "expr", "structures", "simplified",
                          "constant"]


def _results(values):
    return {i: FitResult((0.5,), v, 1, 1, 1, ("converged",))
            for i, v in enumerate(values)}


def test_distribution_quantiles_match_sort_oracle():
    rng = np.random.default_rng(9)
    values = list(rng.uniform(0, 10, 101))
    dist = fitness_distribution(_results(values))
    ordered = sorted(values)
    assert dist.quantiles[0.0] == ordered[0]
    assert dist.quantiles[1.0] == ordered[-1]
    assert dist.quantiles[0.5] == ordered[50]
    assert dist.n_finite == 101


def test_distribution_baseline_fractions():
    values = [float(i) for i in range(10)]
    dist = fitness_distribution(_results(values),
                                baselines=[("mid", 5.0), ("low", 0.0)])
    assert dist.baselines[0] == ("mid", 5.0, 0.5)
    assert dist.baselines[1] == ("low", 0.0, 0.0)


def test_distribution_top_k_and_nonfinite():
    values = [3.0, 1.0, math.inf, 2.0]
    dist = fitness_distribution(_results(values), top_k=2)
    assert [row[1] for row in dist.top] == [1.0, 2.0]
    assert dist.n_finite == 3 and dist.n_total == 4


def test_distribution_texts_from_catalog(catalog4, tmp_path):
    results = {e.semantic_hash: FitResult((), float(i), 1, 1, 0, ())
               for i, e in enumerate(catalog4.entries)}
    dist = fitness_distribution(results, catalog=catalog4, top_k=3)
    assert dist.top[0][0] == catalog4.entries[0].text
    write_distribution_tsv(dist, str(tmp_path / "d.tsv"))


class _Boom:
    """A table value that cannot be formatted: the write fails part-way."""

    def __format__(self, spec):
        raise RuntimeError("boom")

    def __repr__(self):
        raise RuntimeError("boom")


def _write_gp_config(path):
    from types import SimpleNamespace
    from esrlab.cli import write_gp_config
    write_gp_config(SimpleNamespace(
        as_dict=lambda: {"pop_size": 8, "objective": _Boom()}), path)


@pytest.mark.parametrize("write", [
    lambda path: write_ecdf_tsv(
        [Ecdf(0.1, "visited", (1, 2), (1, 2), (0.5, _Boom()))], path),
    lambda path: write_dupstats_tsv(DupStats(
        (0, 1), {k: [0.5, _Boom()] for k in
                 ("expr", "structures", "simplified", "constant")},
        {k: [0.5, 0.5] for k in ("expr", "structures", "simplified")}), path),
    lambda path: write_distribution_tsv(FitnessDistribution(
        {0.0: 1.0, 0.5: _Boom()}, (), (), 2, 2), path),
    _write_gp_config,
], ids=["ecdf", "dupstats", "distribution", "gp_config"])
def test_failed_table_write_leaves_no_torn_file(tmp_path, write):
    path = tmp_path / "out.tsv"
    with pytest.raises(RuntimeError, match="boom"):
        write(str(path))
    assert list(tmp_path.iterdir()) == []
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="boom"):
        write(str(path))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old\n"
