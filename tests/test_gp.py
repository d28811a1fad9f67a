import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from esrlab import expr as ex, gp
from esrlab.gp import (GpConfig, Individual, _Run, crossover, gp_preset, grow,
                       init_population, mutate, run_gp, tournament_select)
from esrlab.normalize import normalize
from esrlab.runlog import LogRecord, RunLog, read_runlog, write_runlog

SMALL = GpConfig(pop_size=20, generations=4, max_len=10, optim_iterations=5)


def _mk(fitness, eval_id=0):
    return Individual(ex.var(), (), fitness, eval_id)


def test_defaults_follow_documented_table():
    cfg = GpConfig()
    assert (cfg.pop_size, cfg.generations) == (100, 250)
    assert (cfg.min_depth, cfg.max_depth) == (2, 4)
    assert cfg.tournament_size == 2
    assert cfg.p_cx == 1.0
    assert cfg.p_mut == 0.25
    assert cfg.optim_iterations == 10
    big = gp_preset(20)
    assert big.pop_size == 500 and big.tournament_size == 4


def test_grow_and_full_depth_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = grow(rng, max_depth=4, min_depth=2)
        d = _depth(t)
        assert 2 <= d <= 4
        t = grow(rng, max_depth=3, min_depth=3)  # the full method
        assert _depth(t) == 3


def _depth(e):
    if not e.children:
        return 1
    return 1 + max(_depth(c) for c in e.children)


def test_ramped_half_and_half_split(synth):
    cfg = replace(SMALL, pop_size=100)
    run = _Run(cfg, synth, seed=3)
    pop = init_population(cfg, run)
    assert len(pop) == 100
    assert all(math.isfinite(i.fitness) for i in pop)
    assert all(2 <= _depth(i.expr) <= 4 for i in pop)
    assert all(ex.length(i.expr) <= cfg.max_len for i in pop)


def test_tournament_k1_uniform():
    rng = np.random.default_rng(1)
    pop = [_mk(float(i), i) for i in range(10)]
    picks = Counter(tournament_select(pop, 1, rng).eval_id
                    for _ in range(5000))
    assert min(picks.values()) > 5000 / 10 * 0.6


def test_tournament_kpop_returns_best():
    rng = np.random.default_rng(2)
    pop = [_mk(float(i), i) for i in range(8)]
    # k large enough that the best is almost surely sampled
    for _ in range(50):
        winner = tournament_select(pop, 64, rng)
        assert winner.eval_id == 0


def test_tournament_tie_broken_uniformly():
    rng = np.random.default_rng(3)
    pop = [_mk(1.0, 0), _mk(1.0, 1)]
    n = 10000
    wins = Counter(tournament_select(pop, 2, rng).eval_id for _ in range(n))
    p = wins[0] / n
    sigma = (0.25 / n) ** 0.5
    assert abs(p - 0.5) < 3 * sigma + 0.02


def test_tournament_never_prefers_nonfinite():
    # whenever a finite-fitness rival is in the sample, it beats +inf
    pop = [_mk(math.inf, 0), _mk(2.0, 1)]
    for draws in ([0, 1], [1, 0], [1, 1, 0]):
        winner = tournament_select(pop, 2, _ScriptedRng(draws))
        assert winner.eval_id == 1
    winner = tournament_select(pop, 2, _ScriptedRng([0, 0, 0]))
    assert winner.eval_id == 0  # sampled alone, inf can still be returned


class _ScriptedRng:
    """Deterministic stand-in driving tournament_select through every case."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, lo, hi, k=None):
        if k is not None:
            return np.array([self.draws.pop(0) for _ in range(k)])
        return self.draws.pop(0)


def test_selection_pressure_exhaustive_micro():
    # k=2 over two distinct fitnesses: the worse individual wins only when
    # the sample never contains the better one
    pop = [_mk(1.0, 0), _mk(2.0, 1)]
    for i in (0, 1):
        for j in (0, 1):
            rng = _ScriptedRng([i, j, 0])  # spare draw for duplicate ties
            winner = tournament_select(pop, 2, rng)
            expected = 1 if (i == 1 and j == 1) else 0
            assert winner.eval_id == expected, (i, j)


def test_crossover_p0_returns_first_parent():
    rng = np.random.default_rng(6)
    p1 = ex.parse("x + p1")
    p2 = ex.parse("x * x")
    for _ in range(20):
        assert crossover(p1, p2, 0.0, rng) == p1


def test_crossover_root_replacement_possible():
    rng = np.random.default_rng(7)
    p1 = ex.parse("x + p1")
    p2 = ex.parse("x * x")
    seen_donor_subtrees = set()
    for _ in range(300):
        child = crossover(p1, p2, 1.0, rng)
        assert ex.length(child) <= ex.length(p1) + ex.length(p2)
        seen_donor_subtrees.add(ex.render(child))
    assert "x * x" in seen_donor_subtrees  # root replaced by whole donor


def test_mutation_p0_identity():
    rng = np.random.default_rng(8)
    e = ex.parse("x + p1 * x")
    assert mutate(e, 0.0, rng) == e


def test_mutation_p1_replaces_root():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = mutate(ex.parse("x + p1 * x"), 1.0, rng)
        assert _depth(m) <= 2


def test_mutated_subtree_depth_bounded():
    rng = np.random.default_rng(10)
    base = ex.parse("(x + p1) * (x - p2)")
    base_depth = _depth(base)
    for _ in range(200):
        m = mutate(base, 0.3, rng)
        assert _depth(m) <= base_depth + 1  # a depth<=2 graft one level deep


def test_run_gp_log_accounting(synth):
    log = run_gp(SMALL, synth, seed=12)
    discards = int(log.config["init_discards"])
    expected = SMALL.pop_size * (SMALL.generations + 1) + discards
    assert len(log.records) == expected
    # eval ids are sequential and unique
    ids = [r.eval_id for r in log.records]
    assert ids == list(range(1, expected + 1))
    # over-length sentinels carry +inf fitness and are flagged with sem 0
    for r in log.records:
        text_len = ex.length(ex.parse(r.text))
        if r.sem_hash == 0:
            assert math.isinf(r.fitness)
            assert text_len > SMALL.max_len
        else:
            assert text_len <= SMALL.max_len


def test_run_gp_elitism_monotone(synth):
    log = run_gp(SMALL, synth, seed=13)
    best = math.inf
    by_gen = {}
    for r in log.records:
        by_gen.setdefault(r.gen, []).append(r.fitness)
    prev = math.inf
    for g in sorted(by_gen):
        prev = min(prev, min(by_gen[g]))
        assert prev <= min(min(by_gen[h]) for h in sorted(by_gen) if h <= g)
    # cumulative best never increases generation over generation
    cum = []
    best = math.inf
    for g in sorted(by_gen):
        best = min(best, min(by_gen[g]))
        cum.append(best)
    assert cum == sorted(cum, reverse=True)


def test_run_gp_reproducible(synth, tmp_path):
    a = run_gp(SMALL, synth, seed=99)
    b = run_gp(SMALL, synth, seed=99)
    assert a.records == b.records
    c = run_gp(SMALL, synth, seed=100)
    assert c.records != a.records
    p = tmp_path / "run.log"
    write_runlog(a, str(p))
    back = read_runlog(str(p))
    assert back.seed == a.seed
    assert len(back.records) == len(a.records)
    for x, y in zip(back.records, a.records):
        assert (x.gen, x.eval_id, x.struct_hash, x.sem_hash, x.text,
                x.fevals) == (y.gen, y.eval_id, y.struct_hash, y.sem_hash,
                              y.text, y.fevals)
        assert x.fitness == y.fitness or (
            math.isinf(x.fitness) and math.isinf(y.fitness))


@pytest.mark.parametrize("existing", [False, True])
def test_failed_runlog_write_leaves_no_partial_file(tmp_path, existing):
    """A write that raises part-way leaves no ``.tmp`` file, and the log
    path as it was: absent, or holding the previous log."""
    path = tmp_path / "run.log"
    good = LogRecord(0, 1, 11, 22, 0.5, "x", 3, (1.0,))
    if existing:
        write_runlog(RunLog([good]), str(path))
    before = path.read_bytes() if existing else None
    bad = LogRecord(0, 2, 11, 22, 0.5, "x", 3, ("not a number",))
    with pytest.raises(ValueError):
        write_runlog(RunLog([good, good, bad]), str(path))
    assert not (tmp_path / "run.log.tmp").exists()
    if existing:
        assert path.read_bytes() == before
    else:
        assert not path.exists()


def test_population_size_constant(synth):
    # derived from the log: every generation logs exactly pop_size records
    log = run_gp(SMALL, synth, seed=14)
    per_gen = {}
    for r in log.records:
        per_gen[r.gen] = per_gen.get(r.gen, 0) + 1
    for g in range(1, SMALL.generations + 1):
        assert per_gen[g] == SMALL.pop_size


def test_best_of_run_not_worse_than_init(synth):
    log = run_gp(SMALL, synth, seed=15)
    init_best = min(r.fitness for r in log.records if r.gen == 0)
    assert log.best_fitness() <= init_best


def test_gp_searches_the_catalogs_space(synth):
    """Each parameter leaf of every record is its own parameter, numbered
    1..k in pre-order as in the catalog, and normalize is idempotent on
    every record, which makes the Canonicalizer's raw-tree lookup sound."""
    cfg = replace(SMALL, pop_size=30, generations=5, max_len=6)
    log = run_gp(cfg, synth, seed=21)
    multi = 0
    for r in log.records:
        t = ex.parse(r.text)
        indices = [n.value for n in ex.subtrees(t) if n.kind == ex.PARAM]
        assert indices == list(range(1, len(indices) + 1)), r.text
        multi += len(indices) > 1
        n = normalize(t)
        assert normalize(n) == n, r.text
    # the terminal set draws p1 alone, so these leaves were renumbered
    assert multi > 0


@pytest.mark.parametrize("objective", ["mse", "mnr"])
@pytest.mark.parametrize("p_cx, p_mut", [(1.0, 0.25), (0.0, 0.0)])
def test_generations_match_one_child_at_a_time(objective, p_cx, p_mut, synth,
                                              tmp_path, monkeypatch):
    """Fitting a generation's copies of one tree in one ``fit_seeds`` call
    writes the log of fitting each child alone, byte for byte, also when
    almost every child is a copy (no crossover, no mutation).  Generation 0
    makes one call per in-length individual, and every later generation
    one per distinct in-length tree, with a seed per copy."""
    from oracles import gp_one_at_a_time

    cfg = replace(SMALL, p_cx=p_cx, p_mut=p_mut, objective=objective)
    calls = []
    real = gp.fit_seeds

    def recording(e, data, objective, config, seeds):
        calls.append((ex.structural_key(e), len(seeds)))
        return real(e, data, objective, config, seeds)

    monkeypatch.setattr(gp, "fit_seeds", recording)
    for seed in (0, 1, 2):
        calls.clear()
        write_runlog(run_gp(cfg, synth, seed), str(tmp_path / "batched"))
        write_runlog(gp_one_at_a_time(cfg, synth, seed),
                     str(tmp_path / "alone"))
        assert (tmp_path / "batched").read_bytes() == \
            (tmp_path / "alone").read_bytes()
        records = read_runlog(str(tmp_path / "alone")).records
        expected = []
        for gen in range(cfg.generations + 1):
            trees = [ex.parse(r.text) for r in records if r.gen == gen]
            keys = [ex.structural_key(t) for t in trees
                    if ex.length(t) <= cfg.max_len]
            expected.extend([(k, 1) for k in keys] if gen == 0
                            else Counter(keys).items())
        assert calls == expected
        if p_cx == 0.0:
            assert max(n for _, n in calls) > 1


# sha256 prefix of the run log file of one short seeded run: pins the random
# draws, the fits and the log format together
_GOLDEN_LOG = "6d9cd03b0ad271ba"


def test_golden_run_log(synth, tmp_path):
    import hashlib

    cfg = replace(gp_preset(10), pop_size=30, generations=5)
    path = tmp_path / "run.log"
    write_runlog(run_gp(cfg, synth, seed=100), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == _GOLDEN_LOG
