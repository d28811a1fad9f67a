import math
import multiprocessing
import os
import signal
import time
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

from esrlab import _helper, expr as ex, gp
from esrlab.dataset import Dataset
from esrlab.gp import (GpConfig, GpInitError, Individual, _Run, crossover,
                       gp_preset, grow, init_population, mutate, run_gp,
                       tournament_select)
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
        # the helper's fit_seeds calls would not reach this process
        write_runlog(run_gp(cfg, synth, seed, workers=1),
                     str(tmp_path / "batched"))
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


def _log_bytes(log, path) -> bytes:
    write_runlog(log, str(path))
    return path.read_bytes()


# draws offspring over the length limit (sentinels) and initial trees over
# it (init discards)
_SHORT = replace(SMALL, max_len=6)


@pytest.mark.parametrize(
    "cfg, seeds",
    [(SMALL, (0, 1, 2)), (replace(SMALL, objective="mnr"), (0, 1, 2)),
     (replace(SMALL, p_cx=0.0, p_mut=0.0), (0, 1, 2)), (_SHORT, (0, 1, 2)),
     # a converged population: one large group near the front
     (replace(gp_preset(10), generations=20), (100,))],
    ids=["mse", "mnr", "no_variation", "over_length", "preset10_converged"])
def test_logs_are_the_same_for_every_workers(cfg, seeds, synth, tmp_path,
                                             monkeypatch):
    """A run whose helper canonicalizes and fits a share of each
    generation writes the log of a run alone, byte for byte."""
    start = _helper.start
    started = []

    def recording(*args):
        started.append(start(*args))
        return started[-1]

    monkeypatch.setattr(_helper, "start", recording)
    sentinels = discards = 0
    for seed in seeds:
        alone = run_gp(cfg, synth, seed, workers=1)
        assert started == []
        helped = _log_bytes(run_gp(cfg, synth, seed, workers=2),
                            tmp_path / "helped")
        assert len(started) == 1 and started.pop() is not None
        assert _log_bytes(alone, tmp_path / "alone") == helped
        sentinels += sum(r.sem_hash == 0 for r in alone.records)
        discards += alone.config["init_discards"]
    if cfg is _SHORT:
        assert sentinels > 0 and discards > 0


# x = 0 is a pole of every tree that divides by an x that vanishes there, so
# many initial trees within the length limit fail to fit
_POLE_X = np.linspace(-1.0, 1.0, 9)
_POLE = Dataset(_POLE_X, 0.5 * _POLE_X + 1.0)


def _failed_slots(log, cfg, window) -> Counter:
    """Where in-length initial trees that failed to fit fall in the windows
    of a run with a helper: ``mid`` (between a window's first and last
    slots) or ``last``.  A window starts at the slot after a full one and
    at the slot of a failed fit."""
    where = Counter()
    start = slot = 0
    for r in log.records:
        if r.gen != 0 or r.sem_hash == 0:
            continue
        if math.isinf(r.fitness):
            last = min(window, cfg.pop_size - start) - 1
            where["last" if slot - start == last else
                  "mid" if slot > start else "first"] += 1
            start = slot
        else:
            slot += 1
            start = slot if slot - start == window else start
    return where


@pytest.mark.parametrize("window", [gp._INIT_WINDOW, 3])
def test_initial_windows_roll_back_failed_fits(window, tmp_path,
                                               monkeypatch):
    """An initial window is logged up to its first tree that fails to fit,
    and the draws after it are made again: with failed fits in the middle
    and on the last slot of windows, and a last window cut short, a run
    with a helper and a run alone write the log of one tree at a time."""
    from oracles import gp_one_at_a_time

    monkeypatch.setattr(gp, "_INIT_WINDOW", window)
    cfg = replace(SMALL, pop_size=23, generations=2, max_len=7)
    assert cfg.pop_size % window
    where = Counter()
    for seed in range(4):
        alone = gp_one_at_a_time(cfg, _POLE, seed)
        expected = _log_bytes(alone, tmp_path / "alone")
        for workers in (1, 2):
            assert _log_bytes(run_gp(cfg, _POLE, seed, workers),
                              tmp_path / "run") == expected
        where += _failed_slots(alone, cfg, window)
    assert where["mid"] > 0 and where["last"] > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_the_resample_cap_stops_where_one_at_a_time_does(workers,
                                                         monkeypatch):
    """``_INIT_RESAMPLE_CAP`` counts the samples of one initial individual,
    across rolled-back windows too: the run raises ``GpInitError`` after
    logging the records one tree at a time logs before it raises, also
    when the individual's samples hold a failed fit within the length
    limit, which a window with a helper rolls back to."""
    from oracles import gp_one_at_a_time

    cfg = replace(SMALL, pop_size=23, generations=1)
    runs = []
    real_init = gp.init_population

    def keeping(cfg, run):
        runs.append(run)
        return real_init(cfg, run)

    monkeypatch.setattr(gp, "init_population", keeping)
    raised = Counter()
    for cap in (3, 6):
        monkeypatch.setattr(gp, "_INIT_RESAMPLE_CAP", cap)
        for seed in range(6):
            expected = []
            try:
                gp_one_at_a_time(cfg, _POLE, seed, expected)
            except GpInitError:
                with pytest.raises(GpInitError, match=f"after {cap} samples"):
                    run_gp(cfg, _POLE, seed, workers)
                got = runs[-1].records
                # every field but the semantic hash, which the helper owes
                assert [r[:3] + r[4:] for r in got] == \
                    [astuple(r)[:3] + astuple(r)[4:] for r in expected]
                rolled = any(r.sem_hash for r in expected[-cap:])
                raised["after a failed fit" if rolled else "over length"] += 1
            else:
                log = run_gp(cfg, _POLE, seed, workers)
                assert log.records == expected
                raised["no"] += 1
    assert raised["after a failed fit"] and raised["over length"] \
        and raised["no"]


def test_more_workers_start_one_helper(synth, monkeypatch):
    real = gp.fit_seeds
    running = []

    def counting(*args):
        running.append(len(multiprocessing.active_children()))
        return real(*args)

    monkeypatch.setattr(gp, "fit_seeds", counting)
    run_gp(SMALL, synth, 0, workers=4)
    assert set(running) == {1}


def test_no_helper_outlives_its_run(synth):
    run_gp(SMALL, synth, 0, workers=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(GpInitError):
        run_gp(replace(SMALL, max_len=2), synth, 0, workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_gps_gives_the_logs_of_run_gp_in_seed_order(workers, synth,
                                                        tmp_path):
    """``run_gps`` yields, in the order of its seeds, the log each seed's
    ``run_gp`` writes alone, byte for byte, whether its runs are made one
    after another (one worker) or by a pool of two or three processes."""
    seeds = (7, 3, 5)
    alone = [_log_bytes(run_gp(SMALL, synth, seed, workers=1),
                        tmp_path / "alone") for seed in seeds]
    pooled = [_log_bytes(log, tmp_path / "pooled")
              for log in gp.run_gps(SMALL, synth, seeds, workers)]
    assert pooled == alone


def test_run_gps_raises_a_pooled_runs_error_and_leaves_no_process(synth):
    runs = gp.run_gps(replace(SMALL, max_len=2), synth, (0, 1, 2), workers=2)
    with pytest.raises(GpInitError,
                       match="^no finite-fitness individual after 10000 "
                             "samples$"):
        list(runs)
    assert multiprocessing.active_children() == []


def test_importing_gp_loads_no_process_pool():
    """``run_gps`` imports its pool only when it makes one, so importing
    ``esrlab.gp`` stays cheap."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, esrlab.gp\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


class _FailingCanonicalizer:
    def __init__(self, *args):
        pass

    def __call__(self, tree):
        raise ArithmeticError("raised in the GP helper")


@pytest.mark.parametrize("where", ["fit_seeds", "Canonicalizer"])
def test_a_helpers_exception_reaches_the_caller(where, synth, monkeypatch):
    """An exception raised in the helper, while it fits (the run waits for
    the reply) or while it canonicalizes (the run does not), reaches the
    caller with its type and message, and no helper is left running."""
    parent = os.getpid()
    real = gp.fit_seeds

    def failing(*args):
        if os.getpid() != parent:
            raise ArithmeticError("raised in the GP helper")
        return real(*args)

    monkeypatch.setattr(gp, where, {"fit_seeds": failing,
                                    "Canonicalizer": _FailingCanonicalizer
                                    }[where])
    with pytest.raises(ArithmeticError, match="^raised in the GP helper$"):
        run_gp(SMALL, synth, 0, workers=2)
    assert multiprocessing.active_children() == []


def test_a_killed_helper_fails_the_run(synth, monkeypatch):
    parent = os.getpid()
    real = gp.fit_seeds
    calls = []

    def dying(*args):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(gp, "fit_seeds", dying)
    with pytest.raises(RuntimeError,
                       match=r"^GP helper \d+ exited with code -9$"):
        run_gp(SMALL, synth, 0, workers=2)
    assert multiprocessing.active_children() == []


def test_a_helper_killed_while_the_run_waits_fails_the_run(
        synth, tmp_path, monkeypatch):
    """The helper dies in the middle of a fit, after the run's process has
    fitted its end of the generation and while it waits for the helper's:
    the run fails at once, naming the exit code, and does not hang."""
    parent = os.getpid()
    real_fit, real_recv = gp.fit_seeds, _helper.Helper.recv
    fitting = tmp_path / "fitting"

    def slow(*args):
        if os.getpid() == parent:
            time.sleep(0.005)   # so that the helper claims a group
        else:
            fitting.touch()
            time.sleep(60)   # cut short by the kill
        return real_fit(*args)

    def killing(helper):
        # a helper that claimed no group of this generation replies at once
        while not (fitting.exists() or helper.conn.poll(0.01)):
            pass
        if fitting.exists():
            os.kill(helper.process.pid, signal.SIGKILL)
        return real_recv(helper)

    monkeypatch.setattr(gp, "fit_seeds", slow)
    monkeypatch.setattr(_helper.Helper, "recv", killing)
    start = time.monotonic()
    with pytest.raises(RuntimeError,
                       match=r"^GP helper \d+ exited with code -9$"):
        run_gp(SMALL, synth, 0, workers=2)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("slow", ["helper", "run", "neither"])
def test_the_split_follows_each_sides_speed(slow, synth, tmp_path,
                                            monkeypatch):
    """The two processes fit the groups of each evaluation (an initial
    window or a generation) from opposite ends until they meet, so the one
    slowed down fits fewer; every group is fitted, at most one per
    evaluation twice, and the log is that of a run alone (also when neither
    is slowed, and they meet at fast fits).  The run alone fits every
    group the helped run logs; the helped run's other fits are initial
    ones that a failed fit before them undid."""
    cfg = replace(SMALL, generations=6)
    parent = os.getpid()
    real = gp.fit_seeds
    calls = tmp_path / "calls"
    gens = {}   # first seed of a group -> its generation, in a run alone
    evaluations = {}   # first seed of a group -> its evaluation, helped
    state = {"gen": 0}   # generation 0 is drawn outside ``evaluate``

    def alone(*args):
        gens[args[4][0]] = state["gen"]
        return real(*args)

    def tagging(run, prepared, gen):
        state["gen"] = gen
        return real_evaluate(run, prepared, gen)

    def numbering(run, groups):
        n = len(set(evaluations.values()))
        evaluations.update((seeds[0], n) for _, seeds in groups)
        return real_fit_groups(run, groups)

    def helped(*args):
        in_helper = os.getpid() != parent
        if slow == ("helper" if in_helper else "run"):
            time.sleep(0.01)
        with open(calls, "a") as f:
            f.write(f"{int(in_helper)} {args[4][0]}\n")
        return real(*args)

    real_evaluate, real_fit_groups = _Run.evaluate, _Run._fit_groups
    with monkeypatch.context() as m:
        m.setattr(gp, "fit_seeds", alone)
        m.setattr(_Run, "evaluate", tagging)
        expected = _log_bytes(run_gp(cfg, synth, 0, workers=1),
                              tmp_path / "alone")
    monkeypatch.setattr(gp, "fit_seeds", helped)
    monkeypatch.setattr(_Run, "_fit_groups", numbering)
    assert _log_bytes(run_gp(cfg, synth, 0, workers=2),
                      tmp_path / "helped") == expected
    fits = [(side == "1", evaluations[int(s)], gens.get(int(s), 0), int(s))
            for side, s in
            (line.split() for line in calls.read_text().splitlines())]
    counts = Counter(s for *_, s in fits)
    assert counts.keys() == evaluations.keys() >= gens.keys()
    twice = Counter(evaluations[s] for s, n in counts.items() if n > 1)
    assert all(n == 1 for n in twice.values())
    # the run's process claims its first group before the helper has the
    # evaluation, unless a counter left from an earlier one says otherwise
    runs = Counter(e for in_helper, e, _, _ in fits if not in_helper)
    assert all(runs[e] >= 1
               for e, n in Counter(evaluations.values()).items() if n > 1)
    if slow != "neither":
        sides = Counter(in_helper for in_helper, _, gen, _ in fits
                        if gen > 0)
        slowed = slow == "helper"
        assert 0 < sides[slowed] < sides[not slowed]


def test_a_run_in_a_daemonic_worker_runs_alone(synth, tmp_path):
    """A pool worker may not start processes of its own, so a run there
    canonicalizes and fits everything itself."""
    import hashlib

    cfg = replace(gp_preset(10), pop_size=30, generations=5)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        log = pool.apply(run_gp, (cfg, synth, 100, 2))
    digest = hashlib.sha256(_log_bytes(log, tmp_path / "run.log"))
    assert digest.hexdigest()[:16] == _GOLDEN_LOG
