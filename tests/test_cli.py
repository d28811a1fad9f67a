import os
import re
import shlex

import numpy as np
import pytest

from esrlab.cli import (_workers, build_parser, main, parse_gp_config,
                        write_gp_config)
from esrlab.dataset import save_csv, synthetic_dataset
from esrlab import expr as ex, gp
from esrlab.egraph import EqSatConfig
from esrlab.enumeration import (RULESET_ID, Catalog, read_catalog,
                                write_catalog)
from esrlab.gp import GpConfig
from esrlab.runlog import read_runlog
from esrlab.simplify import CanonicalForm


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    save_csv(synthetic_dataset(n=32), str(path))
    return str(path)


@pytest.fixture(scope="module")
def catalog3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cat") / "c3.tsv"
    assert main(["enumerate", "--max-length", "3", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def catalog4_file(tmp_path_factory, catalog4):
    path = tmp_path_factory.mktemp("cat") / "c4.tsv"
    write_catalog(catalog4, str(path))
    return str(path)


def _fit(catalog, data, out, workers):
    return main(["fit", "--catalog", catalog, "--data", data,
                 "--restarts", "3", "--seed", "7", "--out", str(out),
                 "--workers", str(workers)])


def test_usage_errors_exit_1(capsys):
    assert main(["bogus"]) == 1
    assert main(["enumerate"]) == 1
    assert main(["fit", "--catalog", "x"]) == 1


def _readme_commands() -> list:
    """The ``esrlab`` lines of README's "Command line" block, with ``\\``
    continuations joined, optional groups' brackets dropped and one-letter
    placeholders given a value."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [[re.sub(r"^[A-Z]$", "1", tok.strip("[]"))
             for tok in shlex.split(line)[1:]]
            for line in block.splitlines() if line.startswith("esrlab ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)   # a usage error raises


def test_data_errors_exit_2(tmp_path, catalog3_file):
    assert main(["simplify", "--expr", "x + "]) == 2
    assert main(["simplify", "--expr", "x + 1e999 - 1e999"]) == 2
    assert main(["fit", "--catalog", "/nonexistent", "--data", "/none",
                 "--out", str(tmp_path / "r.tsv")]) == 2
    assert main(["fit", "--catalog", catalog3_file, "--data", "/none",
                 "--out", str(tmp_path / "r.tsv")]) == 2


def test_enumerate_writes_catalog(catalog3_file):
    cat = read_catalog(catalog3_file)
    assert cat.max_len == 3
    assert len(cat) == 14


def test_simplify_prints_canonical(capsys):
    assert main(["simplify", "--expr", "x - x"]) == 0
    out = capsys.readouterr().out
    assert "canonical: 0.0" in out
    assert "hash:" in out
    assert main(["simplify", "--expr", "p1 + p2"]) == 0
    assert "canonical: p1" in capsys.readouterr().out


def test_simplify_refuses_repeated_param(capsys):
    # every parameter leaf is its own parameter, as in the catalog
    assert main(["simplify", "--expr", "p1 * x + p1 * p1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --expr: p1 appears more than once")


def test_simplify_overflowing_literals(capsys):
    assert main(["simplify", "--expr", "x * 1e300 * 1e300"]) == 0
    assert "canonical: 1e+300 * (x * 1e+300)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-length", "3", "--no-prune"],
    ["enumerate", "--max-length", "3", "--eqsat-iters", "5"],
    ["simplify", "--expr", "x", "--node-budget", "2000"],
], ids=["no_prune", "eqsat_iters", "node_budget"])
def test_eqsat_limits_are_not_flags(tmp_path, capsys, argv):
    """The e-graph limits are the EqSatConfig defaults, so that every
    catalog and run log hashes under one definition of unique."""
    out = tmp_path / "c.tsv"
    if argv[0] == "enumerate":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_simplify_over_node_budget_exits_2(capsys):
    # 250 terms |x| ^ c with distinct literals, summed as a balanced tree
    terms = [f"|x| ^ {c}.5" for c in range(250)]
    while len(terms) > 1:
        terms = [f"({a} + {b})" for a, b in zip(terms[::2], terms[1::2])] \
            + terms[len(terms) // 2 * 2:]
    assert main(["simplify", "--expr", terms[0]]) == 2
    # names no flag: the budget is a constant
    assert capsys.readouterr().err == "error: expression too large to " \
        "canonicalize: node budget 600 exceeded\n"


def test_rules_dump(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    assert "0 + a -> a" in out
    assert "a + b = b + a" in out


def test_fit_and_analyze_dist(tmp_path, data_csv, catalog3_file, capsys):
    results = tmp_path / "results.tsv"
    assert main(["fit", "--catalog", catalog3_file, "--data", data_csv,
                 "--objective", "mse", "--restarts", "3", "--seed", "7",
                 "--out", str(results), "--workers", "1"]) == 0
    text = results.read_text()
    assert text.rstrip().endswith("#done")

    baselines = tmp_path / "base.tsv"
    baselines.write_text("constant\tp1\t1.7\n")
    out = tmp_path / "dist.tsv"
    assert main(["analyze", "dist", "--results", str(results),
                 "--catalog", catalog3_file, "--baselines", str(baselines),
                 "--data", data_csv, "--out", str(out)]) == 0
    body = out.read_text()
    assert "quantile" in body and "constant" in body


def test_gp_rs_and_analyze_roundtrip(tmp_path, data_csv, catalog3_file):
    cfg = tmp_path / "gp.toml"
    cfg.write_text(
        "max_length = 8\npop_size = 10\ngenerations = 3\n"
        "tournament_size = 2\ncx_prob = 1.0\nmut_prob = 0.25\n"
        "objective = mse\noptim_iterations = 4\n")
    log_dir = tmp_path / "gp_logs"
    assert main(["gp", "--data", data_csv, "--config", str(cfg),
                 "--runs", "2", "--seed", "5", "--log-dir", str(log_dir),
                 "--workers", "1"]) == 0
    logs = sorted(os.listdir(log_dir))
    assert logs == ["config_echo.txt", "run_000.log", "run_001.log"]
    log = read_runlog(str(log_dir / "run_000.log"))
    assert len(log.records) >= 10 * 4

    rs_dir = tmp_path / "rs_logs"
    assert main(["rs", "--catalog", catalog3_file, "--data", data_csv,
                 "--runs", "2", "--seed", "5", "--log-dir", str(rs_dir)]) == 0

    ecdf_out = tmp_path / "ecdf.tsv"
    assert main(["analyze", "ecdf", "--logs", str(log_dir / "run_*.log"),
                 "--thresholds", "0.05,0.01", "--axis", "visited",
                 "--out", str(ecdf_out)]) == 0
    assert ecdf_out.read_text().startswith("threshold")

    dups_out = tmp_path / "dups.tsv"
    assert main(["analyze", "dups", "--log", str(log_dir / "run_000.log"),
                 "--catalog", catalog3_file, "--out", str(dups_out)]) == 0
    assert dups_out.read_text().startswith("gen")


def test_failed_gp_run_leaves_no_config_echo(tmp_path, data_csv, capsys):
    cfg = tmp_path / "gp.toml"
    cfg.write_text("max_length = 2\n")
    log_dir = tmp_path / "gp_logs"
    assert main(["gp", "--data", data_csv, "--config", str(cfg),
                 "--log-dir", str(log_dir), "--workers", "1"]) == 2
    assert "no finite-fitness individual" in capsys.readouterr().err
    assert not (log_dir / "config_echo.txt").exists()


def test_failed_gp_run_leaves_no_log(tmp_path, data_csv, monkeypatch,
                                     capsys):
    """Each log is written as its run ends, to a temporary file, and the
    logs go in place only once every run is done: a run that fails after
    another was written leaves no log and no temporary file."""
    real, written = gp.run_gp, []
    log_dir = tmp_path / "gp_logs"

    def second_fails(cfg, data, seed, workers):
        if written:
            assert sorted(os.listdir(log_dir)) == ["run_000.log.tmp"]
            raise gp.GpInitError("no finite-fitness individual in run 1")
        written.append(seed)
        return real(cfg, data, seed, workers)

    monkeypatch.setattr("esrlab.gp.run_gp", second_fails)
    cfg = tmp_path / "gp.toml"
    cfg.write_text("max_length = 6\npop_size = 8\ngenerations = 2\n"
                   "optim_iterations = 3\n")
    assert main(["gp", "--data", data_csv, "--config", str(cfg),
                 "--runs", "3", "--log-dir", str(log_dir),
                 "--workers", "1"]) == 2
    assert capsys.readouterr().err == \
        f"error: {cfg}: no finite-fitness individual in run 1\n"
    assert os.listdir(log_dir) == []


def test_gp_determinism_across_invocations(tmp_path, data_csv):
    cfg = tmp_path / "gp.toml"
    cfg.write_text("max_length = 6\npop_size = 8\ngenerations = 2\n"
                   "optim_iterations = 3\n")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["gp", "--data", data_csv, "--config", str(cfg),
                     "--runs", "1", "--seed", "42", "--log-dir", str(d),
                     "--workers", "1"]) == 0
    assert (d1 / "run_000.log").read_bytes() == \
        (d2 / "run_000.log").read_bytes()


@pytest.mark.parametrize("runs, workers, pool, per_run",
                         [(1, 4, None, 4), (2, 4, 2, 2), (3, 2, 2, 1),
                          (1, 2, None, 2), (4, 2, 2, 1)],
                         ids=["1-4-None", "2-4-2", "3-2-2", "1-2-None",
                              "4-2-2"])
def test_gp_pool_has_one_process_per_run_at_most(tmp_path, data_csv,
                                                 monkeypatch, runs, workers,
                                                 pool, per_run):
    """``esrlab gp`` makes its runs through ``gp.run_gps``, which starts
    min(workers, runs) processes, and no pool when that is one, and gives
    each run workers // that many workers."""
    import itertools

    sizes, given = [], []
    real = gp.run_gp

    class InProcessPool:
        def __init__(self, n, **kwargs):
            sizes.append(n)

        def map(self, fn, *iterables):
            return itertools.starmap(fn, zip(*iterables))

        def shutdown(self, **kwargs):
            pass

    def one_process(cfg, data, seed, workers):
        given.append(workers)
        return real(cfg, data, seed, workers=1)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr("esrlab.gp.run_gp", one_process)
    cfg = tmp_path / "gp.toml"
    cfg.write_text("max_length = 6\npop_size = 8\ngenerations = 2\n"
                   "optim_iterations = 3\n")
    assert main(["gp", "--data", data_csv, "--config", str(cfg),
                 "--runs", str(runs), "--log-dir", str(tmp_path / "logs"),
                 "--workers", str(workers)]) == 0
    assert sizes == ([] if pool is None else [pool])
    assert given == [per_run] * runs


def test_gp_writes_the_same_files_for_every_workers(tmp_path, data_csv):
    """One run given a helper (--workers 2) writes the log and the config
    echo of one run alone."""
    cfg = tmp_path / "gp.toml"
    cfg.write_text("max_length = 8\npop_size = 12\ngenerations = 3\n"
                   "optim_iterations = 5\n")
    dirs = [tmp_path / "w1", tmp_path / "w2"]
    for workers, d in zip((1, 2), dirs):
        assert main(["gp", "--data", data_csv, "--config", str(cfg),
                     "--runs", "1", "--seed", "5", "--log-dir", str(d),
                     "--workers", str(workers)]) == 0
    for name in ("run_000.log", "config_echo.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_gp_config_depths_in_either_order(tmp_path):
    path = tmp_path / "gp.toml"
    path.write_text("min_depth = 5\nmax_depth = 6\n")
    cfg = parse_gp_config(str(path))
    assert (cfg.min_depth, cfg.max_depth) == (5, 6)


def test_config_echo_roundtrip(tmp_path):
    cfg = GpConfig(pop_size=50, generations=7, max_len=12, p_mut=0.3)
    path = tmp_path / "echo.txt"
    write_gp_config(cfg, str(path))
    back = parse_gp_config(str(path))
    assert back.pop_size == 50 and back.generations == 7
    assert back.max_len == 12 and back.p_mut == 0.3
    assert back.optim_iterations == cfg.optim_iterations
    assert [line.split(" = ")[0] for line in path.read_text().splitlines()] \
        == ["pop_size", "generations", "min_depth", "max_depth",
            "tournament_size", "cx_prob", "mut_prob", "max_length",
            "objective", "optim_iterations"]
    # echoing the parsed config reproduces the same file
    path2 = tmp_path / "echo2.txt"
    write_gp_config(back, str(path2))
    assert path.read_text() == path2.read_text()


def test_workers_env_override(monkeypatch, tmp_path, data_csv, catalog3_file):
    monkeypatch.setenv("ESRLAB_WORKERS", "1")
    out = tmp_path / "r.tsv"
    assert main(["fit", "--catalog", catalog3_file, "--data", data_csv,
                 "--restarts", "2", "--out", str(out)]) == 0
    assert out.exists()


def test_enumerate_workers_write_identical_files(tmp_path):
    one, two = tmp_path / "one.tsv", tmp_path / "two.tsv"
    for out, workers in ((one, "1"), (two, "2")):
        assert main(["enumerate", "--max-length", "5", "--out", str(out),
                     "--workers", workers]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_enumerate_passes_workers_to_the_build(monkeypatch, tmp_path):
    seen = []

    def build(max_len, progress=None, workers=None):
        seen.append(workers)
        return Catalog(max_len, [])

    monkeypatch.setattr("esrlab.cli.build_catalog", build)
    out = str(tmp_path / "c.tsv")
    monkeypatch.setenv("ESRLAB_WORKERS", "3")
    assert main(["enumerate", "--max-length", "2", "--out", out]) == 0
    assert main(["enumerate", "--max-length", "2", "--out", out,
                 "--workers", "2"]) == 0
    assert seen == [3, 2]


def test_workers_default_to_the_cpus_the_process_may_use(monkeypatch):
    """Under an affinity mask of one CPU on a machine of eight, the default
    is one worker, not eight."""
    monkeypatch.delenv("ESRLAB_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    args = build_parser().parse_args(["enumerate", "--max-length", "2",
                                      "--out", "c.tsv"])
    assert _workers(args) == 1


def test_fit_workers_write_identical_files(tmp_path, data_csv, catalog4_file):
    one, two = tmp_path / "one.tsv", tmp_path / "two.tsv"
    assert _fit(catalog4_file, data_csv, one, 1) == 0
    assert _fit(catalog4_file, data_csv, two, 2) == 0
    assert one.read_bytes() == two.read_bytes()


def test_fit_workers_resume_partial_file(tmp_path, data_csv, catalog4_file):
    full = tmp_path / "full.tsv"
    assert _fit(catalog4_file, data_csv, full, 1) == 0
    lines = full.read_text().splitlines(keepends=True)
    # a planted result for the fourth entry: kept as it is, not refitted
    planted = lines[3].split("\t")[0] + "\t12345.0\t7\t0.5\n"
    partial = tmp_path / "partial.tsv"
    partial.write_text("".join(lines[:3]) + planted)
    assert _fit(catalog4_file, data_csv, partial, 2) == 0
    assert partial.read_text() == \
        "".join(lines[:3]) + planted + "".join(lines[4:])


def test_rs_completes_partial_results(tmp_path, data_csv, catalog3_file):
    full = tmp_path / "full.tsv"
    assert main(["fit", "--catalog", catalog3_file, "--data", data_csv,
                 "--seed", "5", "--out", str(full), "--workers", "1"]) == 0
    partial = tmp_path / "partial.tsv"
    partial.write_text("".join(full.read_text().splitlines(True)[:5]))
    for name, results in (("full", full), ("partial", partial)):
        assert main(["rs", "--catalog", catalog3_file, "--data", data_csv,
                     "--runs", "2", "--seed", "5", "--results", str(results),
                     "--log-dir", str(tmp_path / name)]) == 0
    for log in ("rs_000.log", "rs_001.log"):
        assert (tmp_path / "full" / log).read_bytes() == \
            (tmp_path / "partial" / log).read_bytes()


@pytest.fixture(scope="module")
def results3_file(tmp_path_factory, data_csv, catalog3_file):
    path = tmp_path_factory.mktemp("fit") / "results.tsv"
    assert main(["fit", "--catalog", catalog3_file, "--data", data_csv,
                 "--restarts", "1", "--out", str(path),
                 "--workers", "1"]) == 0
    return str(path)


@pytest.mark.parametrize("objective, line, names", [
    ("mse", "bad\tx +\t", "end of input"),
    ("mse", "bad\tp1\tabc", "could not convert"),
    ("mse", "bad\tp1 + p2\t1.0", "p2 requested"),
    ("mnr", "bad\tp1\t1.0,0.0,0.0,-1.0", "omega must be positive"),
], ids=["parse", "theta", "too_few_theta", "omega"])
def test_analyze_dist_bad_baseline_exits_2(tmp_path, data_csv, results3_file,
                                           capsys, objective, line, names):
    theta = {"mse": "1.7", "mnr": "1.7,0.1,0.0,1.0"}[objective]
    baselines = tmp_path / "base.tsv"
    baselines.write_text(f"# name, expr, theta\nok\tp1\t{theta}\n{line}\n")
    out = tmp_path / "dist.tsv"
    assert main(["analyze", "dist", "--results", results3_file,
                 "--baselines", str(baselines), "--data", data_csv,
                 "--objective", objective, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{baselines}:3: " in err and names in err
    assert not out.exists()


def test_analyze_dist_mnr_needs_uncertainty_columns(tmp_path, results3_file,
                                                    capsys):
    """The data check comes before any baseline line is read: the first
    line here does not parse."""
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n1.0,2.0\n2.0,3.0\n3.0,5.0\n")
    baselines = tmp_path / "base.tsv"
    baselines.write_text("bad\tx +\t\n")
    assert main(["analyze", "dist", "--results", results3_file,
                 "--baselines", str(baselines), "--data", str(data),
                 "--objective", "mnr", "--out",
                 str(tmp_path / "dist.tsv")]) == 2
    err = capsys.readouterr().err
    assert "sigma_x" in err and "base.tsv" not in err


@pytest.mark.parametrize("reader", ["simplify", "catalog", "baselines"])
@pytest.mark.parametrize("factors", [ex.MAX_DEPTH, ex.MAX_DEPTH + 1],
                         ids=["at_bound", "past_bound"])
def test_deep_expression_text(tmp_path, data_csv, results3_file, capsys,
                              reader, factors):
    """A product one factor deeper than the parser's bound is a data error
    naming where it is, never a RecursionError; at the bound it is read."""
    text = " * ".join(["x"] * factors)
    ok = factors == ex.MAX_DEPTH
    if reader == "simplify":
        assert main(["simplify", "--expr", text]) == (0 if ok else 2)
        where = "error: "
    elif reader == "catalog":
        path = tmp_path / "deep.tsv"
        entry = CanonicalForm(ex.text_hash(text), 2 * factors - 1, 0, text)
        write_catalog(Catalog(3, [entry]), str(path))
        if ok:
            assert read_catalog(str(path)).entries == [entry]
            return
        with pytest.raises(ValueError, match=r"deep\.tsv:5: malformed .* "
                           r"deeper than 64 levels \(column \d+\)"):
            read_catalog(str(path))
        return
    else:
        baselines = tmp_path / "base.tsv"
        baselines.write_text(f"deep\t{text}\t\n")
        assert main(["analyze", "dist", "--results", results3_file,
                     "--baselines", str(baselines), "--data", data_csv,
                     "--out", str(tmp_path / "dist.tsv")]) == (0 if ok else 2)
        where = f"error: {baselines}:1: "
    err = capsys.readouterr().err
    assert ok == (err == "")
    if not ok:
        assert err.startswith(where) and "deeper than 64 levels" in err


def test_fit_accepts_negative_seed(tmp_path, data_csv, catalog3_file):
    assert main(["fit", "--catalog", catalog3_file, "--data", data_csv,
                 "--restarts", "1", "--seed", "-1", "--out",
                 str(tmp_path / "r.tsv"), "--workers", "1"]) == 0


@pytest.mark.parametrize("command", ["fit", "rs"])
def test_unparsable_catalog_entry_exits_2(tmp_path, data_csv, catalog3_file,
                                          capsys, command):
    """A catalog entry that does not parse is rejected on read, by line,
    though its footer matches."""
    good = read_catalog(catalog3_file)
    bad = tmp_path / "bad.tsv"
    entry = CanonicalForm(ex.text_hash("x + "), 2, 0, "x + ")
    write_catalog(Catalog(3, good.entries[:2] + [entry]), str(bad))
    argv = {"fit": ["fit", "--out", str(tmp_path / "r.tsv"), "--workers", "1"],
            "rs": ["rs", "--log-dir", str(tmp_path / "rs")]}[command]
    assert main(argv + ["--catalog", str(bad), "--data", data_csv]) == 2
    assert f"{bad}:7: malformed catalog entry" in capsys.readouterr().err


def test_analyze_dups_unparsable_record_exits_2(tmp_path, capsys):
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n"
                   "0\t1\t7\t8\t1.0\tx + p1\t3\t0.5\n"
                   "0\t2\t9\t10\t1.0\tx +\t3\t\n")
    assert main(["analyze", "dups", "--log", str(log), "--out",
                 str(tmp_path / "d.tsv")]) == 2
    err = capsys.readouterr().err
    assert f"run log {log}: eval_id 2: " in err


def test_analyze_dups_repeated_param_exits_2(tmp_path, capsys):
    # a log written while GP's terminals shared p1 holds such records
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n"
                   "0\t1\t7\t8\t1.0\tx + p1\t3\t0.5\n"
                   "0\t2\t9\t10\t1.0\tx * p1 + p1\t3\t0.5\n")
    out = tmp_path / "d.tsv"
    assert main(["analyze", "dups", "--log", str(log), "--out",
                 str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: run log {log}: eval_id 2: p1 appears more than once; " \
        "every parameter leaf is its own parameter\n"
    assert not out.exists()


def test_fit_mnr_needs_uncertainty_columns(tmp_path, catalog3_file, capsys):
    data = tmp_path / "xy.csv"
    data.write_text("x,y\n1.0,2.0\n2.0,3.0\n3.0,5.0\n")
    out = tmp_path / "r.tsv"
    assert main(["fit", "--catalog", catalog3_file, "--data", str(data),
                 "--objective", "mnr", "--out", str(out),
                 "--workers", "1"]) == 2
    assert "sigma_x" in capsys.readouterr().err
    assert not out.exists()


def test_fit_ragged_csv_exits_2(tmp_path, catalog3_file, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("x,y\n1.0,2.0\n2.0\n3.0,5.0\n")
    out = tmp_path / "r.tsv"
    assert main(["fit", "--catalog", catalog3_file, "--data", str(data),
                 "--out", str(out), "--workers", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {data}:3: ")
    assert not out.exists()


def test_fit_truncated_catalog_exits_2(tmp_path, data_csv, catalog3_file,
                                       capsys):
    # the header and the first four entries: no footer
    lines = open(catalog3_file).read().splitlines(keepends=True)
    truncated = tmp_path / "truncated.tsv"
    truncated.write_text("".join(lines[:8]))
    out = tmp_path / "r.tsv"
    assert main(["fit", "--catalog", str(truncated), "--data", data_csv,
                 "--out", str(out), "--workers", "1"]) == 2
    assert "no #count/#crc footer" in capsys.readouterr().err
    assert not out.exists()


def test_rs_torn_results_exits_2(tmp_path, data_csv, catalog3_file, capsys):
    full = tmp_path / "full.tsv"
    assert main(["fit", "--catalog", catalog3_file, "--data", data_csv,
                 "--seed", "5", "--out", str(full), "--workers", "1"]) == 0
    lines = full.read_text().splitlines(True)[:5]
    torn = tmp_path / "torn.tsv"
    torn.write_text("".join(lines[:4]) + lines[4][:len(lines[4]) // 3])
    capsys.readouterr()
    assert main(["rs", "--catalog", catalog3_file, "--data", data_csv,
                 "--runs", "1", "--results", str(torn),
                 "--log-dir", str(tmp_path / "rs")]) == 2
    err = capsys.readouterr().err
    assert f"{torn}:5" in err


def test_fit_resumes_torn_last_line(tmp_path, data_csv, catalog4_file):
    full = tmp_path / "full.tsv"
    assert _fit(catalog4_file, data_csv, full, 1) == 0
    body = full.read_bytes()
    cut = sum(len(line) for line in body.splitlines(True)[:5]) + 10
    torn = tmp_path / "torn.tsv"
    torn.write_bytes(body[:cut])  # ten bytes into the sixth line
    assert _fit(catalog4_file, data_csv, torn, 1) == 0
    assert torn.read_bytes() == body


def test_fit_malformed_results_line_exits_2(tmp_path, data_csv,
                                            catalog4_file, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("bad line\n")
    assert _fit(catalog4_file, data_csv, bad, 1) == 2
    assert f"{bad}:1" in capsys.readouterr().err
    assert bad.read_text() == "bad line\n"


@pytest.mark.parametrize("record", ["garbage",
                                    "1\t2\t3\t4\tnan-ish\tx\t5\t"],
                         ids=["field_count", "non_numeric"])
@pytest.mark.parametrize("command", ["ecdf", "dups"])
def test_analyze_malformed_runlog_exits_2(tmp_path, capsys, command, record):
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n" + record + "\n")
    out = str(tmp_path / "out.tsv")
    if command == "ecdf":
        argv = ["analyze", "ecdf", "--logs", str(log), "--thresholds", "0.1",
                "--out", out]
    else:
        argv = ["analyze", "dups", "--log", str(log), "--out", out]
    assert main(argv) == 2
    assert f"{log}:2" in capsys.readouterr().err


@pytest.mark.parametrize("header", [None, "#eqsat=iters=1,budget=600",
                                    "#rules=table-eqsat-v0", "no_headers"])
def test_analyze_dups_checks_catalog_definition(tmp_path, data_csv,
                                                catalog3_file, results3_file,
                                                capsys, header):
    """Every command that reads a catalog refuses one built under another
    definition of unique (an older file) or one without definition
    headers: exit 2, naming the header, with nothing written."""
    lines = open(catalog3_file).read().splitlines(keepends=True)
    if header == "no_headers":
        lines = [l for l in lines if not l.startswith("#") or "count=" in l]
    elif header is not None:
        key = header.split("=", 1)[0] + "="
        lines = [header + "\n" if l.startswith(key) else l for l in lines]
    catalog = tmp_path / "c3.tsv"
    catalog.write_text("".join(lines))
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n0\t1\t7\t8\t1.0\tx + p1\t3\t0.5\n")
    named = {None: None, "no_headers": ": no #grammar header",
             "#eqsat=iters=1,budget=600": ":3: header "
             f"#eqsat=iters=1,budget=600 differs from {EqSatConfig().key()}",
             "#rules=table-eqsat-v0": ":2: header #rules=table-eqsat-v0 "
             f"differs from {RULESET_ID}"}[header]
    commands = {
        "fit": ["fit", "--data", data_csv, "--restarts", "1",
                "--workers", "1", "--out"],
        "rs": ["rs", "--data", data_csv, "--results", results3_file,
               "--log-dir"],
        "analyze dist": ["analyze", "dist", "--results", results3_file,
                         "--out"],
        "analyze dups": ["analyze", "dups", "--log", str(log), "--out"],
    }
    for name, argv in commands.items():
        out = tmp_path / name.replace(" ", "_")
        code = main(argv + [str(out), "--catalog", str(catalog)])
        err = capsys.readouterr().err
        assert code == (0 if named is None else 2), (name, err)
        assert out.exists() == (named is None), name
        if named is not None:
            assert err.startswith(f"error: {catalog}{named}"), (name, err)
            assert err.count(str(catalog)) == 1, (name, err)


@pytest.mark.parametrize("command", ["fit", "rs", "simplify"])
def test_second_variable_exits_2(tmp_path, data_csv, catalog3_file, capsys,
                                 command):
    """The text syntax has one variable, x: a catalog entry x2 (with its
    own hash, length and parameter count) is refused on read, by line, and
    so is x2 in an expression given on the command line."""
    if command == "simplify":
        assert main(["simplify", "--expr", "x2 - x2 + x7"]) == 2
        assert "unknown symbol 'x2'" in capsys.readouterr().err
        return
    good = read_catalog(catalog3_file)
    bad = tmp_path / "x2.tsv"
    entry = CanonicalForm(ex.text_hash("x2"), 1, 0, "x2")
    write_catalog(Catalog(3, good.entries[:2] + [entry]), str(bad))
    out = tmp_path / "out"
    argv = {"fit": ["fit", "--out", str(out), "--workers", "1"],
            "rs": ["rs", "--log-dir", str(out)]}[command]
    assert main(argv + ["--catalog", str(bad), "--data", data_csv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:7: malformed catalog entry ")
    assert "unknown symbol 'x2'" in err
    assert not out.exists()


# (reader, command): the command's arguments, with BAD for the rejected file
_READER_COMMANDS = {
    ("catalog", "fit"): ["fit", "--catalog", "BAD", "--data", "DATA",
                         "--out", "OUT", "--workers", "1"],
    ("catalog", "rs"): ["rs", "--catalog", "BAD", "--data", "DATA",
                        "--log-dir", "OUT"],
    ("catalog", "analyze dups"): ["analyze", "dups", "--log", "LOG",
                                  "--catalog", "BAD", "--out", "OUT"],
    ("catalog", "analyze dist"): ["analyze", "dist", "--results", "RESULTS",
                                  "--catalog", "BAD", "--out", "OUT"],
    ("dataset", "fit"): ["fit", "--catalog", "CATALOG", "--data", "BAD",
                         "--out", "OUT", "--workers", "1"],
    ("results", "analyze dist"): ["analyze", "dist", "--results", "BAD",
                                  "--out", "OUT"],
    ("results", "rs"): ["rs", "--catalog", "CATALOG", "--data", "DATA",
                        "--results", "BAD", "--log-dir", "OUT"],
    ("run log", "analyze dups"): ["analyze", "dups", "--log", "BAD",
                                  "--out", "OUT"],
    ("gp config", "gp"): ["gp", "--data", "DATA", "--config", "BAD",
                          "--log-dir", "OUT", "--workers", "1"],
    ("baselines", "analyze dist"): ["analyze", "dist", "--results", "RESULTS",
                                    "--baselines", "BAD", "--data", "DATA",
                                    "--out", "OUT"],
}


@pytest.mark.parametrize("fault", ["malformed", "not_utf8", "missing",
                                   "directory"])
@pytest.mark.parametrize("reader, command", list(_READER_COMMANDS),
                         ids=[f"{r}-{c}".replace(" ", "_")
                              for r, c in _READER_COMMANDS])
def test_rejected_input_file_is_named_once(tmp_path, data_csv, catalog3_file,
                                           results3_file, capsys, reader,
                                           command, fault):
    """Every reader a command reaches rejects a malformed file, one that
    is not UTF-8, a missing path and a directory by exit 2, writing
    nothing, with a message that starts with the file's path (and line)
    and names the file only there."""
    bad = tmp_path / "bad.txt"
    if fault == "malformed":
        bad.write_text("# a comment\nx,y\ngarbage\n")
        where = rf"error: {re.escape(str(bad))}:\d+: "
    elif fault == "not_utf8":
        bad.write_bytes(b"# a comment\ngarbage \xff\n")
        where = rf"error: {re.escape(str(bad))}:2: not UTF-8 text"
    elif fault == "missing":
        where = rf"error: {re.escape(str(bad))}: No such file or directory$"
    else:
        bad.mkdir()
        where = rf"error: {re.escape(str(bad))}: Is a directory$"
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n0\t1\t7\t8\t1.0\tx + p1\t3\t0.5\n")
    out = tmp_path / "out"
    names = {"BAD": bad, "DATA": data_csv, "CATALOG": catalog3_file,
             "RESULTS": results3_file, "LOG": log, "OUT": out}
    argv = [str(names.get(a, a)) for a in _READER_COMMANDS[reader, command]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.match(where, err), err
    assert err.count(str(bad)) == 1, err
    assert not out.exists()


def test_analyze_dups_huge_parameter(tmp_path):
    log = tmp_path / "huge.log"
    log.write_text("#seed=1\n"
                   "0\t1\t7\t8\t1.0\tx + p1\t3\t1e300\n"
                   "0\t2\t7\t8\t1.0\tx + p1\t3\t0.5\n")
    out = tmp_path / "d.tsv"
    assert main(["analyze", "dups", "--log", str(log), "--out",
                 str(out)]) == 0
    assert out.read_text().startswith("gen")


def test_ecdf_fevals_axis_needs_counters(tmp_path, capsys):
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n0\t1\t5\t5\t0.5\tx\t0\t\n")
    out = tmp_path / "out.tsv"
    assert main(["analyze", "ecdf", "--logs", str(log), "--thresholds",
                 "0.1", "--axis", "fevals", "--out", str(out)]) == 2
    assert "function-evaluation counters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, work", [("enumerate", "build_catalog"),
                                           ("fit", "fit_catalog")])
def test_missing_output_directory_exits_2_before_work(
        tmp_path, data_csv, catalog3_file, capsys, monkeypatch, command,
        work):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    monkeypatch.setattr(f"esrlab.cli.{work}", no_work)
    out = str(tmp_path / "missing" / "out.tsv")
    argv = {"enumerate": ["enumerate", "--max-length", "3", "--out", out],
            "fit": ["fit", "--catalog", catalog3_file, "--data", data_csv,
                    "--out", out, "--workers", "1"]}[command]
    assert main(argv) == 2
    assert "does not exist" in capsys.readouterr().err


_OUT_COMMANDS = {
    "enumerate": ["enumerate", "--max-length", "3"],
    "fit": ["fit", "--catalog", "CATALOG", "--data", "DATA", "--workers",
            "1"],
    "analyze ecdf": ["analyze", "ecdf", "--logs", "LOG", "--thresholds",
                     "0.1"],
    "analyze dups": ["analyze", "dups", "--log", "LOG", "--catalog",
                     "CATALOG"],
    "analyze dist": ["analyze", "dist", "--results", "RESULTS", "--catalog",
                     "CATALOG"],
}


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_out_directory_exits_2_before_work(tmp_path, data_csv, catalog3_file,
                                           results3_file, capsys, command):
    """An --out that is an existing directory is refused by the flag's own
    message, not by the first write into it, and no DIR.tmp is left."""
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n0\t1\t7\t8\t1.0\tx + p1\t3\t0.5\n")
    out = tmp_path / "out"
    out.mkdir()
    names = {"DATA": data_csv, "CATALOG": catalog3_file,
             "RESULTS": results3_file, "LOG": log}
    argv = [str(names.get(a, a)) for a in _OUT_COMMANDS[command]]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: is a directory\n"
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out",
                                                          "run_000.log"]


@pytest.mark.parametrize("command", ["gp", "rs"])
def test_log_dir_file_exits_2_before_input_is_read(tmp_path, capsys,
                                                   monkeypatch, command):
    """A --log-dir that names an existing file is refused by the flag's own
    message before any input is read, and the file is left as it was."""
    def no_read(path):
        raise AssertionError("read an input before checking --log-dir")

    monkeypatch.setattr("esrlab.cli.load_csv", no_read)
    monkeypatch.setattr("esrlab.cli.read_catalog", no_read)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    argv = {"gp": ["gp", "--config", "CONFIG"],
            "rs": ["rs", "--catalog", "CATALOG"]}[command]
    assert main(argv + ["--data", "DATA", "--log-dir", str(afile)]) == 2
    assert capsys.readouterr().err == \
        f"error: --log-dir {afile}: not a directory\n"
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_unwritable_ecdf_output_exits_2(tmp_path, capsys):
    log = tmp_path / "run_000.log"
    log.write_text("#seed=1\n0\t1\t5\t5\t0.5\tx\t0\t\n")
    out = tmp_path / "missing" / "out.tsv"
    assert main(["analyze", "ecdf", "--logs", str(log), "--thresholds",
                 "0.1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("argv, setting, names", [
    (["fit", "--restarts", "0"], None, "--restarts"),
    (["enumerate", "--max-length", "20"], None, "--max-length"),
    (["gp"], "max_length = 8\npop_size = abc\n", "gp.toml:2"),
    (["gp"], "pop_size = 0\n", "gp.toml:1"),
    (["gp"], "optim_iterations = 0\n", "gp.toml:1: optim_iterations"),
    (["gp"], "optim_iterations = -5\n", "gp.toml:1: optim_iterations"),
    (["gp"], "generations = -1\n", "gp.toml:1: generations"),
    (["gp"], "min_depth = 0\n", "gp.toml:1: min_depth"),
    (["gp"], "min_depth = 9\nmax_depth = 4\n",
     "min_depth must be <= max_depth"),
    (["fit"], "ESRLAB_WORKERS=abc", "ESRLAB_WORKERS"),
    (["analyze", "ecdf", "--thresholds", "abc"], None, "--thresholds"),
    (["gp", "--runs", "0"], None, "--runs"),
    (["rs", "--runs", "0"], None, "--runs"),
    (["gp", "--seed", "-1"], None, "--seed"),
    (["rs", "--seed", "-1"], None, "--seed"),
    (["gp"], "max_length = 2\n", "gp.toml: no finite-fitness individual"),
    (["analyze", "dist", "--top", "-1"], None, "--top"),
    (["fit", "--workers", "0"], None, "--workers must be an integer >= 1"),
    (["gp", "--workers", "-3"], None, "--workers must be an integer >= 1"),
    (["fit"], "ESRLAB_WORKERS=0", "ESRLAB_WORKERS must be an integer >= 1"),
], ids=["fit_restarts", "max_length",
        "gp_not_a_number", "gp_out_of_range", "gp_optim_iterations_0",
        "gp_optim_iterations_negative", "gp_generations", "gp_min_depth",
        "gp_depth_pair", "workers_env", "thresholds", "gp_runs", "rs_runs",
        "gp_seed", "rs_seed", "gp_init", "dist_top", "fit_workers_0",
        "gp_workers_negative", "workers_env_0"])
def test_configuration_errors_exit_2(tmp_path, data_csv, catalog3_file,
                                     capsys, monkeypatch, argv, setting,
                                     names):
    """``setting`` is the GP config file's text, or a NAME=value to put in
    the environment."""
    out = str(tmp_path / "out.tsv")
    extra = {"fit": ["--catalog", catalog3_file, "--data", data_csv,
                     "--out", out, "--workers", "1"],
             "enumerate": ["--out", out],
             "gp": ["--data", data_csv, "--config", str(tmp_path / "gp.toml"),
                    "--log-dir", str(tmp_path / "logs"), "--workers", "1"],
             "rs": ["--catalog", catalog3_file, "--data", data_csv,
                    "--log-dir", str(tmp_path / "logs")],
             "simplify": [],
             "analyze ecdf": ["--logs", str(tmp_path / "run_*.log"),
                              "--out", out],
             "analyze dist": ["--results", str(tmp_path / "results.tsv"),
                              "--out", out]}[
        " ".join(argv[:2]) if argv[0] == "analyze" else argv[0]]
    if "--workers" in argv:
        extra = extra[:-2]   # the case's own --workers
    if setting is not None and setting.startswith("ESRLAB_"):
        monkeypatch.setenv(*setting.split("=", 1))
        extra = extra[:-2]   # no --workers, so the variable is read
    elif setting is not None:
        (tmp_path / "gp.toml").write_text(setting)
    assert main(argv + extra) == 2
    assert names in capsys.readouterr().err
    assert not os.path.exists(out)


def _descendants(pid: int) -> set:
    """The processes ``pid`` started and their own, from /proc."""
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    parents[int(name)] = int(f.read().rsplit(")", 1)[1]
                                             .split()[1])
            except (OSError, IndexError, ValueError):
                pass   # gone meanwhile
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, pp in parents.items() if pp in frontier}
        found |= frontier
    return found


def _running(pid: int) -> bool:
    """True until ``pid`` has exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("command", ["fit", "gp", "gp_helper"])
def test_pool_workers_exit_with_a_killed_parent(tmp_path, catalog4_file,
                                                command):
    """An ``esrlab`` process killed while its pool works leaves no worker
    running: each worker ends once its parent has gone.  So does the
    helper of a single GP run."""
    import signal
    import subprocess
    import sys
    import time

    data = tmp_path / "big.csv"
    save_csv(synthetic_dataset(n=20_000), str(data))   # slow fits
    cfg = tmp_path / "gp.toml"
    cfg.write_text("max_length = 10\n")   # the 250-generation default
    args = {"fit": ["fit", "--catalog", catalog4_file, "--data", str(data),
                    "--out", str(tmp_path / "fit.tsv"), "--workers", "2"],
            "gp": ["gp", "--data", str(data), "--config", str(cfg),
                   "--runs", "4", "--log-dir", str(tmp_path / "logs"),
                   "--workers", "2"],
            "gp_helper": ["gp", "--data", str(data), "--config", str(cfg),
                          "--runs", "1", "--log-dir", str(tmp_path / "logs"),
                          "--workers", "2"]}[command]
    busy = 1 if command == "gp_helper" else 2
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = ("import sys\nfrom esrlab.cli import main\n"
           "sys.exit(main(sys.argv[1:]))")
    cli = subprocess.Popen([sys.executable, "-c", run, *args], env=env,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    workers: set = set()
    try:
        deadline = time.monotonic() + 60
        busy_since = None
        while busy_since is None or time.monotonic() < busy_since + 1.0:
            assert cli.poll() is None and time.monotonic() < deadline
            workers |= _descendants(cli.pid)
            if busy_since is None and len(workers) >= busy:
                busy_since = time.monotonic()
            time.sleep(0.05)
        cli.kill()
        assert cli.wait(timeout=10) == -signal.SIGKILL
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [p for p in workers if _running(p)]
    finally:
        cli.kill()
        for p in workers:
            if _running(p):
                os.kill(p, signal.SIGKILL)
