import os

import numpy as np
import pytest

from esrlab.cli import main, parse_gp_config, write_gp_config
from esrlab.dataset import save_csv, synthetic_dataset
from esrlab.enumeration import read_catalog, write_catalog
from esrlab.gp import GpConfig
from esrlab.runlog import read_runlog


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


def test_data_errors_exit_2(tmp_path, catalog3_file):
    assert main(["simplify", "--expr", "x + "]) == 2
    assert main(["fit", "--catalog", "/nonexistent", "--data", "/none",
                 "--out", str(tmp_path / "r.tsv")]) == 2
    assert main(["fit", "--catalog", catalog3_file, "--data", "/none",
                 "--out", str(tmp_path / "r.tsv")]) == 2


def test_enumerate_writes_catalog(catalog3_file):
    cat = read_catalog(catalog3_file)
    assert cat.max_len == 3
    assert len(cat) == 14
    assert cat.meta["rules"]


def test_simplify_prints_canonical(capsys):
    assert main(["simplify", "--expr", "x - x"]) == 0
    out = capsys.readouterr().out
    assert "canonical: 0.0" in out
    assert "hash:" in out
    assert main(["simplify", "--expr", "p1 + p2"]) == 0
    assert "canonical: p1" in capsys.readouterr().out


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


def test_config_echo_roundtrip(tmp_path):
    cfg = GpConfig(pop_size=50, generations=7, max_len=12, p_mut=0.3)
    path = tmp_path / "echo.txt"
    write_gp_config(cfg, str(path))
    back = parse_gp_config(str(path))
    assert back.pop_size == 50 and back.generations == 7
    assert back.max_len == 12 and back.p_mut == 0.3
    assert back.fit_config.max_iters == cfg.fit_config.max_iters
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
