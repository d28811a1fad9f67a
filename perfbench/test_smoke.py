"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
traced and untraced, on every workload, that each correctness gate trips on
a deliberately corrupted output, and that the host-speed probe's slices are
taken out of the timings.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import _boot
import hostspeed
import workloads as wl

RUN = os.path.join(_boot.ROOT, "perfbench", "run.py")


def spec():
    with open(os.path.join(_boot.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_tiny(workload, trace, cwd=_boot.ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    done = run_tiny(workload, trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    want = spec()["per_layer" if trace else "end_to_end"]
    got = last["metrics"]
    assert sorted(got) == sorted(m["name"] for m in want)
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float))


def test_spec_names_the_workloads():
    assert [w["name"] for w in spec()["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(_boot.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(_boot.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_l6", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def one_pass(cls, tmp_path, seed=3):
    w = cls(seed, str(tmp_path), wl.TINY)
    w.setup()
    p = w.run()
    assert w.check([p]) == []
    return w, p


def test_catalog_gate_trips_on_a_dropped_line(tmp_path):
    w, p = one_pass(wl.EnumerateL7, tmp_path)
    with open(p.out["path"], encoding="utf-8") as f:
        lines = f.readlines()
    del lines[7]
    with open(p.out["path"], "w", encoding="utf-8") as f:
        f.writelines(lines)
    assert w.check([p])


def test_committed_catalog_gate_trips_on_a_dropped_line(tmp_path):
    src = os.path.join(wl.DATA, "catalog_l6.tsv")
    pin = wl.read_pins()["catalog_l6"]
    assert wl.catalog_problems(src, pin) == []
    with open(src, encoding="utf-8") as f:
        lines = f.readlines()
    path = tmp_path / "catalog.tsv"
    path.write_text("".join(lines[:10] + lines[11:]), encoding="utf-8")
    assert wl.catalog_problems(str(path), pin)


def _perturb_first_fit(p, factor):
    fits = p.out["fits"]["mse"]
    h, (text, res) = next((h, v) for h, v in fits.items() if v[1].theta)
    fits[h] = (text, replace(res, objective=res.objective * factor))


def test_fit_gates_trip_on_a_perturbed_objective(tmp_path):
    w, p = one_pass(wl.FitL6, tmp_path)
    _perturb_first_fit(p, 1.0 + 1e-6)   # no longer its own re-evaluation
    assert any("re-evaluates" in m for m in w.check([p]))
    w, p = one_pass(wl.FitL6, tmp_path)
    _perturb_first_fit(p, 1.1)          # worse than its reference
    assert any("fit_match_frac" in m for m in w.check([p]))


def test_gp_gates_trip_on_corrupted_logs(tmp_path):
    w, p = one_pass(wl.GpL10, tmp_path)
    log = w.sampled_logs[0]
    i = next(i for i, r in enumerate(log.records)
             if r.theta and math.isfinite(r.fitness))
    log.records[i] = replace(log.records[i],
                             fitness=log.records[i].fitness * 1.5)
    w.sizes = replace(w.sizes, record_sample=10**6)   # sample every record
    assert any("re-evaluates" in m for m in w.check([p]))

    w, p = one_pass(wl.GpL10, tmp_path)
    q = replace(p, out=dict(p.out, digests=[d[::-1] for d in p.out["digests"]]))
    assert any("byte-identical" in m for m in w.check([p, q]))


def test_tail_keeps_ten_samples_beyond_it():
    value, pct, n = wl.tail(range(100))
    assert (value, n) == (89, 100) and pct == 90.0
    assert wl.tail([5.0, 1.0]) == (5.0, 100.0, 2)


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_slices_are_left_out_of_latencies():
    p = wl.Pass()
    with hostspeed.Probe() as probe:
        t0 = time.perf_counter()
        p.call("spin", "1 s", _spin, 1.0)
        call_s = time.perf_counter() - t0
    inside = probe.slices[1:-1]    # the timer's; the first and last are not
    assert len(inside) >= 3 and hostspeed.sliced_s() == 0.0
    assert p.latencies["spin"][0] == pytest.approx(call_s - sum(inside),
                                                   abs=1e-3)
    assert probe.work_s == pytest.approx(
        probe.elapsed_s - sum(probe.slices), abs=1e-9)
    assert probe.scaled(probe.work_s) * probe.slowdown == pytest.approx(
        probe.work_s)
