"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit_l6 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads: enumerate_l7, fit_l6, gp_l10 (``all`` runs each in turn, in its
own process).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``
({name: {"value", "unit"}}): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it list every figure
by name and unit; the full result, with provenance and every failed
operation, goes to ``perfbench/out/``.  A run whose outputs fail a
correctness gate reports no numbers and exits with code 1.

An untraced run repeats whole passes of its workload until ``--seconds``
have passed (at least one) and reports the median pass.  Untraced passes and
set-ups run under the host-speed probe (``hostspeed.py``): ``wall_ref_s`` and
``setup_s`` are in seconds at the probe's reference speed, ``wall_s`` and
``setup_raw_s`` are as the clock read them.  A traced run makes one untraced
pass, then one pass with spans around every layer's public functions;
``trace_overhead_frac`` compares the two.
"""

import _boot  # first: puts src on sys.path, pins BLAS threads
import hostspeed

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

OUT = os.path.join(_boot.ROOT, "perfbench", "out")
NAMES = ("enumerate_l7", "fit_l6", "gp_l10")
SETUPS = 7  # set-ups per untraced run; setup_s is their median
SETUP_INTERVAL_S = 0.05  # probe interval in a set-up (under a second long)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny input sizes (the smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args, workdir):
    """Imports, dataset, catalog and references; timed as a whole, under
    the host-speed probe.  Returns (workload, set-up seconds at the
    reference speed, raw set-up seconds, set-up timings of layers)."""
    with hostspeed.Probe(SETUP_INTERVAL_S) as probe:
        import workloads
        sizes = workloads.TINY if args.tiny else workloads.FULL
        w = workloads.WORKLOADS[args.workload](args.seed, workdir, sizes)
        layers = w.setup()
    return w, probe.scaled(probe.work_s), probe.work_s, layers


def fresh_setups(args, n: int) -> list:
    """Set-up times (at the reference speed) of ``n`` fresh interpreters,
    one after the other."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(n):
        done = subprocess.run(cmd, cwd=_boot.ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def timed(w, tracer=None):
    """One pass: untraced under the host-speed probe, or traced without."""
    if tracer is not None:
        t0 = time.perf_counter()
        p = tracer.root(w.run)
        p.wall_s = time.perf_counter() - t0
        return p
    with hostspeed.Probe() as probe:
        p = w.run()
    p.wall_s, p.slowdown = probe.work_s, probe.slowdown
    return p


def _first_field(path: str, key: str):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git(*cmd):
    try:
        done = subprocess.run(("git",) + cmd, cwd=_boot.ROOT, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance() -> dict:
    import numpy
    import scipy
    commit = dirty = None
    if os.path.exists(os.path.join(_boot.ROOT, ".git")):
        commit = (_git("rev-parse", "HEAD") or "").strip() or None
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _first_field("/proc/cpuinfo", "model name"),
        "mem_total": _first_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _boot.BLAS_THREADS,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def run_workload(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, workdir) -> int:
    w, setup_s, setup_raw_s, layer_setup = setup(args, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        passes = [timed(w)]
        with tracing.Tracer() as tracer:
            traced = timed(w, tracer)
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(timed(w))
            if len(passes) == 1:
                # peak RSS through set-up and one pass: later passes
                # would make it depend on how many passes fit in the run
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [setup_s] + fresh_setups(args, SETUPS - 1)
    problems = w.check(passes + ([traced] if tracer else []))

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    figures = dict(w.extras(passes))
    figures["error_frac"] = (failed / attempted, "frac")
    wall_s = statistics.median(p.wall_s for p in passes)
    figures["wall_s"] = (wall_s, "s")
    figures["host_slowdown"] = (
        statistics.median(p.slowdown for p in passes), "ratio")
    figures["setup_raw_s"] = (setup_raw_s, "s")
    if tracer is None:
        reported = {"setup_s": (statistics.median(setups), "s"),
                    "wall_ref_s": (statistics.median(
                        p.wall_s / p.slowdown for p in passes), "s"),
                    "peak_rss_mb": (rss / 1024.0, "MB")}
    else:
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed"
                                      f"{args.seed}.npz"))
        reported = tracing.layer_metrics(tracer, traced.wall_s)
        reported.update({k: (v, "s") for k, v in layer_setup.items()})
        reported["trace_overhead_frac"] = (traced.wall_s / wall_s - 1.0,
                                           "frac")
        reported["wall_s"] = figures["wall_s"]
        reported["host_slowdown"] = figures["host_slowdown"]
        import workloads
        for name, unit in workloads.EXTRAS.items():
            reported[name] = figures.get(name, (0, unit))
    figures.update(reported)

    correct = not problems
    result = {
        "workload": args.workload, "why": w.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
        "pass_slowdown": [p.slowdown for p in passes],
        "op_seconds": [{op: sum(t) for op, t in p.latencies.items()}
                       for p in passes],
        "inputs": w.inputs(), "provenance": provenance(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": [f for p in passes for f in p.failures],
        "problems": problems,
        "figures": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(figures.items())},
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")

    for fail in result["failures"]:
        print(f"failed {fail['op']} on {fail['input']!r}: {fail['error']}")
    if not correct:
        for problem in problems:
            print(f"gate: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    for name, (value, unit) in sorted(figures.items()):
        print(f"{args.workload:<13} {name:<42} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=_boot.ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        last = json.loads(lines[-1]) if lines else {"correct": False}
        summary["correct"] &= done.returncode == 0 and last["correct"]
        summary["attempted"] += last.get("attempted", 0)
        summary["failed"] += last.get("failed", 0)
        for k, v in last.get("metrics", {}).items():
            summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
