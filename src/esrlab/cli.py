"""Command-line interface.

Subcommands: enumerate, fit, gp, rs, simplify, analyze (ecdf | dups | dist),
rules.  Exit codes: 0 success, 1 usage error, 2 data or configuration error.
All randomness flows from --seed; --workers (or ESRLAB_WORKERS, by default
the CPUs the process may run on) bounds the processes that build a catalog
(enumerate), fit one (fit) or make independent runs (gp, through
``gp.run_gps``, the one way to make many runs), and the output is the same
for every value.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from dataclasses import replace

from . import expr as ex
from ._files import InputError, atomic_write, read_lines
from .analysis import (duplicate_stats, ecdf, fitness_distribution,
                       write_distribution_tsv, write_dupstats_tsv,
                       write_ecdf_tsv)
from .dataset import Dataset, load_csv
from .egraph import EGraphCapacityError, dump_rules
from .enumeration import build_catalog, read_catalog, write_catalog
from .fitting import ESR_FIT, fit_catalog, read_results
from .gp import CONFIG_KEYS, GpConfig, GpInitError, gp_preset, run_gps
from .objectives import MnrParams, mnr_loglik, mse
from .random_search import run_rs
from .runlog import read_runlog, write_runlog
from .simplify import canonicalize, usable_cpus

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _workers(args) -> int:
    if args.workers is not None:
        name, value = "--workers", str(args.workers)
    else:
        name, value = "ESRLAB_WORKERS", os.environ.get("ESRLAB_WORKERS")
        if not value:
            return usable_cpus()
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")
    return workers


def _check_out_dir(path: str) -> None:
    """Refuse a directory as --out, or a missing parent, before any work."""
    if os.path.isdir(path):
        raise InputError(f"--out {path}: is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise InputError(f"--out {path}: directory {folder} does not exist")


def _check_objective(objective: str, data: Dataset) -> None:
    if objective == "mnr" and not data.has_uncertainties:
        raise InputError("mnr objective requires sigma_x,sigma_y columns")


def _check_run_args(args) -> None:
    if os.path.exists(args.log_dir) and not os.path.isdir(args.log_dir):
        raise InputError(f"--log-dir {args.log_dir}: not a directory")
    if args.runs < 1:
        raise InputError(f"--runs must be >= 1, got {args.runs}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")


# -- gp config files ------------------------------------------------------------

def parse_gp_config(path: str) -> GpConfig:
    """Simple key=value / TOML-style config with Table-style names."""
    values = {}
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        raw = raw.strip().strip('"').strip("'")
        if key not in CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        field, conv = CONFIG_KEYS[key]
        try:
            values[key] = conv(raw)
            # check the value's own bound; the depth pair is checked once
            # both are read, in either order
            GpConfig(**{"min_depth": 1, "max_depth": sys.maxsize,
                        field: values[key]})
        except ValueError as err:
            raise InputError(f"{path}:{lineno}: {key}: {err}") from None
    kwargs = {CONFIG_KEYS[key][0]: val for key, val in values.items()}
    try:
        return replace(gp_preset(values.get("max_length", 10)), **kwargs)
    except ValueError as err:
        raise InputError(f"{path}: {err}") from None


def write_gp_config(cfg: GpConfig, path: str) -> None:
    with atomic_write(path) as f:
        for key, value in cfg.as_dict().items():
            f.write(f"{key} = {value}\n")


# -- subcommands ------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    _check_out_dir(args.out)
    workers = _workers(args)
    try:
        cat = build_catalog(args.max_length,
                            progress=_progress("enumerate") if args.verbose
                            else None, workers=workers)
    except ValueError as err:
        raise InputError(f"--max-length {args.max_length}: {err}")
    write_catalog(cat, args.out)
    print(f"{len(cat)} unique expressions -> {args.out}")
    return 0


def _cmd_fit(args) -> int:
    _check_out_dir(args.out)
    catalog = read_catalog(args.catalog)
    data = load_csv(args.data)
    _check_objective(args.objective, data)
    try:
        config = ESR_FIT if args.restarts is None else \
            replace(ESR_FIT, restarts=args.restarts)
    except ValueError as err:
        raise InputError(f"--restarts {args.restarts}: {err}")
    results = fit_catalog(catalog, data, args.objective, config, args.seed,
                          args.out,
                          progress=_progress("fit") if args.verbose else None,
                          workers=_workers(args))
    best = min((r.objective for r in results.values()
                if math.isfinite(r.objective)), default=math.inf)
    print(f"fitted {len(results)} entries, best objective {best!r} "
          f"-> {args.out}")
    return 0


def _cmd_gp(args) -> int:
    import numpy as np
    _check_run_args(args)
    workers = _workers(args)
    data = load_csv(args.data)
    cfg = parse_gp_config(args.config)
    _check_objective(cfg.objective, data)
    os.makedirs(args.log_dir, exist_ok=True)
    seeds = [int(np.random.SeedSequence([args.seed, r]).generate_state(1)[0])
             for r in range(args.runs)]
    # each log waits as .tmp until every run is done, so that a failed run
    # leaves neither logs nor the echo
    logs, best = [], math.inf
    try:
        for r, log in enumerate(run_gps(cfg, data, seeds, workers)):
            path = os.path.join(args.log_dir, f"run_{r:03d}.log")
            write_runlog(log, path + ".tmp")
            logs.append(path)
            best = min(best, log.best_fitness())
    except BaseException as err:
        for path in logs:
            os.unlink(path + ".tmp")
        if isinstance(err, GpInitError):
            raise InputError(f"{args.config}: {err}") from None
        raise
    for path in logs:
        os.replace(path + ".tmp", path)
    write_gp_config(cfg, os.path.join(args.log_dir, "config_echo.txt"))
    print(f"{args.runs} runs -> {args.log_dir}, best fitness {best!r}")
    return 0


def _cmd_rs(args) -> int:
    _check_run_args(args)
    catalog = read_catalog(args.catalog)
    data = load_csv(args.data)
    _check_objective(args.objective, data)
    results = read_results(args.results) if args.results else None
    os.makedirs(args.log_dir, exist_ok=True)
    logs = run_rs(catalog, data, args.objective, ESR_FIT, args.runs,
                  args.seed, results,
                  progress=_progress("rs-fit") if args.verbose else None)
    for r, log in enumerate(logs):
        write_runlog(log, os.path.join(args.log_dir, f"rs_{r:03d}.log"))
    print(f"{args.runs} random-search runs -> {args.log_dir}")
    return 0


def _cmd_simplify(args) -> int:
    try:
        cf = canonicalize(ex.parse(args.expr))
    except ValueError as err:   # bad text, or a repeated parameter index
        raise InputError(f"--expr: {err}") from None
    print(f"canonical: {cf.text}")
    print(f"hash: {cf.semantic_hash}")
    print(f"params: {cf.n_params}")
    print(f"nodes: {cf.n_nodes}")
    return 0


def _cmd_rules(args) -> int:
    sys.stdout.write(dump_rules())
    return 0


def _cmd_analyze_ecdf(args) -> int:
    _check_out_dir(args.out)
    try:
        thresholds = [float(t) for t in args.thresholds.split(",")]
    except ValueError:
        raise InputError(f"--thresholds must be comma-separated numbers, "
                         f"got {args.thresholds!r}")
    paths = sorted(glob.glob(args.logs))
    if not paths:
        raise InputError(f"no logs match {args.logs!r}")
    logs = [read_runlog(p) for p in paths]
    try:
        curves = ecdf(logs, thresholds, args.axis)
    except ValueError as err:   # logs without function-evaluation counts
        raise InputError(f"--axis {args.axis}: {err}")
    write_ecdf_tsv(curves, args.out)
    print(f"{len(curves)} curves over {len(logs)} runs -> {args.out}")
    return 0


def _cmd_analyze_dups(args) -> int:
    _check_out_dir(args.out)
    log = read_runlog(args.log)
    catalog = read_catalog(args.catalog) if args.catalog else None
    try:
        stats = duplicate_stats(log, catalog)
    except ValueError as err:   # an unparsable record or a repeated index
        raise InputError(f"run log {args.log}: {err}")
    write_dupstats_tsv(stats, args.out)
    print(f"dup stats over {len(log.records)} records -> {args.out}")
    return 0


def _baseline_values(path: str, data: Dataset, objective: str) -> list:
    out = []
    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 3:
            name, text, theta_csv = parts
        elif len(parts) == 2:
            name, text = parts
            theta_csv = ""
        else:
            raise InputError(f"{path}:{lineno}: expected "
                             "name<TAB>expr[<TAB>theta]")
        try:
            theta = [float(v) for v in theta_csv.split(",") if v]
            expr = ex.parse(text)
            if objective == "mse":
                value = mse(expr, theta, data)
            else:
                k = ex.param_count(expr)
                if len(theta) != k + 3:
                    raise ValueError("mnr baseline needs theta plus "
                                     "sigma_int,mu,omega")
                p = MnrParams(tuple(theta[:k]), theta[k + 1], theta[k + 2],
                              theta[k])
                value = -mnr_loglik(expr, p, data)
        except ValueError as err:
            raise InputError(f"{path}:{lineno}: {err}") from None
        out.append((name, value))
    return out


def _cmd_analyze_dist(args) -> int:
    _check_out_dir(args.out)
    if args.top < 0:
        raise InputError(f"--top must be >= 0, got {args.top}")
    results = read_results(args.results)
    catalog = read_catalog(args.catalog) if args.catalog else None
    baselines = None
    if args.baselines:
        if not args.data:
            raise InputError("--baselines requires --data")
        data = load_csv(args.data)
        _check_objective(args.objective, data)
        baselines = _baseline_values(args.baselines, data, args.objective)
    dist = fitness_distribution(results, catalog, baselines, args.top)
    write_distribution_tsv(dist, args.out)
    print(f"distribution over {dist.n_total} results -> {args.out}")
    return 0


def _progress(tag):
    def report(done, total):
        print(f"[{tag}] {done}/{total}", file=sys.stderr)
    return report


def build_parser() -> _Parser:
    p = _Parser(prog="esrlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("enumerate", help="build a unique-expression catalog")
    q.add_argument("--max-length", type=int, required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--workers", type=int, default=None)
    q.add_argument("--verbose", action="store_true")
    q.set_defaults(func=_cmd_enumerate)

    q = sub.add_parser("fit", help="fit every catalog entry to a dataset")
    q.add_argument("--catalog", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--objective", choices=("mse", "mnr"), default="mse")
    q.add_argument("--restarts", type=int, default=None)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--workers", type=int, default=None)
    q.add_argument("--verbose", action="store_true")
    q.set_defaults(func=_cmd_fit)

    q = sub.add_parser("gp", help="run the GP engine")
    q.add_argument("--data", required=True)
    q.add_argument("--config", required=True)
    q.add_argument("--runs", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--log-dir", required=True)
    q.add_argument("--workers", type=int, default=None)
    q.set_defaults(func=_cmd_gp)

    q = sub.add_parser("rs", help="random search over a catalog")
    q.add_argument("--catalog", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--objective", choices=("mse", "mnr"), default="mse")
    q.add_argument("--runs", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--log-dir", required=True)
    q.add_argument("--results", default=None,
                   help="reuse a results file from `esrlab fit`")
    q.add_argument("--verbose", action="store_true")
    q.set_defaults(func=_cmd_rs)

    q = sub.add_parser("simplify", help="canonicalize one expression")
    q.add_argument("--expr", required=True)
    q.set_defaults(func=_cmd_simplify)

    q = sub.add_parser("rules", help="dump the rewrite rule set")
    q.set_defaults(func=_cmd_rules)

    q = sub.add_parser("analyze", help="analyses over logs and results")
    asub = q.add_subparsers(dest="analysis", required=True)

    a = asub.add_parser("ecdf")
    a.add_argument("--logs", required=True, help="glob of run logs")
    a.add_argument("--thresholds", required=True)
    a.add_argument("--axis", choices=("visited", "fevals"),
                   default="visited")
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_analyze_ecdf)

    a = asub.add_parser("dups")
    a.add_argument("--log", required=True)
    a.add_argument("--catalog", default=None)
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_analyze_dups)

    a = asub.add_parser("dist")
    a.add_argument("--results", required=True)
    a.add_argument("--catalog", default=None)
    a.add_argument("--baselines", default=None)
    a.add_argument("--data", default=None)
    a.add_argument("--objective", choices=("mse", "mnr"), default="mse")
    a.add_argument("--top", type=int, default=5)
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_analyze_dist)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EGraphCapacityError as err:
        print(f"error: expression too large to canonicalize: {err}",
              file=sys.stderr)
        return 2
    except OSError as err:  # an output file that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
