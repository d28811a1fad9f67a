"""Command-line interface.

Subcommands: enumerate, fit, gp, rs, simplify, analyze (ecdf | dups | dist),
rules.  Exit codes: 0 success, 1 usage error, 2 data or configuration error.
All randomness flows from --seed; --workers (or ESRLAB_WORKERS) gates the
process pools used for catalog fitting and independent runs.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import expr as ex
from ._atomic import atomic_write
from .analysis import (duplicate_stats, ecdf, fitness_distribution,
                       write_distribution_tsv, write_dupstats_tsv,
                       write_ecdf_tsv)
from .dataset import Dataset, load_csv
from .egraph import EGraphCapacityError, dump_rules
from .enumeration import build_catalog, read_catalog, write_catalog
from .fitting import ESR_FIT, ResultsFileError, fit_catalog, read_results
from .gp import CONFIG_KEYS, GpConfig, GpInitError, gp_preset, run_gp
from .objectives import MnrParams, mnr_loglik, mse
from .random_search import run_rs
from .runlog import read_runlog, write_runlog
from .simplify import canonicalize

__all__ = ["main"]


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("ESRLAB_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DataError(f"ESRLAB_WORKERS must be an integer, got {env!r}")
    return os.cpu_count() or 1


_READERS = {"dataset": load_csv, "catalog": read_catalog,
            "results": read_results, "run log": read_runlog}


def _load(what: str, path: str):
    """Read a ``what`` file; a file it rejects is a DataError."""
    try:
        return _READERS[what](path)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot load {what} {path}: {err}")


def _check_out_dir(path: str) -> None:
    """Refuse an output file whose directory is missing before any work."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise DataError(f"--out {path}: directory {folder} does not exist")


def _check_objective(objective: str, data: Dataset) -> None:
    if objective == "mnr" and not data.has_uncertainties:
        raise DataError("mnr objective requires sigma_x,sigma_y columns")


def _check_run_args(args) -> None:
    if args.runs < 1:
        raise DataError(f"--runs must be >= 1, got {args.runs}")
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")


# -- gp config files ------------------------------------------------------------

def parse_gp_config(path: str) -> GpConfig:
    """Simple key=value / TOML-style config with Table-style names."""
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line or line.startswith("["):
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected key = value")
                key, _, raw = line.partition("=")
                key = key.strip().lower()
                raw = raw.strip().strip('"').strip("'")
                if key not in CONFIG_KEYS:
                    raise DataError(f"{path}:{lineno}: unknown key {key!r}")
                field, conv = CONFIG_KEYS[key]
                try:
                    values[key] = conv(raw)
                    # check the value's own bound; the depth pair is
                    # checked once both are read, in either order
                    GpConfig(**{"min_depth": 1, "max_depth": sys.maxsize,
                                field: values[key]})
                except ValueError as err:
                    raise DataError(f"{path}:{lineno}: {key}: {err}")
    except OSError as err:
        raise DataError(f"cannot read config {path}: {err}")
    kwargs = {CONFIG_KEYS[key][0]: val for key, val in values.items()}
    try:
        return replace(gp_preset(values.get("max_length", 10)), **kwargs)
    except ValueError as err:
        raise DataError(f"{path}: {err}")


def write_gp_config(cfg: GpConfig, path: str) -> None:
    with atomic_write(path) as f:
        for key, value in cfg.as_dict().items():
            f.write(f"{key} = {value}\n")


# -- subcommands ------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    _check_out_dir(args.out)
    try:
        cat = build_catalog(args.max_length,
                            progress=_progress("enumerate") if args.verbose
                            else None)
    except ValueError as err:
        raise DataError(f"--max-length {args.max_length}: {err}")
    write_catalog(cat, args.out)
    print(f"{len(cat)} unique expressions -> {args.out}")
    return 0


def _cmd_fit(args) -> int:
    _check_out_dir(args.out)
    catalog = _load("catalog", args.catalog)
    data = _load("dataset", args.data)
    _check_objective(args.objective, data)
    try:
        config = ESR_FIT if args.restarts is None else \
            replace(ESR_FIT, restarts=args.restarts)
    except ValueError as err:
        raise DataError(f"--restarts {args.restarts}: {err}")
    try:
        results = fit_catalog(catalog, data, args.objective, config,
                              args.seed, args.out,
                              progress=_progress("fit") if args.verbose
                              else None,
                              workers=_workers(args))
    except ResultsFileError as err:
        raise DataError(f"cannot resume results: {err}")
    best = min((r.objective for r in results.values()
                if math.isfinite(r.objective)), default=math.inf)
    print(f"fitted {len(results)} entries, best objective {best!r} "
          f"-> {args.out}")
    return 0


def _cmd_gp(args) -> int:
    _check_run_args(args)
    data = _load("dataset", args.data)
    cfg = parse_gp_config(args.config)
    _check_objective(cfg.objective, data)
    os.makedirs(args.log_dir, exist_ok=True)
    workers = min(_workers(args), args.runs)
    seeds = [[args.seed, r] for r in range(args.runs)]
    try:
        if workers > 1:
            with ProcessPoolExecutor(workers) as pool:
                logs = list(pool.map(_gp_one,
                                     [(cfg, data, s) for s in seeds]))
        else:
            logs = [_gp_one((cfg, data, s)) for s in seeds]
    except GpInitError as err:
        raise DataError(f"config {args.config}: {err}")
    # the echo goes in with the logs, so a failed run leaves none behind
    write_gp_config(cfg, os.path.join(args.log_dir, "config_echo.txt"))
    for r, log in enumerate(logs):
        write_runlog(log, os.path.join(args.log_dir, f"run_{r:03d}.log"))
    best = min(log.best_fitness() for log in logs)
    print(f"{args.runs} runs -> {args.log_dir}, best fitness {best!r}")
    return 0


def _gp_one(payload):
    import numpy as np
    cfg, data, seed = payload
    root = int(np.random.SeedSequence(seed).generate_state(1)[0])
    return run_gp(cfg, data, root)


def _cmd_rs(args) -> int:
    _check_run_args(args)
    catalog = _load("catalog", args.catalog)
    data = _load("dataset", args.data)
    _check_objective(args.objective, data)
    results = _load("results", args.results) if args.results else None
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
        e = ex.parse(args.expr)
    except ex.ParseError as err:
        raise DataError(str(err))
    cf = canonicalize(e)
    print(f"canonical: {cf.text}")
    print(f"hash: {cf.semantic_hash}")
    print(f"params: {cf.n_params}")
    print(f"nodes: {cf.n_nodes}")
    return 0


def _cmd_rules(args) -> int:
    sys.stdout.write(dump_rules())
    return 0


def _cmd_analyze_ecdf(args) -> int:
    try:
        thresholds = [float(t) for t in args.thresholds.split(",")]
    except ValueError:
        raise DataError(f"--thresholds must be comma-separated numbers, "
                        f"got {args.thresholds!r}")
    paths = sorted(glob.glob(args.logs))
    if not paths:
        raise DataError(f"no logs match {args.logs!r}")
    logs = [_load("run log", p) for p in paths]
    try:
        curves = ecdf(logs, thresholds, args.axis)
    except ValueError as err:   # logs without function-evaluation counts
        raise DataError(f"--axis {args.axis}: {err}")
    write_ecdf_tsv(curves, args.out)
    print(f"{len(curves)} curves over {len(logs)} runs -> {args.out}")
    return 0


def _cmd_analyze_dups(args) -> int:
    log = _load("run log", args.log)
    catalog = _load("catalog", args.catalog) if args.catalog else None
    try:
        stats = duplicate_stats(log, catalog)
    except ValueError as err:   # a record whose expression does not parse
        raise DataError(f"run log {args.log}: {err}")
    write_dupstats_tsv(stats, args.out)
    print(f"dup stats over {len(log.records)} records -> {args.out}")
    return 0


def _baseline_values(path: str, data: Dataset, objective: str) -> list:
    out = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
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
                    raise DataError(f"{path}:{lineno}: expected "
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
                        p = MnrParams(tuple(theta[:k]), theta[k + 1],
                                      theta[k + 2], theta[k])
                        value = -mnr_loglik(expr, p, data)
                except ValueError as err:
                    raise DataError(f"{path}:{lineno}: {err}")
                out.append((name, value))
    except OSError as err:
        raise DataError(f"cannot read baselines {path}: {err}")
    return out


def _cmd_analyze_dist(args) -> int:
    if args.top < 0:
        raise DataError(f"--top must be >= 0, got {args.top}")
    results = _load("results", args.results)
    catalog = _load("catalog", args.catalog) if args.catalog else None
    baselines = None
    if args.baselines:
        if not args.data:
            raise DataError("--baselines requires --data")
        data = _load("dataset", args.data)
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
    except DataError as err:
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
