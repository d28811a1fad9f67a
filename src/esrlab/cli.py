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

from . import expr as ex
from .analysis import (duplicate_stats, ecdf, fitness_distribution,
                       write_distribution_tsv, write_dupstats_tsv,
                       write_ecdf_tsv)
from .dataset import Dataset, load_csv
from .egraph import EqSatConfig, dump_rules
from .enumeration import build_catalog, read_catalog, write_catalog
from .fitting import ESR_FIT, GP_FIT, FitConfig, fit_catalog, read_results
from .gp import GpConfig, gp_preset, run_gp
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
        return max(1, int(env))
    return os.cpu_count() or 1


def _load_dataset(path: str) -> Dataset:
    try:
        return load_csv(path)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot load dataset {path}: {err}")


def _load_catalog(path: str):
    try:
        return read_catalog(path)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot load catalog {path}: {err}")


def _eqsat(args) -> EqSatConfig:
    return EqSatConfig(max_iters=args.eqsat_iters,
                       node_budget=args.node_budget)


# -- gp config files ------------------------------------------------------------

_GP_KEYS = {
    "max_length": ("max_len", int),
    "pop_size": ("pop_size", int),
    "generations": ("generations", int),
    "min_depth": ("min_depth", int),
    "max_depth": ("max_depth", int),
    "tournament_size": ("tournament_size", int),
    "cx_prob": ("p_cx", float),
    "mut_prob": ("p_mut", float),
    "objective": ("objective", str),
    "optim_iterations": (None, int),
}


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
                if key not in _GP_KEYS:
                    raise DataError(f"{path}:{lineno}: unknown key {key!r}")
                field, conv = _GP_KEYS[key]
                values[key] = conv(raw)
    except OSError as err:
        raise DataError(f"cannot read config {path}: {err}")
    cfg = gp_preset(values.get("max_length", 10))
    kwargs = {}
    for key, val in values.items():
        field, _ = _GP_KEYS[key]
        if field is not None:
            kwargs[field] = val
    if "optim_iterations" in values:
        kwargs["fit_config"] = FitConfig(
            restarts=1, max_iters=values["optim_iterations"])
    from dataclasses import replace
    return replace(cfg, **kwargs)


def write_gp_config(cfg: GpConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, value in cfg.as_dict().items():
            f.write(f"{key} = {value}\n")


# -- subcommands ------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    cat = build_catalog(args.max_length, _eqsat(args),
                        prune_partials=not args.no_prune,
                        progress=_progress("enumerate") if args.verbose else None)
    write_catalog(cat, args.out)
    print(f"{len(cat)} unique expressions -> {args.out}")
    return 0


def _cmd_fit(args) -> int:
    catalog = _load_catalog(args.catalog)
    data = _load_dataset(args.data)
    preset = ESR_FIT if args.preset == "esr" else GP_FIT
    config = preset if args.restarts is None else \
        FitConfig(restarts=args.restarts, max_iters=preset.max_iters,
                  restart_patience=preset.restart_patience)
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
    data = _load_dataset(args.data)
    cfg = parse_gp_config(args.config)
    if cfg.objective == "mnr" and not data.has_uncertainties:
        raise DataError("mnr objective requires sigma_x,sigma_y columns")
    os.makedirs(args.log_dir, exist_ok=True)
    write_gp_config(cfg, os.path.join(args.log_dir, "config_echo.txt"))
    workers = _workers(args)
    seeds = [[args.seed, r] for r in range(args.runs)]
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
            logs = list(pool.map(_gp_one, [(cfg, data, s) for s in seeds]))
    else:
        logs = [_gp_one((cfg, data, s)) for s in seeds]
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
    catalog = _load_catalog(args.catalog)
    data = _load_dataset(args.data)
    if args.objective == "mnr" and not data.has_uncertainties:
        raise DataError("mnr objective requires sigma_x,sigma_y columns")
    results = None
    if args.results:
        results = read_results(args.results)
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
    cf = canonicalize(e, _eqsat(args))
    print(f"canonical: {cf.text}")
    print(f"hash: {cf.semantic_hash}")
    print(f"params: {cf.n_params}")
    print(f"nodes: {cf.n_nodes}")
    return 0


def _cmd_rules(args) -> int:
    sys.stdout.write(dump_rules())
    return 0


def _cmd_analyze_ecdf(args) -> int:
    paths = sorted(glob.glob(args.logs))
    if not paths:
        raise DataError(f"no logs match {args.logs!r}")
    logs = [read_runlog(p) for p in paths]
    thresholds = [float(t) for t in args.thresholds.split(",")]
    curves = ecdf(logs, thresholds, args.axis)
    write_ecdf_tsv(curves, args.out)
    print(f"{len(curves)} curves over {len(logs)} runs -> {args.out}")
    return 0


def _cmd_analyze_dups(args) -> int:
    log = read_runlog(args.log)
    catalog = _load_catalog(args.catalog) if args.catalog else None
    stats = duplicate_stats(log, catalog)
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
                theta = [float(v) for v in theta_csv.split(",") if v]
                expr = ex.parse(text)
                if objective == "mse":
                    value = mse(expr, theta, data)
                else:
                    k = ex.param_count(expr)
                    if len(theta) != k + 3:
                        raise DataError(
                            f"{path}:{lineno}: mnr baseline needs theta plus "
                            "sigma_int,mu,omega")
                    p = MnrParams(tuple(theta[:k]), theta[k + 1],
                                  theta[k + 2], theta[k])
                    value = -mnr_loglik(expr, p, data)
                out.append((name, value))
    except OSError as err:
        raise DataError(f"cannot read baselines {path}: {err}")
    return out


def _cmd_analyze_dist(args) -> int:
    results = read_results(args.results)
    catalog = _load_catalog(args.catalog) if args.catalog else None
    baselines = None
    if args.baselines:
        if not args.data:
            raise DataError("--baselines requires --data")
        data = _load_dataset(args.data)
        baselines = _baseline_values(args.baselines, data, args.objective)
    dist = fitness_distribution(results, catalog, baselines, args.top)
    write_distribution_tsv(dist, args.out)
    print(f"distribution over {dist.n_total} results -> {args.out}")
    return 0


def _progress(tag):
    def report(done, total):
        print(f"[{tag}] {done}/{total}", file=sys.stderr)
    return report


def _add_eqsat_flags(p):
    p.add_argument("--eqsat-iters", type=int, default=EqSatConfig().max_iters)
    p.add_argument("--node-budget", type=int,
                   default=EqSatConfig().node_budget)


def build_parser() -> _Parser:
    p = _Parser(prog="esrlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("enumerate", help="build a unique-expression catalog")
    q.add_argument("--max-length", type=int, required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--no-prune", action="store_true")
    q.add_argument("--verbose", action="store_true")
    _add_eqsat_flags(q)
    q.set_defaults(func=_cmd_enumerate)

    q = sub.add_parser("fit", help="fit every catalog entry to a dataset")
    q.add_argument("--catalog", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--objective", choices=("mse", "mnr"), default="mse")
    q.add_argument("--restarts", type=int, default=None)
    q.add_argument("--preset", choices=("esr", "gp"), default="esr")
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
    _add_eqsat_flags(q)
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
