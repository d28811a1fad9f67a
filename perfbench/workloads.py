"""The benchmark's workloads: inputs made from the seed, one timed pass
through the library's public entry points, and the correctness gates.

Each workload is a closed loop with one caller; nothing here starts a
process pool.  Library functions are looked up on their modules at call
time (``fitting.fit``, not a name bound at import), so the traced run sees
them through its patches.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

import hostspeed
from esrlab import (analysis, enumeration, expr as ex, fitting, gp,
                    random_search, runlog)
from esrlab.dataset import bundled_synthetic_path, load_csv
from esrlab.normalize import normalize
from esrlab.objectives import mse
from esrlab.simplify import canonicalize

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

MATCH_REL_TOL = 1e-8   # a fit matches its reference within this (relative)
MATCH_GATE = 0.995     # share of returned fits that must match (ROADMAP)
REEVAL_REL_TOL = 1e-9  # a returned objective against its re-evaluation


@dataclass(frozen=True)
class Sizes:
    enum_len: int = 7
    fit_entries: int = 0        # leading catalog entries fitted; 0 = all
    mnr_sample: int = 32
    rs_runs: int = 50
    gp_runs: int = 5
    gp_generations: int = 25
    record_sample: int = 200    # GP log records re-evaluated per pass


FULL = Sizes()
TINY = Sizes(enum_len=4, fit_entries=12, mnr_sample=3, rs_runs=3, gp_runs=2,
             gp_generations=2, record_sample=20)


# workload-specific figures, reported as 0 by workloads they do not apply to
EXTRAS = {
    "error_frac": "frac", "fit_match_frac": "frac",
    **{f"{o}_entry_{k}": unit for o in ("mse", "mnr")
       for k, unit in (("p50_ms", "ms"), ("tail_ms", "ms"), ("tail_pct", "%"),
                       ("n", "count"))},
    "evals_per_s": "1/s", "sem_hash_divergent_frac": "frac",
}


@dataclass
class Pass:
    """What one pass did: operations, failures, per-operation latencies."""
    wall_s: float = 0.0         # without the host-speed probe's slices
    slowdown: float = 1.0       # the probe's reading over the pass
    attempted: int = 0
    failures: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)
    out: dict = field(default_factory=dict)

    def call(self, op: str, label: str, fn, *args):
        """One operation; an exception is counted and recorded, not raised.
        Its latency leaves out the probe slices that ran inside it."""
        self.attempted += 1
        s0 = hostspeed.sliced_s()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.failures.append({"op": op, "input": label,
                                  "error": f"{type(exc).__name__}: {exc}"})
            return None
        self.latencies.setdefault(op, []).append(
            time.perf_counter() - t0 - (hostspeed.sliced_s() - s0))
        return result


def tail(values) -> tuple:
    """(value, percentile, n): the highest percentile that still has ten
    samples beyond it, or the maximum when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def read_pins() -> dict:
    with open(os.path.join(DATA, "pins.json"), encoding="utf-8") as f:
        return json.load(f)


def read_refs(objective: str) -> dict:
    """{hash: (objective, n_obj_evals)}; (error text, 0) for fits that
    raised."""
    refs = {}
    with open(os.path.join(DATA, f"refs_l6_{objective}.tsv"),
              encoding="utf-8") as f:
        for line in f:
            h, value, extra = line.rstrip("\n").split("\t")
            refs[int(h)] = ((extra, 0) if value == "error"
                            else (float(value), int(extra)))
    return refs


def ecdf_thresholds(refs: dict) -> list:
    """Objective thresholds for the ECDFs: the 1% and 10% quantiles of the
    pinned length-6 ``mse`` references."""
    finite = np.array([v for v, _ in refs.values()
                       if isinstance(v, float) and math.isfinite(v)])
    return [float(np.quantile(finite, q, method="lower")) for q in (0.01, 0.1)]


def catalog_digest(path: str) -> tuple:
    """({count, crc} of a catalog's entry lines, [the count/crc footers])."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    body = [line for line in lines if not line.startswith("#")]
    crc = 0
    for line in body:
        crc = zlib.crc32(line.encode("utf-8"), crc)
    footers = [dict(part.split("=") for part in
                    line.strip().replace("#", "").split(","))
               for line in lines if line.startswith("#count=")]
    return {"count": len(body), "crc": f"{crc:08x}"}, footers


def catalog_problems(path: str, pin: dict) -> list:
    """Differences between a catalog file, its own footer and the pin."""
    got, footers = catalog_digest(path)
    problems = []
    if len(footers) != 1:
        problems.append(f"{path}: {len(footers)} count/crc footers")
    elif {"count": int(footers[0]["count"]), "crc": footers[0]["crc"]} != got:
        problems.append(f"{path}: footer {footers[0]} but entries give {got}")
    if got != pin:
        problems.append(f"{path}: {got}, pinned {pin}")
    return problems


def matches_reference(objective: float, ref) -> bool:
    """No worse than the reference by more than MATCH_REL_TOL (relative).
    A reference that raised or diverged is matched by any returned fit."""
    if not isinstance(ref, float) or not math.isfinite(ref):
        return True
    if not math.isfinite(objective):
        return False
    return objective <= ref + MATCH_REL_TOL * max(abs(ref), 1.0)


def reevaluates(value: float, objective: float) -> bool:
    if not math.isfinite(objective):
        return not math.isfinite(value)
    return math.isclose(value, objective, rel_tol=REEVAL_REL_TOL, abs_tol=0.0)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: str, sizes: Sizes = FULL):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.setup_problems: list = []

    def setup(self) -> dict:
        """Load inputs; returns set-up timings of single layers."""
        t0 = time.perf_counter()
        self.data = load_csv(bundled_synthetic_path())
        return {"dataset.load_csv_s": time.perf_counter() - t0}

    def inputs(self) -> dict:
        return {"dataset_points": len(self.data)}

    def run(self) -> Pass:
        raise NotImplementedError

    def check(self, passes: list) -> list:
        """Gate failures over all passes of one run (empty when correct)."""
        return list(self.setup_problems)

    def extras(self, passes: list) -> dict:
        """Workload-specific figures, from untraced passes."""
        return {}


class EnumerateL7(Workload):
    name = "enumerate_l7"
    why = ("canonicalization-bound: normalize, egraph and simplify with a "
           "cold per-build cache; no fitting")

    def setup(self) -> dict:
        timings = super().setup()
        self.pin = read_pins()[f"catalog_l{self.sizes.enum_len}"]
        return timings

    def inputs(self) -> dict:
        return {**super().inputs(), "max_len": self.sizes.enum_len}

    def run(self) -> Pass:
        p = Pass()
        n = self.sizes.enum_len
        catalog = p.call("build_catalog", f"max_len={n}",
                         enumeration.build_catalog, n)
        path = os.path.join(self.workdir, f"catalog_l{n}.tsv")
        if catalog is not None:
            p.call("write_catalog", path, enumeration.write_catalog,
                   catalog, path)
        p.out["path"] = path
        return p

    def check(self, passes: list) -> list:
        problems = super().check(passes)
        for p in passes:
            if p.failures:
                problems.append(f"enumeration raised: {p.failures}")
            else:
                problems += catalog_problems(p.out["path"], self.pin)
        return problems


class FitL6(Workload):
    name = "fit_l6"
    why = ("fitting-bound: autodiff, objectives and fitting under the deep "
           "ESR preset, mse and mnr, one fit call per entry; no "
           "canonicalization")

    def setup(self) -> dict:
        timings = super().setup()
        path = os.path.join(DATA, "catalog_l6.tsv")
        self.setup_problems += catalog_problems(path,
                                                read_pins()["catalog_l6"])
        catalog = enumeration.read_catalog(path)
        self.refs = {"mse": read_refs("mse"), "mnr": read_refs("mnr")}
        self.thresholds = ecdf_thresholds(self.refs["mse"])
        n = self.sizes.fit_entries or len(catalog.entries)
        self.catalog = replace(catalog, entries=catalog.entries[:n])
        # a stratified sample: entries sorted by the cost of their pinned
        # mnr reference fit (objective evaluations, 0 where it raised), cut
        # into mnr_sample strata, one entry drawn by the seed from each.
        # Every entry is equally likely to be drawn, and every seed gets a
        # sample of about the same total cost.
        cost = self.refs["mnr"]
        order = sorted(range(n), key=lambda i: (
            cost[catalog.entries[i].semantic_hash][1], i))
        rng = np.random.default_rng(self.seed)
        strata = np.array_split(np.array(order), self.sizes.mnr_sample)
        self.mnr_sample = sorted(int(s[rng.integers(len(s))])
                                 for s in strata)
        return timings

    def inputs(self) -> dict:
        return {**super().inputs(), "entries": len(self.catalog.entries),
                "mnr_sample": self.mnr_sample, "rs_runs": self.sizes.rs_runs}

    def run(self) -> Pass:
        p = Pass()
        entries = self.catalog.entries
        fits = {"mse": {}, "mnr": {}}
        for objective, indices in (("mse", range(len(entries))),
                                   ("mnr", self.mnr_sample)):
            for i in indices:
                entry = entries[i]
                h = entry.semantic_hash
                e = ex.parse(entry.text)
                res = p.call(objective, entry.text, fitting.fit, e, self.data,
                             objective, fitting.ESR_FIT,
                             fitting.entry_seed(0, h))
                if res is not None:
                    fits[objective][h] = (entry.text, res)
        mse_results = {h: res for h, (_, res) in fits["mse"].items()}
        logs = p.call("run_rs", f"runs={self.sizes.rs_runs}",
                      random_search.run_rs, self.catalog, self.data, "mse",
                      fitting.ESR_FIT, self.sizes.rs_runs, self.seed,
                      mse_results)
        if logs is not None:
            p.call("ecdf", "rs logs", analysis.ecdf, logs, self.thresholds)
        p.out = {"fits": fits, "rs_logs": logs}
        return p

    def match_frac(self, p: Pass) -> float:
        pairs = [(res.objective, self.refs[o][h][0])
                 for o, fits in p.out["fits"].items()
                 for h, (_, res) in fits.items()]
        ok = sum(matches_reference(obj, ref) for obj, ref in pairs)
        return ok / len(pairs) if pairs else 0.0

    def check(self, passes: list) -> list:
        problems = super().check(passes)
        for p in passes:
            frac = self.match_frac(p)
            if frac < MATCH_GATE:
                problems.append(f"fit_match_frac {frac:.4f} < {MATCH_GATE}")
            for h, (text, res) in p.out["fits"]["mse"].items():
                again = mse(ex.parse(text), res.theta, self.data)
                if not reevaluates(again, res.objective):
                    problems.append(f"mse of {text!r} re-evaluates to "
                                    f"{again!r}, returned {res.objective!r}")
            logs = p.out["rs_logs"]
            if logs is None:
                problems.append("run_rs raised")
                continue
            best = min(res.objective
                       for _, res in p.out["fits"]["mse"].values())
            for log in logs:
                if (len(log) != len(self.catalog)
                        or log.best_fitness() != best):
                    problems.append("an RS run does not visit every entry "
                                    "and end at the catalog optimum")
                    break
        return problems

    def extras(self, passes: list) -> dict:
        p = passes[0]
        out = {"fit_match_frac": (self.match_frac(p), "frac")}
        for objective in ("mse", "mnr"):
            ms = [1e3 * s for s in p.latencies.get(objective, [])]
            value, pct, n = tail(ms)
            out[f"{objective}_entry_p50_ms"] = (median(ms), "ms")
            out[f"{objective}_entry_tail_ms"] = (value, "ms")
            out[f"{objective}_entry_tail_pct"] = (pct, "%")
            out[f"{objective}_entry_n"] = (n, "count")
        return out


class GpL10(Workload):
    name = "gp_l10"
    why = ("GP-bound: simplify with a hot cache and the short GP_FIT preset, "
           "the other two workloads' layers used the opposite way")

    def setup(self) -> dict:
        timings = super().setup()
        self.config = replace(gp.gp_preset(10),
                              generations=self.sizes.gp_generations)
        self.thresholds = ecdf_thresholds(read_refs("mse"))
        self.run_seeds = [self.seed * 100 + i
                          for i in range(self.sizes.gp_runs)]
        self.sampled_logs = None  # the first pass's logs, for the record gate
        return timings

    def inputs(self) -> dict:
        return {**super().inputs(), "gp_seeds": self.run_seeds,
                "gp_config": self.config.as_dict()}

    def run_one(self, p: Pass, index: int):
        seed = self.run_seeds[index]
        log = p.call("run_gp", f"seed={seed}", gp.run_gp, self.config,
                     self.data, seed)
        path = os.path.join(self.workdir, f"gp_run{index}.log")
        if log is not None:
            p.call("write_runlog", path, runlog.write_runlog, log, path)
        return log, path

    def run(self) -> Pass:
        p = Pass()
        logs, digests = [], []
        for i in range(len(self.run_seeds)):
            log, path = self.run_one(p, i)
            logs.append(log)
            digests.append(None if log is None else _digest(path))
        done = [log for log in logs if log is not None]
        if done:
            p.call("ecdf", "gp logs", analysis.ecdf, done, self.thresholds)
            p.call("duplicate_stats", f"seed={done[0].seed}",
                   analysis.duplicate_stats, done[0])
        p.out = {"digests": digests, "evals": sum(len(log) for log in done)}
        if self.sampled_logs is None:
            self.sampled_logs = logs
        return p

    def check(self, passes: list) -> list:
        problems = super().check(passes)
        runs = [p.out["digests"] for p in passes]
        if len(passes) == 1:
            # a second run of the first seed, outside the timed passes
            log, path = self.run_one(Pass(), 0)
            runs.append([None if log is None else _digest(path)])
        for other in runs[1:]:
            for i, (a, b) in enumerate(zip(runs[0], other)):
                if a is None or a != b:
                    problems.append(f"GP run log {i} (seed "
                                    f"{self.run_seeds[i]}) is not "
                                    "byte-identical across repeats")
        rng = np.random.default_rng(self.seed)
        self.divergent = self.sampled = 0
        self._replayed = {}
        for log in self.sampled_logs:
            if log is None:
                problems.append("run_gp raised")
                continue
            k = max(1, self.sizes.record_sample // len(self.run_seeds))
            for j in rng.choice(len(log), min(k, len(log)), replace=False):
                problems += self.record_problems(log, int(j))
        return problems

    def record_problems(self, log, j: int) -> list:
        """A sampled record's fitness re-evaluates from its theta, and its
        semantic hash is the canonical hash of its text -- or, where the two
        differ, the hash the run's ``Canonicalizer`` cache gives it, replayed
        (counted as divergent)."""
        r = log.records[j]
        e = ex.parse(r.text)
        if r.sem_hash == 0:
            if ex.length(e) <= self.config.max_len:
                return [f"record {r.eval_id}: sentinel within the length "
                        "limit"]
            return []
        self.sampled += 1
        problems = []
        if math.isfinite(r.fitness):
            again = mse(e, r.theta, self.data)
            if not reevaluates(again, r.fitness):
                problems.append(f"record {r.eval_id}: fitness {r.fitness!r} "
                                f"re-evaluates to {again!r}")
        if canonicalize(e, self.config.eqsat).semantic_hash == r.sem_hash:
            return problems
        if id(log) not in self._replayed:
            self._replayed[id(log)] = self.replay_cache(log)
        if self._replayed[id(log)][j] == r.sem_hash:
            self.divergent += 1
        else:
            problems.append(f"record {r.eval_id}: sem_hash {r.sem_hash} is "
                            f"neither the canonical hash of {r.text!r} nor "
                            "the one its run's cache gives it")
        return problems

    def replay_cache(self, log) -> list:
        """Each record's semantic hash under ``Canonicalizer``'s caching
        (keys: the tree and its normal form; a miss canonicalizes the tree),
        replayed in log order with the uncached library functions."""
        cache, hashes = {}, []
        for r in log.records:
            if not r.sem_hash:
                hashes.append(0)
                continue
            e = ex.parse(r.text)
            h = cache.get(e)
            if h is None:
                n = normalize(e)
                h = cache.get(n)
                if h is None:
                    h = cache[n] = canonicalize(
                        e, self.config.eqsat).semantic_hash
                cache[e] = h
            hashes.append(h)
        return hashes

    def extras(self, passes: list) -> dict:
        wall_s = median([p.wall_s for p in passes])
        return {"evals_per_s": (passes[0].out["evals"] / wall_s, "1/s"),
                "sem_hash_divergent_frac": (
                    self.divergent / self.sampled if self.sampled else 0.0,
                    "frac")}


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


WORKLOADS = {w.name: w for w in (EnumerateL7, FitL6, GpL10)}
