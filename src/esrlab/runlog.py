"""Per-evaluation traces of search runs.

One record per evaluated candidate:

    gen   eval_id   struct_hash   sem_hash   fitness   expr   fevals   theta

where fitness is the minimized objective (negative log-likelihood for the
marginal objective), ``inf`` marks the over-length sentinel (which also has
sem_hash 0), fevals is the cumulative objective-evaluation count after this
candidate, and theta holds the comma-joined fitted parameters.  Files are
tab-separated with ``#key=value`` header lines echoing the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._files import InputError, atomic_write, read_lines

__all__ = ["LogRecord", "RunLog", "write_runlog", "read_runlog"]


@dataclass(frozen=True)
class LogRecord:
    gen: int
    eval_id: int
    struct_hash: int
    sem_hash: int
    fitness: float
    text: str
    fevals: int
    theta: tuple = ()


@dataclass
class RunLog:
    records: list
    config: dict = field(default_factory=dict)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def best_fitness(self) -> float:
        return min((r.fitness for r in self.records), default=math.inf)


def _fmt_fitness(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def write_runlog(log: RunLog, path: str) -> None:
    """Write atomically; cleans up the partial file on failure."""
    with atomic_write(path) as f:
        f.write(f"#seed={log.seed}\n")
        for k in sorted(log.config):
            f.write(f"#{k}={log.config[k]}\n")
        f.write("#columns=gen\teval_id\tstruct_hash\tsem_hash\tfitness\t"
                "expr\tfevals\ttheta\n")
        for r in log.records:
            theta = ",".join(repr(float(t)) for t in r.theta)
            f.write(f"{r.gen}\t{r.eval_id}\t{r.struct_hash}\t{r.sem_hash}\t"
                    f"{_fmt_fitness(r.fitness)}\t{r.text}\t{r.fevals}\t{theta}\n")


def read_runlog(path: str) -> RunLog:
    """Read a run log; InputError naming ``path:line`` for a record with the
    wrong field count or a non-numeric field."""
    records = []
    config: dict = {}
    seed = 0
    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            if line.startswith("#"):
                k, _, v = line[1:].partition("=")
                if k == "seed":
                    seed = int(v)
                elif k != "columns":
                    config[k] = v
                continue
            gen, eval_id, sh, zh, fit, text, fevals, theta = line.split("\t")
            tvals = tuple(float(v) for v in theta.split(",")) if theta else ()
            records.append(LogRecord(
                int(gen), int(eval_id), int(sh), int(zh), float(fit),
                text, int(fevals), tvals))
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed run log line "
                             f"{line!r}") from None
    return RunLog(records, config, seed)
