"""Regenerate the pinned references the benchmark checks against.

    python3 perfbench/make_refs.py catalog      # data/catalog_l6.tsv
    python3 perfbench/make_refs.py mse          # data/refs_l6_mse.tsv
    python3 perfbench/make_refs.py mnr          # data/refs_l6_mnr.tsv
    python3 perfbench/make_refs.py pins         # data/pins.json

Each reference line is ``hash<TAB>objective<TAB>n_obj_evals`` for a fit
that returned, or ``hash<TAB>error<TAB>Type: message`` for one that raised.
References are taken with fit seed 0 and the ESR preset, one ``fit`` call
per entry.  Only rerun this on purpose: a changed reference changes what
"correct" means.
"""

from __future__ import annotations

import json
import os
import sys
import time

import _boot  # noqa: F401  (first: puts src on sys.path, pins BLAS threads)
from esrlab import enumeration, expr as ex, fitting
from esrlab.dataset import bundled_synthetic_path, load_csv
from workloads import DATA, catalog_digest


def make_catalog() -> None:
    enumeration.write_catalog(enumeration.build_catalog(6),
                              os.path.join(DATA, "catalog_l6.tsv"))


def make_refs(objective: str) -> None:
    cat = enumeration.read_catalog(os.path.join(DATA, "catalog_l6.tsv"))
    data = load_csv(bundled_synthetic_path())
    out = os.path.join(DATA, f"refs_l6_{objective}.tsv")
    with open(out, "w", encoding="utf-8") as f:
        for entry in cat.entries:
            h = entry.semantic_hash
            t0 = time.perf_counter()
            try:
                res = fitting.fit(ex.parse(entry.text), data, objective,
                                  fitting.ESR_FIT, fitting.entry_seed(0, h))
                f.write(f"{h}\t{res.objective!r}\t{res.n_obj_evals}\n")
            except Exception as exc:  # recorded, the benchmark counts it
                f.write(f"{h}\terror\t{type(exc).__name__}: {exc}\n")
            print(f"{h}\t{time.perf_counter() - t0:.4f}\t{entry.text}",
                  flush=True)


def make_pins() -> None:
    pins = {}
    for length in (4, 7):
        path = os.path.join(DATA, f".pin_l{length}.tmp.tsv")
        enumeration.write_catalog(enumeration.build_catalog(length), path)
        pins[f"catalog_l{length}"] = catalog_digest(path)[0]
        os.unlink(path)
    path = os.path.join(DATA, "catalog_l6.tsv")
    pins["catalog_l6"] = catalog_digest(path)[0]
    with open(os.path.join(DATA, "pins.json"), "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "catalog":
        make_catalog()
    elif what in ("mse", "mnr"):
        make_refs(what)
    elif what == "pins":
        make_pins()
    else:
        sys.exit(__doc__)
