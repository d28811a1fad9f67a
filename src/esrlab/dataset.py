"""Datasets: observations (x_i, y_i) with optional uncertainty columns.

CSV format: a header line naming columns ``x,y[,sigma_x,sigma_y]``, comment
lines starting with '#'.  The sigma columns are required by the
measurement-error marginal likelihood and ignored by plain least squares.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._files import InputError, read_lines

__all__ = ["Dataset", "load_csv", "save_csv", "synthetic_dataset",
           "bundled_synthetic_path"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations: each column a read-only float copy of the one given,
    so nothing computed from a dataset (a fit kernel bound to it) can go
    stale.  Datasets compare and hash by identity."""
    x: np.ndarray
    y: np.ndarray
    sigma_x: Optional[np.ndarray] = None
    sigma_y: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("x", "y", "sigma_x", "sigma_y"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
                if arr.shape != self.x.shape:
                    raise ValueError("dataset columns must share one length")
                if not np.all(np.isfinite(arr)):
                    raise ValueError("dataset values must be finite")
        if self.sigma_x is not None and np.any(self.sigma_x < 0):
            raise ValueError("sigma_x must be nonnegative")
        if self.sigma_y is not None and np.any(self.sigma_y < 0):
            raise ValueError("sigma_y must be nonnegative")

    def __reduce__(self):
        # rebuilt through the constructor: pickle's default would restore
        # writable columns
        return type(self), (self.x, self.y, self.sigma_x, self.sigma_y)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def has_uncertainties(self) -> bool:
        return self.sigma_x is not None and self.sigma_y is not None

    @cached_property
    def variances(self) -> tuple:
        """(sigma_x ** 2, sigma_y ** 2), computed once per dataset."""
        return self.sigma_x ** 2, self.sigma_y ** 2


def load_csv(path) -> Dataset:
    """Read a dataset CSV; an InputError naming ``path:line`` or ``path``
    for a file that is not one."""
    header = None
    rows = []
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = [c.strip().lower() for c in line.split(",")]
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise InputError(f"{path}:{lineno}: {len(fields)} fields, "
                             f"header has {len(header)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as err:
            raise InputError(f"{path}:{lineno}: {err}") from None
    if header is None or not rows:
        raise InputError(f"{path}: empty dataset file")
    cols = {h: np.array([r[i] for r in rows]) for i, h in enumerate(header)}
    if "x" not in cols or "y" not in cols:
        raise InputError(f"{path}: dataset needs x and y columns")
    try:
        return Dataset(cols["x"], cols["y"], cols.get("sigma_x"),
                       cols.get("sigma_y"))
    except ValueError as err:
        raise InputError(f"{path}: {err}") from None


def save_csv(data: Dataset, path: str) -> None:
    cols = ["x", "y"]
    arrays = [data.x, data.y]
    if data.sigma_x is not None:
        cols.append("sigma_x")
        arrays.append(data.sigma_x)
    if data.sigma_y is not None:
        cols.append("sigma_y")
        arrays.append(data.sigma_y)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(cols) + "\n")
        for i in range(len(data)):
            f.write(",".join(repr(float(a[i])) for a in arrays) + "\n")


# relative noise level and seed of the bundled synthetic benchmark
_NOISE = 0.01
_SEED = 20240901


def synthetic_dataset(n: int = 64) -> Dataset:
    """Bundled synthetic benchmark: a smooth univariate saturation curve
    y = a/(1/(b+x) - c^x) over x in [0.1, 3.5], plus relative Gaussian noise
    and nominal uncertainty columns.  Deterministic."""
    rng = np.random.default_rng(_SEED)
    x = np.linspace(0.1, 3.5, n)
    a, b, c = 0.301, 0.673, 0.453
    f = a / (1.0 / (b + x) - c ** x)
    scale = float(np.std(f))
    y = f + rng.normal(0.0, _NOISE * scale, size=n)
    sigma_x = np.full(n, 0.02)
    sigma_y = np.full(n, max(_NOISE * scale, 1e-3))
    return Dataset(x, y, sigma_x, sigma_y)


def bundled_synthetic_path() -> str:
    """Path of the packaged synthetic CSV (written on first use)."""
    here = os.path.dirname(__file__)
    path = os.path.join(here, "data", "synthetic.csv")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_csv(synthetic_dataset(), path)
    return path
