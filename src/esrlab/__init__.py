"""esrlab: exhaustive symbolic-regression search spaces and their analyses.

The package enumerates all semantically unique expressions of a small
grammar up to a length limit (deduplicating with equality saturation), fits
expressions to datasets by least squares or a measurement-error marginal
likelihood, runs a reference genetic-programming engine over the same space,
and quantifies search efficiency against idealized random search.
"""

import os

# One BLAS thread, set before numpy is first imported: fits multiply vectors
# of a few dozen points, where a thread pool only adds contention, and any
# other load on the machine then slows fitting many times over.  A setting
# already in the environment wins, and spawned fit workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .expr import (
    Expr, ParseError,
    var, param, const, add, sub, mul, div, inv, powabs, neg, abs_,
    length, render, parse, structural_hash,
)
from .egraph import EGraph, EqSatConfig, RULES, dump_rules, SaturationReport
from .normalize import normalize
from .simplify import CanonicalForm, canonicalize, Canonicalizer

__version__ = "0.1.0"
