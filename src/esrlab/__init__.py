"""esrlab: exhaustive symbolic-regression search spaces and their analyses.

The package enumerates all semantically unique expressions of a small
grammar up to a length limit (deduplicating with equality saturation), fits
expressions to datasets by least squares or a measurement-error marginal
likelihood, runs a reference genetic-programming engine over the same space,
and quantifies search efficiency against idealized random search.
"""

from .expr import (
    Expr, Grammar, ParseError, DEFAULT_GRAMMAR,
    var, param, const, add, sub, mul, div, inv, powabs, neg, abs_,
    length, render, parse, structural_hash,
)
from .egraph import EGraph, EqSatConfig, RULES, dump_rules, SaturationReport
from .normalize import normalize
from .simplify import (
    CanonicalForm, canonicalize, simplifies_to_constant,
    Canonicalizer,
)

__version__ = "0.1.0"
