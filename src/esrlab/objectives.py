"""Fitness objectives: mean squared error and the measurement-error
marginal log-likelihood.

The marginal likelihood handles Gaussian errors on both variables.  True
x-values are marginalized under a Gaussian hyperprior N(mu, omega^2); the
model is linearized around each observed x_i with slope A_i = df/dx|_{x_i}
and intercept B_i = f(x_i) - A_i x_i, and sigma_int is an intrinsic scatter
added to the y variance.  The additive normalization constant (-n log 2pi)
is dropped throughout; all comparisons are differences or thresholds.

Objectives return non-finite values instead of raising; callers translate
those into "poor fitness".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expr import Expr
from .autodiff import eval_expr, eval_with_grad
from .dataset import Dataset

__all__ = ["mse", "MnrParams", "MnrBatch", "mnr_terms", "mnr_loglik"]


def mse(e: Expr, theta, data: Dataset):
    """Mean of squared residuals; non-finite if any residual is.  A
    ``(B, k)`` theta gives a list of B values."""
    with np.errstate(all="ignore"):
        f = eval_expr(e, theta, data.x)
        r = f - data.y
        return (np.add.reduce(r * r, -1) / r.shape[-1]).tolist()


@dataclass(frozen=True)
class MnrParams:
    """Expression parameters plus likelihood hyperparameters.

    omega must be positive and sigma_int nonnegative; optimizers work on
    log(omega), log(sigma_int) so the constraints hold by construction.
    """
    theta: tuple
    mu: float
    omega: float
    sigma_int: float

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.sigma_int < 0:
            raise ValueError("sigma_int must be nonnegative")


class MnrBatch(NamedTuple):
    """B points of the likelihood: a ``(B, k)`` theta and, per row, mu and
    the squares of omega and sigma_int.  Callers square each hyperparameter
    as a Python float, as ``mnr_loglik`` does for one ``MnrParams``, so a
    row's value is bit for bit that of the point alone."""
    theta: np.ndarray
    mu: np.ndarray
    omega2: np.ndarray
    sigma_int2: np.ndarray


def mnr_terms(e: Expr, theta, data: Dataset) -> tuple:
    """The part of the likelihood that depends on theta alone: the slope
    A_i, the intercept B_i, A_i * A_i and the squared residual at x_i, each
    with a leading batch axis for a ``(B, k)`` theta."""
    with np.errstate(all="ignore"):
        f, g = eval_with_grad(e, theta, data.x, wrt="x")
        a = g[..., 0, :]
        b = f - a * data.x
        r_obs = a * data.x + b - data.y      # = f(x_i) - y_i
        return a, b, a * a, r_obs ** 2


def mnr_loglik(e: Expr, p, data: Dataset, terms=None):
    """Marginal log-likelihood (up to the dropped additive constant).

    ``p`` is one ``MnrParams``, or an ``MnrBatch`` for a list of B values.
    ``terms`` are ``mnr_terms(e, p.theta, data)``, for a caller that
    already has them.
    """
    if not data.has_uncertainties:
        raise ValueError("mnr objective requires sigma_x and sigma_y columns")
    if terms is None:
        terms = mnr_terms(e, p.theta, data)
    a, b, aa, r_obs2 = terms
    if isinstance(p, MnrParams):
        mu, w2, si2 = p.mu, p.omega ** 2, p.sigma_int ** 2
    else:
        mu, w2, si2 = p.mu[:, None], p.omega2[:, None], p.sigma_int2[:, None]
    sx2, sy2 = data.variances
    with np.errstate(all="ignore"):
        s2 = sy2 + si2
        den = aa * w2 * sx2 + s2 * (w2 + sx2)
        r_mu = a * mu + b - data.y
        t1 = (w2 * r_obs2 + sx2 * r_mu ** 2) / den
        t2 = s2 * (data.x - mu) ** 2 / den
        t3 = np.log(den)
        add = np.add.reduce
        return (-0.5 * (add(t1, -1) + add(t2, -1) + add(t3, -1))).tolist()
