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

import numpy as np

from .expr import Expr
from .autodiff import eval_expr, eval_with_grad
from .dataset import Dataset

__all__ = ["mse", "MnrParams", "mnr_loglik"]


def mse(e: Expr, theta, data: Dataset) -> float:
    """Mean of squared residuals; non-finite if any residual is."""
    with np.errstate(all="ignore"):
        f = eval_expr(e, theta, data.x)
        r = f - data.y
        return float(np.mean(r * r))


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


def mnr_loglik(e: Expr, p: MnrParams, data: Dataset) -> float:
    """Marginal log-likelihood (up to the dropped additive constant)."""
    if not data.has_uncertainties:
        raise ValueError("mnr objective requires sigma_x and sigma_y columns")
    with np.errstate(all="ignore"):
        f, g = eval_with_grad(e, p.theta, data.x, wrt="x")
        a = g[0]
        b = f - a * data.x
        sx2 = data.sigma_x ** 2
        s2 = data.sigma_y ** 2 + p.sigma_int ** 2
        w2 = p.omega ** 2
        den = a * a * w2 * sx2 + s2 * (w2 + sx2)
        r_obs = a * data.x + b - data.y      # = f(x_i) - y_i
        r_mu = a * p.mu + b - data.y
        t1 = (w2 * r_obs ** 2 + sx2 * r_mu ** 2) / den
        t2 = s2 * (data.x - p.mu) ** 2 / den
        t3 = np.log(den)
        return float(-0.5 * (np.sum(t1) + np.sum(t2) + np.sum(t3)))
