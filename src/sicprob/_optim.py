"""Shared multistart local-optimization engine.

Both projection routines (onto CPTP channels and onto dissipative
generators) minimize a smooth Frobenius objective with an analytic gradient
from many perturbed starting points. The loop here owns restart seeding,
best-result selection and the non-convergence error; callers supply the
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OptimizerError

__all__ = ["OptConfig", "multistart_minimize"]


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by every optimizer-backed operation.

    restarts : number of independent starts (the first uses the unperturbed
    warm start); max_iter : iteration cap per start; grad_tol : projected
    gradient tolerance passed to the local optimizer; seed : base RNG seed,
    restart ``k`` uses ``seed + k``.
    """

    restarts: int = 8
    max_iter: int = 500
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.grad_tol <= 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass
class MultistartResult:
    x: np.ndarray
    fun: float
    grad_inf: float
    n_converged: int
    all_fun: list[float]


def multistart_minimize(
    fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    opt: OptConfig,
    perturb_scale: float = 0.3,
) -> MultistartResult:
    """Run L-BFGS-B from ``opt.restarts`` perturbed copies of ``x0``.

    Returns the best result by objective value. A restart counts as
    converged when scipy reports success or the final gradient is small
    relative to the objective scale; if no restart converges,
    OptimizerError is raised.
    """
    import scipy.optimize

    best = None
    n_converged = 0
    all_fun: list[float] = []
    for k in range(opt.restarts):
        if k == 0:
            xk = x0.copy()
        else:
            rng = np.random.default_rng(opt.seed + k)
            xk = x0 + perturb_scale * rng.standard_normal(x0.shape)
        res = scipy.optimize.minimize(
            fun_grad,
            xk,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": opt.max_iter,
                "gtol": opt.grad_tol,
                "ftol": 1e-14,
            },
        )
        grad_inf = float(np.abs(res.jac).max()) if res.jac is not None else np.inf
        converged = bool(res.success) or grad_inf <= 1e-5 * max(1.0, abs(res.fun))
        if converged:
            n_converged += 1
        all_fun.append(float(res.fun))
        if np.isfinite(res.fun) and (best is None or res.fun < best[0]):
            best = (float(res.fun), res.x.copy(), grad_inf)
    if best is None or n_converged == 0:
        raise OptimizerError(
            f"no restart converged out of {opt.restarts} "
            f"(best objective {best[0] if best else np.nan!r})"
        )
    return MultistartResult(
        x=best[1], fun=best[0], grad_inf=best[2], n_converged=n_converged, all_fun=all_fun
    )
