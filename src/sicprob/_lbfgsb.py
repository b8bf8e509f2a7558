"""Unbounded L-BFGS-B, driven directly through SciPy's ``setulb``.

The loop of ``scipy.optimize.minimize(method="L-BFGS-B")`` for an objective
that returns ``(f, grad)``, without the wrappers that cache, compare and copy
around each evaluation. It calls the same C routine of Zhu, Byrd, Lu &
Nocedal (ACM TOMS 23, 550, 1997) with the same arguments, so it takes the
same steps and returns the same bits; ``tests/test_lbfgsb.py`` holds it to
``minimize``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import _lbfgsb

# SciPy's defaults: stored corrections, line-search steps, evaluations
_M = 10
_MAXLS = 20
_MAXFUN = 15000


def lbfgsb(fun_grad, x0, args, max_iter, gtol, ftol):
    """Minimize ``fun_grad(x, *args) -> (f, grad)`` from ``x0`` without bounds.

    Equals ``minimize(fun_grad, x0, args, jac=True, method="L-BFGS-B",
    options={"maxiter": max_iter, "gtol": gtol, "ftol": ftol})`` bit for
    bit. Returns ``(x, f, grad, nit, success)``.
    """
    n = x0.size
    x = np.array(x0, dtype=np.float64)
    f = np.array(0.0)
    g = np.zeros(n)
    low, up = np.zeros(n), np.zeros(n)
    nbd = np.zeros(n, np.int32)  # 0: unbounded
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = ftol / np.finfo(float).eps
    nit = nfev = 0
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(
            _M, x, low, up, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave,
            _MAXLS, ln_task,
        )  # fmt: skip
        if task[0] == 3:  # FG: evaluate at x
            f, g = fun_grad(x, *args)
            nfev += 1
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= max_iter:
                task[:] = 5, 504
            elif nfev > _MAXFUN:
                task[:] = 5, 502
        else:
            return x, f, g, nit, bool(task[0] == 4)
