"""Unbounded L-BFGS-B in lock-step lanes, driven directly through SciPy's ``setulb``.

Each lane is one run of the loop of ``scipy.optimize.minimize(method="L-BFGS-B")``
for an objective that returns ``(f, grad)``, without the wrappers that cache,
compare and copy around each evaluation, through a schedule of stages that
differ only in one objective parameter. Lanes keep their own ``setulb`` state
and advance together: each round steps every lane that asked last round until
it asks again, then evaluates all of them in one vectorized call and writes
the results in one assignment to the rows of one ``f`` and one ``g`` array,
of which each lane's ``f`` and ``g`` are views. The C routine of Zhu, Byrd,
Lu & Nocedal (ACM TOMS 23, 550, 1997) gets the same arguments as in
``minimize``, so each lane takes the same steps and returns the same bits as
``minimize`` run stage after stage on its own; ``tests/test_lbfgsb.py``
holds it to that, bit for bit, and holds ``project_cptp``'s evaluation to the
formula it was first written as within 1e-13 relative.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import _lbfgsb

# SciPy's defaults: stored corrections, line-search steps, evaluations
_M = 10
_MAXLS = 20
_MAXFUN = 15000


def _stage(x: np.ndarray, f: np.ndarray, g: np.ndarray, bounds, factr: float, gtol: float):
    """``setulb``'s arguments for one lane at the start of a stage: the lane's
    views ``x``, ``f`` (0-d) and ``g``, and a fresh state that ``setulb``
    updates in place, its ``task`` at index 11."""
    n = x.size
    return (
        _M, x, *bounds, f, g, factr, gtol,
        np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M), np.zeros(3 * n, np.int32),
        np.zeros(2, np.int32), np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29), _MAXLS,
        np.zeros(2, np.int32),
    )  # fmt: skip


def lbfgsb_lanes(fun_grad_many, x0, mus, max_iter, gtol, ftol):
    """Minimize from every row of ``x0`` without bounds, through the stages ``mus``.

    ``fun_grad_many(X, mu, lanes) -> (f, G)`` evaluates the rows of ``X``
    ``(k, n)`` for the lanes ``lanes`` (indices into ``x0``) at the stage
    parameters ``mu`` ``(k,)``, giving ``f`` ``(k,)`` and ``G`` ``(k, n)``.
    It may not write ``X``, ``mu`` or ``lanes``: when every lane asks they
    are read-only views of the driver's own arrays.
    Each stage starts afresh from the ``x`` the lane's previous stage ended
    at, and lane ``i`` equals ``minimize(fun_i, x, (mu,), jac=True,
    method="L-BFGS-B", options={"maxiter": max_iter, "gtol": gtol, "ftol":
    ftol})`` run for each ``mu`` in turn, bit for bit, where ``fun_i`` is
    the objective of lane ``i``. Returns ``(x, f, grad, nit, success)`` of
    every lane's last stage.
    """
    setulb = _lbfgsb.setulb
    factr = ftol / np.finfo(float).eps
    x = np.array(x0, dtype=np.float64)  # row i: the iterate of lane i
    k, n = x.shape
    f, g = np.zeros(k), np.zeros((k, n))  # lane i's f[i, ...] and g[i]
    bounds = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)  # nbd 0: unbounded
    mus = np.asarray(mus, dtype=np.float64)
    mu = np.full(k, mus[0])  # lane i's stage parameter
    stage, nit, nfev = [0] * k, [0] * k, [0] * k
    args = [_stage(x[i], f[i, ...], g[i], bounds, factr, gtol) for i in range(k)]
    tasks = [memoryview(a[11]) for a in args]  # read without NumPy's scalar indexing
    views = x.view(), mu.view(), np.arange(k)  # the kernel's arguments when every lane asks
    for view in views:
        view.flags.writeable = False
    done: list[tuple | None] = [None] * k
    asking = list(range(k))  # a lane that did not ask last round is done
    while True:
        visit, asking = asking, []
        for i in visit:
            a, task = args[i], tasks[i]
            while True:
                setulb(*a)
                if task[0] == 3:  # FG: evaluate at x
                    asking.append(i)
                    nfev[i] += 1
                    break
                if task[0] == 1:  # NEW_X: an iteration is done
                    nit[i] += 1
                    if nit[i] >= max_iter:
                        a[11][:] = 5, 504
                    elif nfev[i] > _MAXFUN:
                        a[11][:] = 5, 502
                elif stage[i] + 1 < len(mus):
                    stage[i] += 1
                    mu[i], nit[i], nfev[i] = mus[stage[i]], 0, 0
                    args[i] = a = _stage(x[i], f[i, ...], g[i], bounds, factr, gtol)
                    tasks[i] = task = memoryview(a[11])
                else:
                    done[i] = (x[i], f[i], g[i], nit[i], bool(task[0] == 4))
                    break
        if not asking:
            return done
        if len(asking) == k:
            f[:], g[:] = fun_grad_many(*views)
        else:
            idx = np.array(asking)
            f[idx], g[idx] = fun_grad_many(x.take(idx, 0), mu[idx], idx)
