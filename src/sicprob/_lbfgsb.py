"""Unbounded L-BFGS-B in lock-step lanes, driven directly through SciPy's ``setulb``.

Each lane is one run of the loop of ``scipy.optimize.minimize(method="L-BFGS-B")``
for an objective that returns ``(f, grad)``, without the wrappers that cache,
compare and copy around each evaluation, through a schedule of stages that
differ only in one objective parameter. Lanes keep their own ``setulb`` state
and advance together: each round steps every lane that asked last round until
it asks again, then evaluates all of them in one vectorized call and writes
each lane's ``f`` and ``g`` into the lane's own arrays in place. The C routine
of Zhu, Byrd, Lu & Nocedal (ACM TOMS 23, 550, 1997) gets the same arguments as
in ``minimize``, so each lane takes the same steps and returns the same bits
as ``minimize`` run stage after stage on its own; ``tests/test_lbfgsb.py``
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


class _Lane:
    """The ``setulb`` state of one start in one stage. ``setulb`` updates ``x``
    and the state in place, and ``lbfgsb_lanes`` writes ``f`` and ``g`` in
    place, so the argument tuple is built once."""

    def __init__(self, x: np.ndarray, low, up, nbd, factr: float, gtol: float):
        n = x.size
        self.x, self.f, self.g = x, np.array(0.0), np.zeros(n)
        self.task = np.zeros(2, np.int32)
        self.nit = self.nfev = 0
        self.args = (
            _M, x, low, up, nbd, self.f, self.g, factr, gtol,
            np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M), np.zeros(3 * n, np.int32),
            self.task, np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29), _MAXLS,
            np.zeros(2, np.int32),
        )  # fmt: skip


def lbfgsb_lanes(fun_grad_many, x0, mus, max_iter, gtol, ftol):
    """Minimize from every row of ``x0`` without bounds, through the stages ``mus``.

    ``fun_grad_many(X, mu, lanes) -> (f, G)`` evaluates the rows of ``X``
    ``(k, n)`` for the lanes ``lanes`` (indices into ``x0``) at the stage
    parameters ``mu`` ``(k,)``, giving ``f`` ``(k,)`` and ``G`` ``(k, n)``.
    Each stage starts afresh from the ``x`` the lane's previous stage ended
    at, and lane ``i`` equals ``minimize(fun_i, x, (mu,), jac=True,
    method="L-BFGS-B", options={"maxiter": max_iter, "gtol": gtol, "ftol":
    ftol})`` run for each ``mu`` in turn, bit for bit, where ``fun_i`` is
    the objective of lane ``i``. Returns ``(x, f, grad, nit, success)`` of
    every lane's last stage.
    """
    factr = ftol / np.finfo(float).eps
    x = np.array(x0, dtype=np.float64)  # row i: the iterate of lane i
    n = x.shape[1]
    bounds = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)  # nbd 0: unbounded
    mus = np.asarray(mus, dtype=np.float64)
    stage = np.zeros(len(x), np.intp)
    lanes = [_Lane(row, *bounds, factr, gtol) for row in x]
    done: list[tuple | None] = [None] * len(lanes)
    asking = list(range(len(lanes)))  # a lane that did not ask last round is done
    while True:
        visit, asking = asking, []
        for i in visit:
            ln = lanes[i]
            while True:
                _lbfgsb.setulb(*ln.args)
                if ln.task[0] == 3:  # FG: evaluate at x
                    asking.append(i)
                    break
                if ln.task[0] == 1:  # NEW_X: an iteration is done
                    ln.nit += 1
                    if ln.nit >= max_iter:
                        ln.task[:] = 5, 504
                    elif ln.nfev > _MAXFUN:
                        ln.task[:] = 5, 502
                elif stage[i] + 1 < len(mus):
                    stage[i] += 1
                    lanes[i] = ln = _Lane(ln.x, *bounds, factr, gtol)
                else:
                    done[i] = (ln.x, ln.f[()], ln.g, ln.nit, bool(ln.task[0] == 4))
                    break
        if not asking:
            return done
        idx = np.array(asking)
        f, g = fun_grad_many(x[idx], mus[stage[idx]], idx)
        for i, fi, gi in zip(asking, f, g):
            ln = lanes[i]
            ln.f[()], ln.g[:] = fi, gi
            ln.nfev += 1
