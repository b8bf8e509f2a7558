"""A fixed reference job that measures how fast the host runs right now.

On a shared host the same code runs up to 1.6x slower while other tenants
load the physical core, and the share of time it is slowed drifts over
minutes. A run therefore interleaves this job with its items, and the
end-to-end times (set-up included) are scaled by the job's mean time in the
same run (see ``run.py``). The job uses NumPy and SciPy only, never
``sicprob``, so a change to the library cannot change it: an L-BFGS-B fit
with small complex matrix products and ``einsum`` contractions, the
operations the library's solvers spend their time in.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.optimize

# The job's time, roughly, on a host that is not slowed. A run's scale factor
# is the job's measured mean over this, so scaled times read as seconds on
# such a host.
NOMINAL_S = 0.0095

_N = 4
_RNG = np.random.default_rng(20190809)
_THETA = _RNG.standard_normal((_N,) * 4) + 1j * _RNG.standard_normal((_N,) * 4)
_TARGET = _RNG.standard_normal((_N, _N))
_X0 = _RNG.standard_normal(2 * _N * _N)
_FITS = 3  # fits per job, ~9 ms on a host that is not slowed


def _fun_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    v = (x[: _N * _N] + 1j * x[_N * _N :]).reshape(_N, _N)
    p = v @ v.conj().T
    resid = np.einsum("ij,ijab->ab", p, _THETA).real - _TARGET
    w = np.einsum("ab,ijab->ij", 2.0 * resid, _THETA)
    av = ((w.T + w.conj()) / 2) @ v
    return float(np.sum(resid**2)), np.concatenate([2 * av.real.ravel(), 2 * av.imag.ravel()])


def job() -> float:
    """Run the reference job once; its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(_FITS):
        # ftol=0 runs to the same fixed point every time (51 iterations).
        scipy.optimize.minimize(
            _fun_grad, _X0, jac=True, method="L-BFGS-B", options={"gtol": 0.0, "ftol": 0.0}
        )
    return time.perf_counter() - t0
