"""Matrix kernels with explicit domain checks.

Generator exponentials and logarithms go through ``mat_exp`` and
``mat_log_real``, so their tolerances and branch-cut failures live in one
place. ``eig_hermitian`` is a checked diagonalization for callers: the
library's own Hermitian eigenproblems (in ``channels``, ``states``,
``dynamics`` and ``_framesearch``) call ``np.linalg.eigh``/``eigvalsh`` on
matrices they symmetrize themselves, and the frame search builds its
rotations in closed form.
"""

from __future__ import annotations

import numpy as np

from .errors import LogBranchError, NonRealLogError, _require_finite

__all__ = ["mat_exp", "mat_log_real", "eig_hermitian", "frobenius_dist"]

_LOG_TOL_IMAG = 1e-8
_HERMITIAN_TOL = 1e-10


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    _require_finite(a, name)
    return a


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix (real in, real out)."""
    import scipy.linalg

    a = _as_square(a, "a")
    return scipy.linalg.expm(a)


def mat_log_real(s: np.ndarray) -> np.ndarray:
    """Principal real logarithm of a real square matrix.

    Parameters
    ----------
    s : np.ndarray
        Real square matrix. Its spectrum must avoid the closed negative
        real axis (zero included), otherwise the principal branch is
        undefined or non-real.

    Returns
    -------
    np.ndarray
        Real matrix ``L`` with ``mat_exp(L)`` equal to ``s``.

    Raises
    ------
    LogBranchError
        If any eigenvalue of ``s`` lies on the closed negative real axis.
        The offending eigenvalues are attached to the exception.
    NonRealLogError
        If the computed logarithm retains imaginary parts above 1e-8.
    """
    import scipy.linalg

    s = _as_square(s, "s")
    if np.iscomplexobj(s):
        if np.abs(s.imag).max() > 0:
            raise ValueError("mat_log_real expects a real matrix")
        s = s.real
    eigvals = np.linalg.eigvals(s)
    scale = max(1.0, float(np.abs(eigvals).max()))
    on_axis = (eigvals.real <= 1e-12 * scale) & (np.abs(eigvals.imag) <= 1e-12 * scale)
    if np.any(on_axis):
        bad = eigvals[on_axis]
        raise LogBranchError(
            "matrix has eigenvalues on the closed negative real axis, "
            f"principal real log undefined: {bad}",
            bad,
        )
    log = scipy.linalg.logm(s)
    imag_resid = float(np.abs(log.imag).max()) if np.iscomplexobj(log) else 0.0
    if imag_resid > _LOG_TOL_IMAG:
        raise NonRealLogError(
            f"logarithm has imaginary residual {imag_resid:.3e} above tol_imag={_LOG_TOL_IMAG:.1e}"
        )
    return log.real if np.iscomplexobj(log) else log


def eig_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Checks Hermiticity to 1e-10 (relative to the matrix scale) first and
    returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors in columns.
    """
    a = _as_square(a, "a")
    scale = max(1.0, float(np.abs(a).max()))
    dev = float(np.abs(a - a.conj().T).max())
    if dev > _HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max |a - a^H| = {dev:.3e}")
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs


def frobenius_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Frobenius distance ``Tr[(a-b)^H (a-b)]`` between two matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _require_finite(a, "a")
    _require_finite(b, "b")
    diff = a - b
    return float(np.sum(np.abs(diff) ** 2))
