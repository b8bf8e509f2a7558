"""Matrix kernels with explicit domain checks, in NumPy.

Generator exponentials and logarithms go through ``mat_exp`` and
``mat_log_real``, so their tolerances and branch-cut failures live in one
place. The exponential is a Taylor series with scaling and squaring, one
kernel for single matrices and for the frame search's stacked rotations.
The logarithm comes from one eigendecomposition and is checked by
exponentiating it back; only a matrix that fails that check (a defective
or nearly defective one) goes to ``scipy.linalg.logm``, which is imported
there and nowhere else on the analysis path. ``eig_hermitian`` is a checked
diagonalization for callers: the library's own Hermitian eigenproblems (in
``channels``, ``states``, ``dynamics`` and ``_framesearch``) call
``np.linalg.eigh``/``eigvalsh`` on matrices they symmetrize themselves, and
the frame search builds its qubit rotations in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LogBranchError, NonRealLogError, _require_finite

__all__ = ["mat_exp", "mat_log_real", "eig_hermitian", "frobenius_dist"]

_LOG_TOL_IMAG = 1e-8
# Largest |exp(log S) - S| entry, relative to max(1, largest |S| entry), at
# which the eigendecomposition log is kept rather than recomputed by logm.
_LOG_TOL_ROUND_TRIP = 1e-12
_HERMITIAN_TOL = 1e-10


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    _require_finite(a, name)
    return a


def _taylor_exp(a: np.ndarray) -> np.ndarray:
    """``exp`` of a square matrix, or of every matrix of a stack.

    The Taylor series with scaling and squaring (Moler and Van Loan, SIAM
    Rev. 45, 3 (2003)): one scaling for the whole stack brings every 1-norm
    to at most 1/2, where 14 terms leave a remainder below 1e-16. Real in,
    real out; complex input works the same way.
    """
    n = a.shape[-1]
    norm = float(np.abs(a).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise ValueError("matrix 1-norm overflows; its exponential is not representable")
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    scaled = a / 2.0**squarings
    out = np.eye(n) + scaled
    term = scaled
    for k in range(2, 15):
        term = term @ scaled
        term /= k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix (real in, real out)."""
    return _taylor_exp(_as_square(a, "a"))


def mat_log_real(s: np.ndarray) -> np.ndarray:
    """Principal real logarithm of a real square matrix.

    Computed from one eigendecomposition; a log whose exponential misses
    ``s`` by more than 1e-12 of its scale is recomputed by
    ``scipy.linalg.logm``.

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
    return _log_real_and_exp(s)[0]


def _log_real_and_exp(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mat_log_real(s)`` and its exponential, which checks it.

    ``L = V diag(log w) V^-1`` from one ``eig`` (Higham, Functions of
    Matrices, SIAM 2008, ch. 11). ``L`` is kept when ``exp(L)`` gives back
    ``s`` to ``_LOG_TOL_ROUND_TRIP``; otherwise ``V`` was singular or too
    ill-conditioned, and ``scipy.linalg.logm`` recomputes ``L``. Callers
    that report ``exp(L)`` take it from here rather than exponentiate
    again.
    """
    s = _as_square(s, "s")
    if np.iscomplexobj(s):
        if np.abs(s.imag).max() > 0:
            raise ValueError("mat_log_real expects a real matrix")
        s = s.real
    w, v = np.linalg.eig(s)
    scale = max(1.0, float(np.abs(w).max()))
    on_axis = (w.real <= 1e-12 * scale) & (np.abs(w.imag) <= 1e-12 * scale)
    if np.any(on_axis):
        bad = w[on_axis]
        raise LogBranchError(
            "matrix has eigenvalues on the closed negative real axis, "
            f"principal real log undefined: {bad}",
            bad,
        )
    try:
        log = (v * np.log(w)) @ np.linalg.inv(v)
        exp_log = mat_exp(log.real)
    except (np.linalg.LinAlgError, ValueError):  # V singular, or log not finite
        exp_log = None
    tol = _LOG_TOL_ROUND_TRIP * max(1.0, float(np.abs(s).max()))
    if exp_log is None or float(np.abs(exp_log - s).max()) > tol:
        import scipy.linalg

        log, exp_log = scipy.linalg.logm(s), None
    imag_resid = float(np.abs(log.imag).max()) if np.iscomplexobj(log) else 0.0
    if imag_resid > _LOG_TOL_IMAG:
        raise NonRealLogError(
            f"logarithm has imaginary residual {imag_resid:.3e} above tol_imag={_LOG_TOL_IMAG:.1e}"
        )
    log = log.real
    return log, mat_exp(log) if exp_log is None else exp_log


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
