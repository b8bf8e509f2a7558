"""Typed exceptions shared across the package.

The CLI maps these onto process exit codes, so the distinctions matter:
malformed input data, physically invalid quantum objects, numerical domain
failures (matrix-log branch problems and friends), and optimizer
non-convergence are all different failure modes.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "PhysicalityError",
    "NumericalDomainError",
    "LogBranchError",
    "NonRealLogError",
    "OptimizerError",
]


class PhysicalityError(ValueError):
    """An object fails a quantum-mechanical validity requirement.

    Raised for non-PSD density matrices, POVMs that do not resolve the
    identity, Kraus sets that are not trace preserving, vectors whose
    Weyl-Heisenberg orbit is not equiangular, and similar violations.
    """


class NumericalDomainError(ValueError):
    """A computation left the domain where its result is well defined."""


class LogBranchError(NumericalDomainError):
    """The principal matrix logarithm is undefined or ambiguous.

    Carries the offending eigenvalues in ``args`` so callers can report
    which part of the spectrum sits on the closed negative real axis.
    """


class NonRealLogError(NumericalDomainError):
    """A logarithm expected to be real carries too much imaginary part."""


class OptimizerError(RuntimeError):
    """No optimizer restart reached the requested convergence criteria."""


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError (CLI exit 2) if ``a`` holds a NaN or an infinity.

    Conversions, decoders and kernels call this before their physical
    checks: NaN fails every ``<``/``>`` test silently, so those checks
    would otherwise let it through.
    """
    # count_nonzero is a single C call; ndarray.all() costs several times as
    # much on the small arrays this package handles
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{what} contains non-finite entries")


def _require_tol(tol: float, what: str) -> None:
    """Raise ValueError unless ``tol`` is a finite number of at least 0: a
    NaN, negative or infinite tolerance would decide a check silently."""
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"{what} must be a finite nonnegative number, got {tol!r}")


def _require_int(value, what: str, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {value!r}")


def _check_hermitian(h: np.ndarray, what: str) -> np.ndarray:
    """``h`` as a complex array; ValueError unless square and finite,
    PhysicalityError unless Hermitian to 1e-10."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{what} must be square, got shape {h.shape}")
    _require_finite(h, what)
    dev = float(np.abs(h - h.conj().T).max())
    if dev > 1e-10:
        raise PhysicalityError(f"{what} is not Hermitian: max dev {dev:.3e}")
    return h
