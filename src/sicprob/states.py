"""States and measurements as probability vectors.

A density matrix and its SIC outcome distribution carry the same
information; this module converts between the two, tests whether a
probability vector corresponds to a positive state (qplex membership),
evaluates state overlaps directly on probability vectors, and expands
arbitrary POVMs into response-function matrices acting on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicalityError, _check_hermitian, _require_finite
from .sic import _TETRA, SicPovm

__all__ = [
    "MeasurementMap",
    "validate_density",
    "state_to_prob",
    "prob_to_state",
    "qplex_membership",
    "overlap",
    "measurement_map",
    "mub_from_sic",
    "sic_from_mub",
]


def validate_density(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array.

    Raises PhysicalityError with the violated property, or ValueError on a
    dimension mismatch or non-finite entries.
    """
    rho = np.asarray(rho, dtype=complex)
    # before the Hermitian check, whose PhysicalityError would take precedence
    if dim is not None and rho.ndim == 2 and rho.shape[0] != dim:
        raise ValueError(f"dimension mismatch: matrix is {rho.shape[0]}, SIC is {dim}")
    rho = _check_hermitian(rho, "density matrix")
    tr_dev = abs(complex(np.trace(rho)) - 1.0)
    if tr_dev > 1e-10:
        raise PhysicalityError(f"density matrix trace differs from 1 by {tr_dev:.3e}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if min_eig < -1e-9:
        raise PhysicalityError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return rho


def state_to_prob(rho: np.ndarray, s: SicPovm) -> np.ndarray:
    """SIC outcome probabilities ``p_i = Tr(rho P_i) / d`` of a state.

    The state must pass :func:`validate_density`; non-finite entries raise
    ValueError.
    """
    rho = validate_density(rho, s.dim)
    p = np.einsum("ab,iba->i", rho, s.projectors) / s.dim
    return p.real


def prob_to_state(p: np.ndarray, s: SicPovm) -> np.ndarray:
    """Reconstruct the operator ``sum_i [(d+1) p_i - 1/d] P_i``.

    The result is Hermitian with unit trace whenever ``p`` sums to 1, but
    positivity is not guaranteed for arbitrary input; that is the point of
    :func:`qplex_membership`. Entries are used as given, never clipped;
    non-finite ones raise ValueError.
    """
    p = np.asarray(p, dtype=float)
    d = s.dim
    if p.shape != (d * d,):
        raise ValueError(f"expected {d * d} probabilities, got shape {p.shape}")
    _require_finite(p, "probability vector")
    weights = (d + 1) * p - 1.0 / d
    return np.einsum("i,iab->ab", weights, s.projectors)


def qplex_membership(p: np.ndarray, s: SicPovm, tol: float = 1e-9) -> bool:
    """Whether ``p`` is the SIC distribution of some positive state.

    Exact test by reconstruction: true iff ``p`` sums to 1 within ``tol``
    and the operator rebuilt from ``p`` has minimum eigenvalue ``>= -tol``.
    Raises ValueError, rather than answering, for non-finite entries.
    """
    rho = prob_to_state(p, s)
    if abs(np.sum(p) - 1.0) > tol:
        return False
    rho = (rho + rho.conj().T) / 2
    return bool(np.linalg.eigvalsh(rho).min() >= -tol)


def overlap(p: np.ndarray, q: np.ndarray, d: int) -> float:
    """State overlap ``Tr(rho sigma) = d(d+1) <p,q> - 1`` from probabilities.

    For qplex members the result lies in ``[0, 1]``; the lower end is
    reached by orthogonal pure states, the upper by identical pure ones.
    Raises ValueError for vectors of the wrong length or non-finite entries.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.shape != (d * d,):
        raise ValueError(
            f"probability vectors must both have {d * d} entries, got {p.shape} and {q.shape}"
        )
    _require_finite(p, "probability vector")
    _require_finite(q, "probability vector")
    return float(d * (d + 1) * np.dot(p, q) - 1.0)


@dataclass(frozen=True)
class MeasurementMap:
    """Response matrices of a POVM in the probability representation.

    ``mmat[k, i] = Tr(E_k P_i)`` is column stochastic; ``bigm`` is the
    quasi-probability response ``(d+1) mmat - Tr(E_k)`` whose action on a
    state's probability vector returns the Born probabilities. ``bigm``
    columns sum to 1 but entries may be negative.
    """

    mmat: np.ndarray
    bigm: np.ndarray


def measurement_map(effects: np.ndarray, s: SicPovm) -> MeasurementMap:
    """Expand a POVM into its probability-space response matrices.

    Parameters
    ----------
    effects : array_like
        Shape ``(m, d, d)``, the POVM elements. Each must be finite,
        Hermitian and PSD, and together they must resolve the identity.
    s : SicPovm
        The reference SIC.
    """
    effects = np.asarray(effects, dtype=complex)
    d = s.dim
    if effects.ndim != 3 or effects.shape[1:] != (d, d):
        raise ValueError(f"effects must have shape (m, {d}, {d}), got {effects.shape}")
    _require_finite(effects, "effects")
    for k, e in enumerate(effects):
        if np.abs(e - e.conj().T).max() > 1e-9:
            raise PhysicalityError(f"effect {k} is not Hermitian")
        if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < -1e-9:
            raise PhysicalityError(f"effect {k} is not positive semidefinite")
    res_dev = float(np.abs(effects.sum(axis=0) - np.eye(d)).max())
    if res_dev > 1e-9:
        raise PhysicalityError(f"effects do not resolve the identity: dev {res_dev:.3e}")
    mmat = np.einsum("kab,iba->ki", effects, s.projectors).real
    traces = np.einsum("kaa->k", effects).real
    bigm = (d + 1) * mmat - traces[:, None]
    return MeasurementMap(mmat=mmat, bigm=bigm)


# Conversion between the qubit SIC distribution and the three mutually
# unbiased basis probabilities (projections on the x, y and z axes of the
# Bloch sphere). For the effects (I + sigma_k)/2 against the builtin SIC,
# whose Bloch vectors are the rows of _TETRA over sqrt(3), the response
# formula of measurement_map gives F = 1/2 + (sqrt(3)/2) _TETRA^T; the affine
# inverse (T, c) is exact.
_S3 = np.sqrt(3.0)
_MUB_F = 0.5 + (_S3 / 2.0) * _TETRA.T
_MUB_T = (_S3 / 6.0) * _TETRA
_MUB_C = np.array([3 - _S3, 3 - _S3, 3 - _S3, 3 + 3 * _S3]) / 12.0


def mub_from_sic(p: np.ndarray) -> np.ndarray:
    """Qubit MUB probabilities ``(p_x, p_y, p_z)`` from a SIC vector."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"expected a 4-entry qubit probability vector, got {p.shape}")
    _require_finite(p, "probability vector")
    return _MUB_F @ p


def sic_from_mub(ptilde: np.ndarray) -> np.ndarray:
    """Inverse of :func:`mub_from_sic`: ``p = T ptilde + c``."""
    ptilde = np.asarray(ptilde, dtype=float)
    if ptilde.shape != (3,):
        raise ValueError(f"expected 3 MUB probabilities, got shape {ptilde.shape}")
    _require_finite(ptilde, "MUB probabilities")
    return _MUB_T @ ptilde + _MUB_C
