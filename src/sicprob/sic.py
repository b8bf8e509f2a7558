"""Symmetric informationally complete POVMs and the frame change they induce.

A SIC for dimension ``d`` is a set of ``d**2`` rank-1 projectors with
pairwise overlaps ``Tr(P_i P_j) = (d*delta_ij + 1)/(d + 1)`` resolving the
identity as ``sum_i P_i = d * I``. Measuring the POVM ``{P_i / d}`` turns
states into probability vectors; the ``K`` matrix built here is the linear
map between density-matrix space (row-major vectorized) and that probability
space, and nearly every other module consumes it.

Vectorization convention: ``vec(A)`` flattens row-major, so
``vec(U A V^H) = kron(U, V.conj()) @ vec(A)`` and
``Tr(A^H B) = vec(A).conj() @ vec(B)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError, PhysicalityError, _require_finite

__all__ = [
    "Fiducial",
    "SicPovm",
    "SicReport",
    "builtin_qubit",
    "from_fiducial",
    "verify",
    "kmatrix",
    "fingerprint",
]


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a matrix."""
    return np.asarray(a).reshape(-1)


@dataclass(frozen=True)
class Fiducial:
    """A normalized vector whose Weyl-Heisenberg orbit forms a SIC; its
    dimension is the length of ``amplitudes``."""

    amplitudes: np.ndarray


@dataclass(frozen=True, eq=False)
class SicPovm:
    """A verified SIC: projectors plus the cached frame-change matrices.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension ``d``.
    projectors : np.ndarray
        Shape ``(d**2, d, d)``, the rank-1 projectors ``P_i``.
    kmat : np.ndarray
        Columns are ``vec((d+1) P_i - I)``; maps probability vectors to
        vectorized operators.
    kinv : np.ndarray
        Rows are ``vec(P_i).conj() / d``; the exact inverse of ``kmat``.
    """

    dim: int
    projectors: np.ndarray
    kmat: np.ndarray
    kinv: np.ndarray


def _require_sic(**sics) -> None:
    """Raise TypeError, naming the argument, unless each value is a SicPovm
    (and not, say, a basis stack built from one)."""
    for what, s in sics.items():
        if not isinstance(s, SicPovm):
            raise TypeError(f"{what} must be a SicPovm, got {type(s).__name__}")


@dataclass(frozen=True)
class SicReport:
    """Deviations of a candidate projector family from the SIC conditions."""

    ok: bool
    max_projector_dev: float
    max_gram_dev: float
    max_resolution_dev: float


def _build(projectors: np.ndarray) -> SicPovm:
    projectors = np.asarray(projectors, dtype=complex)
    n, d, d2 = projectors.shape
    assert d == d2 and n == d * d
    eye = np.eye(d)
    kmat = np.stack([vec((d + 1) * p - eye) for p in projectors], axis=1)
    kinv = np.stack([vec(p).conj() / d for p in projectors], axis=0)
    resid = np.abs(kinv @ kmat - np.eye(d * d)).max()
    if resid > 1e-10:
        raise PhysicalityError(
            f"frame-change matrices are inconsistent (|K^-1 K - I| = {resid:.3e}); "
            "the projector family is not a SIC"
        )
    return SicPovm(dim=d, projectors=projectors, kmat=kmat, kinv=kinv)


_SIC_TOL = 1e-8  # the largest deviation from a SIC condition that verify accepts

# Signs of the Bloch vectors of the builtin qubit SIC, one vertex of the
# tetrahedron per row
_TETRA = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1]], dtype=float)


def builtin_qubit() -> SicPovm:
    """The tetrahedral qubit SIC.

    Bloch vectors ``(1,-1,1), (1,1,-1), (-1,1,1), (-1,-1,-1)`` scaled by
    ``1/sqrt(3)``, each projector ``(I + r . sigma)/2``.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    bloch = _TETRA / np.sqrt(3)
    projectors = np.stack(
        [(eye + r[0] * sx + r[1] * sy + r[2] * sz) / 2 for r in bloch]
    )
    return _build(projectors)


def _wh_orbit(psi: np.ndarray) -> np.ndarray:
    """Projectors onto ``X^a Z^b psi`` for all shifts and phases."""
    d = psi.shape[0]
    omega = np.exp(2j * np.pi / d)
    zdiag = omega ** np.arange(d)
    states = []
    for a in range(d):
        for b in range(d):
            v = zdiag**b * psi
            v = np.roll(v, a)
            states.append(v)
    return np.stack([np.outer(v, v.conj()) for v in states])


def from_fiducial(fid: Fiducial | np.ndarray) -> SicPovm:
    """Construct a SIC as the Weyl-Heisenberg orbit of a fiducial vector.

    The displacement operators are ``X^a Z^b`` with ``X`` the cyclic shift
    and ``Z = diag(omega^j)``, ``omega = exp(2 pi i / d)``. The resulting
    family is verified, as :func:`verify` does, before it is returned.

    Raises
    ------
    ValueError
        If the fiducial is not a vector or has non-finite entries.
    PhysicalityError
        If the vector is not normalized, or its orbit misses a SIC
        condition: the projector and resolution conditions by more than
        1e-8, or the Gram overlaps by more than ``d/(d+1) 1e-10``, which
        the check of the frame-change matrices bounds.
    """
    psi = np.asarray(fid.amplitudes if isinstance(fid, Fiducial) else fid, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"fiducial must be a vector, got shape {psi.shape}")
    _require_finite(psi, "fiducial vector")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-12:
        raise PhysicalityError(f"fiducial vector is not normalized: |psi| = {norm!r}")
    projectors = _wh_orbit(psi)
    report = _verify_projectors(projectors)
    if not report.ok:
        raise PhysicalityError(
            "Weyl-Heisenberg orbit is not a SIC: "
            f"projector dev {report.max_projector_dev:.3e}, "
            f"gram dev {report.max_gram_dev:.3e}, "
            f"resolution dev {report.max_resolution_dev:.3e} (tol {_SIC_TOL:.1e})"
        )
    return _build(projectors)


def _verify_projectors(projectors: np.ndarray) -> SicReport:
    n = projectors.shape[0]
    d = projectors.shape[1]
    proj_dev = 0.0
    for p in projectors:
        proj_dev = max(proj_dev, float(np.abs(p @ p - p).max()))
        proj_dev = max(proj_dev, float(np.abs(p - p.conj().T).max()))
        proj_dev = max(proj_dev, abs(float(np.trace(p).real) - 1.0))
    gram = np.einsum("iab,jba->ij", projectors, projectors)
    target = (d * np.eye(n) + 1.0) / (d + 1)
    gram_dev = float(np.abs(gram - target).max())
    res_dev = float(np.abs(projectors.sum(axis=0) - d * np.eye(d)).max())
    ok = proj_dev <= _SIC_TOL and gram_dev <= _SIC_TOL and res_dev <= _SIC_TOL
    return SicReport(
        ok=ok,
        max_projector_dev=proj_dev,
        max_gram_dev=gram_dev,
        max_resolution_dev=res_dev,
    )


def verify(s: SicPovm) -> SicReport:
    """Report how far a SicPovm's projectors deviate from the SIC conditions.

    ``ok`` when every deviation is at most 1e-8. Never raises; callers
    decide what to do with a failing report.
    """
    return _verify_projectors(s.projectors)


def kmatrix(s: SicPovm) -> tuple[np.ndarray, np.ndarray]:
    """The frame-change pair ``(K, K^-1)`` for a SIC.

    ``K`` has columns ``vec((d+1) P_i - I)`` and satisfies
    ``Tr(K_i P_j) = d * delta_ij``, which makes ``K^-1`` available in closed
    form with rows ``vec(P_i).conj() / d``; no matrix inversion happens here.
    """
    return s.kmat, s.kinv


def _to_frame(m: np.ndarray, s_out: SicPovm, s_in: SicPovm, what: str, tol: float) -> np.ndarray:
    """Real part of ``K_out^-1 m K_in``, the superoperator ``m`` in the frame.

    Raises NumericalDomainError naming ``what`` if the imaginary part exceeds ``tol``.
    """
    out = s_out.kinv @ m @ s_in.kmat
    imag = float(np.abs(out.imag).max())
    if imag > tol:
        raise NumericalDomainError(f"{what} has imaginary residual {imag:.3e}")
    return out.real


def fingerprint(s: SicPovm) -> str:
    """Short stable hash of the projector family, for output provenance."""
    import hashlib  # here, not at the top: nothing else needs it, and it costs ~8 ms

    h = hashlib.sha256()
    h.update(str(s.dim).encode())
    h.update(np.round(s.projectors, 12).tobytes())
    return h.hexdigest()[:16]
