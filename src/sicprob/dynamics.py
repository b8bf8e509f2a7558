"""Generators of quantum dynamics acting on probability vectors.

Unitary evolution becomes rotation by orthogonal pseudobistochastic
matrices, open GKSL evolution becomes a pseudo-Kolmogorov generator (real,
zero column sums, possibly negative off-diagonal rates). This module
builds the Hermitian operator basis, the antisymmetric generator basis
spanning all Hamiltonian dynamics, the full GKSL-to-generator conversion,
and the two projections: onto the unitary subspace and onto the cone of
valid time-independent dissipative parts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    NumericalDomainError,
    OptimizerError,
    _check_hermitian,
    _require_finite,
    _require_int,
)
from .linalg import frobenius_dist, mat_exp
from .sic import SicPovm, _require_sic, _to_frame

__all__ = [
    "Generator",
    "GkslSpec",
    "basis_sigma",
    "hgen_from_hamiltonian",
    "basis_hunit",
    "project_unit",
    "evolve_unitary",
    "evolve_time_ordered",
    "lgen_from_gksl",
    "kolmogorov_matrix",
    "omega_basis",
    "dgen_from_v",
    "project_mark",
]


@dataclass(frozen=True)
class Generator:
    """A pseudo-Kolmogorov generator, optionally split into its parts.

    ``matrix`` has zero column sums. When both parts are present,
    ``matrix = h_part + d_part`` with ``h_part`` the antisymmetric
    Hamiltonian piece and ``d_part`` the dissipative remainder.
    """

    matrix: np.ndarray
    h_part: np.ndarray | None = None
    d_part: np.ndarray | None = None


@dataclass(frozen=True)
class GkslSpec:
    """Hamiltonian plus noise operators defining a GKSL master equation."""

    dim: int
    hamiltonian: np.ndarray
    noise_ops: tuple[np.ndarray, ...] = field(default_factory=tuple)


def as_matrix(g: Generator | np.ndarray) -> np.ndarray:
    """Accept either a Generator bundle or a bare matrix."""
    if isinstance(g, Generator):
        return g.matrix
    return np.asarray(g, dtype=float)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def basis_sigma(d: int) -> np.ndarray:
    """Hermitian operator basis with ``Tr(sigma_i sigma_j) = 2 delta_ij``.

    Generalized Gell-Mann ordering: symmetric pair matrices
    (lexicographic), antisymmetric pair matrices (lexicographic), diagonal
    matrices in ascending size, and finally ``sqrt(2/d) I``. For ``d = 2``
    this is exactly ``(sigma_x, sigma_y, sigma_z, I)``. Built once per
    ``d``; the returned array is read-only.
    """
    # a plain function over the cache, so that tools that wrap the public
    # functions of the package (tracers, monkeypatching tests) still see it
    return _sigma_stack(d)


@functools.lru_cache(maxsize=None)
def _sigma_stack(d: int) -> np.ndarray:
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1
            m[k, j] = 1
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        coeff = math.sqrt(2.0 / (l * (l + 1)))
        for mm in range(l):
            m[mm, mm] = coeff
        m[l, l] = -l * coeff
        mats.append(m)
    mats.append(math.sqrt(2.0 / d) * np.eye(d, dtype=complex))
    return _read_only(np.stack(mats))


def _commutator_superop(c: np.ndarray) -> np.ndarray:
    """``-i (C (x) I - I (x) C.conj())``, the superoperator of ``X -> -i (C X - X C^H)``."""
    eye = np.eye(len(c))
    return -1j * (np.kron(c, eye) - np.kron(eye, c.conj()))


def hgen_from_hamiltonian(h: np.ndarray, s: SicPovm) -> np.ndarray:
    """Hamiltonian part ``-i K^-1 (H (x) I - I (x) H.conj()) K``.

    Real, antisymmetric, zero row and column sums; depends only on the
    traceless part of ``H``.
    """
    h = _check_hermitian(h, "Hamiltonian")
    d = s.dim
    if h.shape[0] != d:
        raise ValueError(f"Hamiltonian dimension {h.shape[0]} does not match SIC {d}")
    return _to_frame(_commutator_superop(h), s, s, "generator", 1e-10)


def basis_hunit(s: SicPovm) -> np.ndarray:
    """The ``d^2 - 1`` antisymmetric matrices spanning unitary generators.

    Built by feeding each traceless basis element through the Hamiltonian
    construction; normalized so ``Tr(H_i H_j^T) = 4 d delta_ij``. Built
    once per SIC, read-only. Raises TypeError unless ``s`` is a SicPovm.
    """
    _require_sic(s=s)
    return _sic_ops(s).hunit


def _hunit_stack(s: SicPovm, sig: np.ndarray) -> np.ndarray:
    out = []
    for sig_i in sig:
        out.append(_to_frame(_commutator_superop(sig_i), s, s, "generator", 1e-10))
    return np.stack(out)


def project_unit(m: np.ndarray, s: SicPovm) -> np.ndarray:
    """Orthogonal projection onto the span of the unitary generators of ``s``.

    ``P(M) = sum_i Tr(H_i^T M) H_i / (4 d)`` over ``basis_hunit(s)``;
    idempotent, and the identity on any Hamiltonian-generated matrix.
    Raises TypeError unless ``s`` is a SicPovm, and ValueError unless
    ``m`` is a finite ``d^2 x d^2`` matrix.
    """
    b = basis_hunit(s)
    n = s.dim * s.dim
    m = np.asarray(m, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape}, expected ({n}, {n})")
    _require_finite(m, "matrix")
    coeffs = np.einsum("iab,ab->i", b, m)
    return np.einsum("i,iab->ab", coeffs, b) / (4.0 * s.dim)


def evolve_unitary(g: Generator | np.ndarray, t: float, s: SicPovm) -> np.ndarray:
    """Rotation matrix ``exp(H t)`` for a unitary-part generator.

    The SIC ``s`` is needed to check that ``g`` actually lies in the
    unitary subspace (within 1e-8), which is what guarantees the result is
    orthogonal and pseudobistochastic.
    """
    h = as_matrix(g)
    proj = project_unit(h, s)
    dev = math.sqrt(frobenius_dist(proj, h))
    scale = max(1.0, math.sqrt(float(np.sum(h * h))))
    if dev > 1e-8 * scale:
        raise ValueError(
            f"generator is not in the unitary subspace (projection residual {dev:.3e})"
        )
    return mat_exp(h * float(t))


def evolve_time_ordered(gen_fn, t: float, steps: int | None = None) -> np.ndarray:
    """Time-ordered evolution by midpoint-rule product integration.

    ``gen_fn(t)`` returns the generator at time ``t`` (matrix or
    Generator). Defaults to 1000 steps per unit time. Later factors
    multiply from the left, matching the time-ordering convention. Raises
    ValueError for a non-finite ``t``, or unless ``steps`` is an integer
    (not a bool) of at least 1.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if steps is None:
        steps = max(1, math.ceil(1000 * abs(t)))
    _require_int(steps, "steps", 1)
    dt = t / steps
    lk = as_matrix(gen_fn(0.5 * dt))
    u = np.eye(lk.shape[0])
    for k in range(steps):
        if k:
            lk = as_matrix(gen_fn((k + 0.5) * dt))
        u = mat_exp(lk * dt) @ u
    return u


def _gksl_superop(spec: GkslSpec) -> np.ndarray:
    """``Lambda = -i (C (x) I - I (x) C.conj()) + sum_k V_k (x) V_k.conj()``,
    ``C = H - (i/2) sum_k V_k^H V_k``: the superoperator of the GKSL map,
    from a checked spec (``spec.dim`` must be the Hamiltonian's dimension)."""
    h = _check_hermitian(spec.hamiltonian, "Hamiltonian")
    d = h.shape[0]
    if spec.dim != d:
        raise ValueError(f"spec.dim is {spec.dim} but the Hamiltonian is {d}x{d}")
    noise = [np.asarray(v, dtype=complex) for v in spec.noise_ops]
    for v in noise:
        if v.shape != (d, d):
            raise ValueError(f"noise operator shape {v.shape}, expected ({d}, {d})")
        _require_finite(v, "noise operator")
    c = h - 0.5j * sum((v.conj().T @ v for v in noise), start=np.zeros((d, d), complex))
    jumps = sum((np.kron(v, v.conj()) for v in noise), start=np.zeros((d * d, d * d), complex))
    return _commutator_superop(c) + jumps


def lgen_from_gksl(spec: GkslSpec, s: SicPovm) -> Generator:
    """Pseudo-Kolmogorov generator of a GKSL master equation.

    Conjugates the superoperator ``Lambda`` of the GKSL map
    (``_gksl_superop``) with the frame change. The result carries its
    Hamiltonian part and the dissipative remainder. Raises ValueError when
    ``spec.dim`` is not the dimension of the Hamiltonian or of the SIC.

    Noise operators with a nonzero trace are allowed: the identity
    component of ``V = V0 + c I`` acts as the extra Hamiltonian
    ``(i/2)(c* V0 - c V0^H)``, so the returned split folds it into
    ``h_part`` and leaves ``d_part`` a genuine traceless-noise dissipator.
    """
    lam = _gksl_superop(spec)
    d = s.dim
    if spec.dim != d:
        raise ValueError(f"Hamiltonian dimension {spec.dim} does not match SIC {d}")
    lmat = _to_frame(lam, s, s, "generator", 1e-8)
    eye = np.eye(d)
    h_eff = np.array(spec.hamiltonian, dtype=complex)
    for v in spec.noise_ops:
        v = np.asarray(v, dtype=complex)
        trace_coef = np.trace(v) / d
        v0 = v - trace_coef * eye
        h_eff += 0.5j * (np.conj(trace_coef) * v0 - trace_coef * v0.conj().T)
    h_part = hgen_from_hamiltonian(h_eff, s)
    return Generator(lmat, h_part=h_part, d_part=lmat - h_part)


def kolmogorov_matrix(spec: GkslSpec, basis_states: np.ndarray | None = None) -> np.ndarray:
    """Classical rate matrix ``Tr[P_i L(P_j)]`` over an orthonormal basis.

    ``basis_states`` holds the vectors as columns; defaults to the
    computational basis. Off-diagonals are nonnegative and columns sum to
    zero, so this is a genuine Kolmogorov generator on the diagonal.
    """
    lam = _gksl_superop(spec)
    d = spec.dim
    basis_states = np.asarray(np.eye(d) if basis_states is None else basis_states, dtype=complex)
    _require_finite(basis_states, "basis states")
    ortho_dev = float(np.abs(basis_states.conj().T @ basis_states - np.eye(d)).max())
    if ortho_dev > 1e-10:
        raise ValueError(f"basis states are not orthonormal: dev {ortho_dev:.3e}")
    # row i is vec(P_i), P_i = |b_i><b_i|, so Tr[P_i L(P_j)] = (V* Lambda V^T)_ij
    vecs = np.einsum("ai,bi->iab", basis_states, basis_states.conj()).reshape(d, d * d)
    return (vecs.conj() @ lam @ vecs.T).real


def omega_basis(s: SicPovm) -> np.ndarray:
    """Dissipator basis family, indexed ``[i, j]`` over traceless basis pairs.

    ``Omega_ij = K^-1 (sigma_i (x) sigma_j.conj()
    - (sigma_j sigma_i (x) I)/2 - (I (x) (sigma_i sigma_j).conj())/2) K``
    over the traceless ``basis_sigma(d)[:-1]`` (the identity direction
    belongs to the Hamiltonian sector, not here); any PSD combination
    ``sum_ij P_ij Omega_ij`` is a valid dissipative part. Each element has
    zero column sums. Built once per SIC, read-only. Raises TypeError
    unless ``s`` is a SicPovm.
    """
    _require_sic(s=s)
    return _sic_ops(s).omega


def _theta_stack(sic_in: SicPovm, sic_out: SicPovm, sig: np.ndarray) -> np.ndarray:
    """Channel basis elements ``K_out^-1 (sigma_i (x) sigma_j.conj()) K_in``.

    The conjugate on the second factor is what makes ``sum P_ij Theta_ij``
    with PSD ``P`` exactly the CP channels; without it the Choi state of
    the expansion is not PSD-equivalent to ``P``.
    """
    d = sic_in.dim
    n = d * d
    kinv4 = sic_out.kinv.reshape(n, d, d)
    kmat4 = sic_in.kmat.reshape(d, d, n)
    return np.einsum("ace,icf,jeg,fgb->ijab", kinv4, sig, sig.conj(), kmat4, optimize=True)


def _cptp_maps(sic_in: SicPovm, sic_out: SicPovm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Theta`` over ``basis_sigma(d)`` and ``project_cptp``'s real maps: ``F``
    takes ``[vec Re P, vec Im P]`` to ``[vec S_model, vec Re T, vec Im T]``, with
    ``S_model = (sum_ij P_ij Theta_ij).real`` and ``T = sum_ij P_ij sigma_j
    sigma_i``, and ``U``, ``2 F^T`` then symmetrized, takes a weighted residual
    ``r`` to ``[G_r + G_r^T | G_i^T - G_i]``, with ``[vec G_r, vec G_i] = 2 F r``."""
    n = sic_in.dim**2
    sig = _sigma_stack(sic_in.dim)
    theta = _theta_stack(sic_in, sic_out, sig)
    quad = np.einsum("iab,jbc->ijac", sig, sig)  # sigma_i sigma_j
    fold = np.concatenate([theta.reshape(n * n, -1), quad.swapaxes(0, 1).reshape(n * n, -1)], 1)
    fmap = np.block([[fold.real, fold[:, n * n :].imag], [-fold.imag, fold[:, n * n :].real]])
    g_r, g_i = 2.0 * fmap.T.reshape(-1, 2, n, n).transpose(1, 0, 2, 3)
    umap = np.concatenate([g_r + g_r.swapaxes(1, 2), g_i.swapaxes(1, 2) - g_i], 2)
    return theta, fmap, umap.reshape(len(fmap.T), 2 * n * n)


def _omega_stack(s: SicPovm, sig: np.ndarray, jump: np.ndarray) -> np.ndarray:
    d = s.dim
    n = d * d
    kinv4 = s.kinv.reshape(n, d, d)
    kmat4 = s.kmat.reshape(d, d, n)
    prod = np.einsum("iab,jbc->ijac", sig, sig)  # sigma_i sigma_j
    # K^-1 (sigma_j sigma_i (x) I) K and K^-1 (I (x) (sigma_i sigma_j).conj()) K
    left = np.einsum("xab,ijac,cby->jixy", kinv4, prod, kmat4, optimize=True)
    right = np.einsum("xab,ijbe,aey->ijxy", kinv4, prod.conj(), kmat4, optimize=True)
    return jump - 0.5 * (left + right)


def dgen_from_v(vmat: np.ndarray, s: SicPovm) -> np.ndarray:
    """Dissipative part ``sum_ij (V V^H)_ij Omega_ij`` over ``omega_basis(s)``;
    ValueError unless the coefficient matrix ``V`` is finite with ``d^2 - 1`` rows."""
    omega = omega_basis(s)
    vmat = np.asarray(vmat, dtype=complex)
    if vmat.ndim != 2 or len(vmat) != len(omega):
        raise ValueError(f"coefficient matrix shape {vmat.shape}, expected {len(omega)} rows")
    _require_finite(vmat, "coefficient matrix")
    p = vmat @ vmat.conj().T
    d = np.einsum("ij,ijab->ab", p, omega)
    imag = float(np.abs(d.imag).max())
    if imag > 1e-8:
        raise NumericalDomainError(f"dissipator has imaginary residual {imag:.3e}")
    return d.real


# ADMM penalty, over-relaxation, tolerance and iteration cap of project_mark
_ADMM_RHO = 4.0
_ADMM_RELAX = 1.6
_ADMM_TOL = 1e-13
_ADMM_MAX_ITER = 500


class _SicOps(NamedTuple):
    """Operators of one SIC that the projections reuse, all read-only."""

    sigma: np.ndarray  # traceless part of basis_sigma(d), shape (m, d, d)
    hunit: np.ndarray  # basis_hunit(s)
    omega: np.ndarray  # omega_basis(s)
    amat: np.ndarray  # Omega as a real map: P.view(float) -> sum_ij P_ij Omega_ij
    solve: np.ndarray  # (A^T A + rho I)^-1, the linear solve of each ADMM step
    theta: np.ndarray  # Theta over basis_sigma(d), then project_cptp's real
    fmap: np.ndarray  # forward and adjoint maps F and U: _cptp_maps(s, s)
    umap: np.ndarray


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix by Gauss-Jordan elimination without
    pivoting, in elementwise NumPy: no BLAS call, so its bits do not depend on
    the number of BLAS threads (``np.linalg.inv``'s do at d=3)."""
    n = len(a)
    aug = np.concatenate([a, np.eye(n)], 1)
    for k in range(n):
        band = aug[:, k : n + k + 1]  # row k is 0 outside it, so the rest stays
        band[k] /= band[k, 0]
        col = band[:, 0].copy()
        col[k] = 0.0
        band -= col[:, None] * band[k]
    return aug[:, n:]


@functools.lru_cache(maxsize=16)
def _sic_ops(s: SicPovm) -> _SicOps:
    """Build the operators of ``s`` once; ``SicPovm`` hashes by identity."""
    n = s.dim * s.dim
    # not basis_sigma: building the cache calls no public function, so
    # per-function call counts do not depend on whether the cache is warm
    sig = _sigma_stack(s.dim)[:-1]
    m = sig.shape[0]
    maps = _cptp_maps(s, s)
    omega = _omega_stack(s, sig, maps[0][:-1, :-1])
    flat = omega.reshape(m * m, n * n).T
    # interleaved (Re P_ij, Im P_ij) columns: a complex P viewed as floats
    amat = np.stack([flat.real, -flat.imag], axis=-1).reshape(n * n, 2 * m * m)
    solve = _inverse(amat.T @ amat + _ADMM_RHO * np.eye(2 * m * m))
    arrays = (_hunit_stack(s, sig), omega, amat, solve, *maps)
    return _SicOps(sig, *map(_read_only, arrays))


def project_mark(dtilde: np.ndarray, s: SicPovm) -> tuple[np.ndarray, float]:
    """Closest valid dissipative part to an arbitrary real matrix.

    Minimizes the Frobenius distance of ``sum_ij P_ij Omega_ij`` to
    ``dtilde`` over Hermitian PSD coefficient matrices ``P``. That is a
    convex problem, solved exactly by ADMM (Boyd et al., Found. Trends
    Mach. Learn. 3, 1 (2011)) with the split ``P = Z``, ``Z`` PSD: the
    ``P``-step is one linear solve with a matrix built once per SIC, the
    ``Z``-step clips the eigenvalues of the Hermitian part at zero, and the
    step is over-relaxed by 1.6 (Boyd et al., section 3.4.3). The
    iteration stops when the largest entries of the primal and the dual
    residual are both at most ``1e-13 max(1, max|dtilde|)``. Returns the
    projected matrix, built from the PSD iterate ``Z`` so that it is a
    valid dissipative part, and the Frobenius norm of the residual. The
    solve is exact, so it takes no restarts and no seed.

    Raises ValueError for a matrix of the wrong shape or with non-finite
    entries, and OptimizerError if the iteration has not converged within
    500 steps.
    """
    n = s.dim * s.dim
    dtilde = np.asarray(dtilde, dtype=float)
    if dtilde.shape != (n, n):
        raise ValueError(f"matrix shape {dtilde.shape}, expected ({n}, {n})")
    _require_finite(dtilde, "matrix")
    ops = _sic_ops(s)
    dproj = (ops.amat @ _mark_coefficients(dtilde, ops)).reshape(n, n)
    return dproj, math.sqrt(frobenius_dist(dproj, dtilde))


def _mark_coefficients(dtilde: np.ndarray, ops: _SicOps) -> np.ndarray:
    """PSD iterate ``Z`` of ``project_mark``'s ADMM, as ``Z.view(float)``."""
    m = len(ops.sigma)
    q = ops.solve @ (ops.amat.T @ dtilde.reshape(-1))
    step = _ADMM_RHO * ops.solve
    tol = _ADMM_TOL * max(1.0, float(np.abs(dtilde).max()))
    z = np.zeros_like(q)
    u = np.zeros_like(q)
    for _ in range(_ADMM_MAX_ITER):
        p = q + step @ (z - u)
        w = _ADMM_RELAX * p + (1.0 - _ADMM_RELAX) * z + u
        h = w.view(complex).reshape(m, m)
        vals, vecs = np.linalg.eigh(h + h.conj().T)
        z_new = ((vecs * np.maximum(0.5 * vals, 0.0)) @ vecs.conj().T).view(float).ravel()
        primal = float(np.abs(p - z_new).max())
        dual = _ADMM_RHO * float(np.abs(z_new - z).max())
        u = w - z_new
        z = z_new
        if primal <= tol and dual <= tol:
            return z
    raise OptimizerError(
        f"Markov projection did not converge in {_ADMM_MAX_ITER} ADMM iterations "
        f"(primal residual {primal:.1e}, dual residual {dual:.1e})"
    )
