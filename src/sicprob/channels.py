"""Quantum channels as pseudostochastic matrices on probability vectors.

A channel acts on SIC probability vectors by an affine-free linear map: a
real matrix whose columns sum to 1 but whose entries may be negative.
This module builds that matrix from Kraus operators, converts to and from
Choi states, verifies complete positivity, projects noisy matrices onto
the CPTP set, and provides two positive-but-not-completely-positive
reference maps for contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import OptConfig
from .errors import NumericalDomainError, OptimizerError, PhysicalityError, _require_finite
from .sic import SicPovm, _to_frame

__all__ = [
    "CptpReport",
    "kraus_to_pstoch",
    "builtin_ptp",
    "pstoch_to_choi",
    "choi_to_pstoch",
    "is_cptp",
    "project_cptp",
    "compose",
    "apply",
]


def _stack_kraus(kraus) -> np.ndarray:
    """The Kraus set as one ``(m, d_out, d_in)`` array, checked to be TP to 1e-9."""
    if len(kraus) == 0:
        raise ValueError("empty Kraus set")
    try:
        ops = np.array(kraus, dtype=complex)
    except ValueError as exc:
        raise ValueError("Kraus operators have inconsistent shapes") from exc
    if ops.ndim != 3:
        raise ValueError(f"Kraus set must be a list of matrices, got shape {ops.shape}")
    _require_finite(ops, "Kraus set")
    total = np.einsum("mki,mkj->ij", ops.conj(), ops)
    dev = float(np.abs(total - np.eye(ops.shape[2])).max())
    if dev > 1e-9:
        raise PhysicalityError(f"Kraus set is not trace preserving: |sum A^H A - I| = {dev:.3e}")
    return ops


def kraus_to_pstoch(
    kraus: list[np.ndarray] | np.ndarray,
    sic_in: SicPovm,
    sic_out: SicPovm,
) -> np.ndarray:
    """Pseudostochastic matrix ``K_out^-1 (sum_k A_k (x) A_k.conj()) K_in``.

    Raises ValueError for an empty, ragged or non-finite Kraus set,
    PhysicalityError for a non-trace-preserving one and
    NumericalDomainError if the result fails to be real to 1e-8.
    """
    ops = _stack_kraus(kraus)
    _, d_out, d_in = ops.shape
    if d_in != sic_in.dim or d_out != sic_out.dim:
        raise ValueError(
            f"Kraus shape ({d_out}, {d_in}) does not match SICs ({sic_out.dim}, {sic_in.dim})"
        )
    # sum_k kron(A_k, conj(A_k)) as one contraction over the stacked set
    amat = np.einsum("mij,mkl->ikjl", ops, ops.conj()).reshape(d_out * d_out, d_in * d_in)
    return _to_frame(amat, sic_out, sic_in, "channel matrix", 1e-8)


def builtin_ptp(name: str, sic: SicPovm) -> np.ndarray:
    """Positive trace-preserving (but not CP) example maps.

    ``"transposition"`` is ``X -> X^T``, whose superoperator swaps the two
    indices of ``vec(X)``; ``"reduction"`` is ``X -> (Tr(X) I - X)/(d-1)``,
    with superoperator ``(vec(I) vec(I)^T - I)/(d-1)``. Both are unital, so
    their matrices are pseudobistochastic; neither passes :func:`is_cptp`.
    """
    d = sic.dim
    n = d * d
    if name == "transposition":
        superop = np.eye(n).reshape(d, d, n).transpose(1, 0, 2).reshape(n, n)
    elif name == "reduction":
        if d < 2:
            raise ValueError("reduction map needs dimension at least 2")
        vec_eye = np.eye(d).reshape(n)
        superop = (np.outer(vec_eye, vec_eye) - np.eye(n)) / (d - 1)
    else:
        raise ValueError(f"unknown builtin map {name!r}; choose 'transposition' or 'reduction'")
    return _to_frame(superop, sic, sic, "channel matrix", 1e-8)


def _choi(s: np.ndarray, sic_in: SicPovm, sic_out: SicPovm) -> np.ndarray:
    """Choi matrix of a channel matrix: ``K_out S K_in^-1 / d_in``, reshuffled.

    The one place the ``(out, out) x (in, in)`` superoperator indices are
    regrouped into the ``(in, out) x (in, out)`` Choi order.
    """
    d_in, d_out = sic_in.dim, sic_out.dim
    r = (sic_out.kmat @ s @ sic_in.kinv) / d_in
    return (
        r.reshape(d_out, d_out, d_in, d_in)
        .transpose(2, 0, 3, 1)
        .reshape(d_in * d_out, d_in * d_out)
    )


def pstoch_to_choi(s: np.ndarray, sic_in: SicPovm, sic_out: SicPovm) -> np.ndarray:
    """Choi state of the channel, index order ``(in, out) x (in, out)``.

    Built by conjugating with the frame-change matrices and reshuffling;
    Hermitian to 1e-9 for any real input with unit column sums. Raises
    ValueError for a wrong shape, non-finite entries or column sums other
    than 1.
    """
    s = np.asarray(s, dtype=float)
    d_in, d_out = sic_in.dim, sic_out.dim
    if s.shape != (d_out * d_out, d_in * d_in):
        raise ValueError(f"matrix shape {s.shape} does not match SIC dims ({d_out}², {d_in}²)")
    _require_finite(s, "channel matrix")
    dev = float(np.abs(s.sum(axis=0) - 1.0).max())
    if dev > 1e-9:
        raise ValueError(f"columns do not sum to 1 (max deviation {dev:.3e})")
    rho = _choi(s, sic_in, sic_out)
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > 1e-9:
        raise NumericalDomainError(f"Choi matrix not Hermitian: dev {herm:.3e}")
    return rho


def choi_to_pstoch(rho: np.ndarray, sic_in: SicPovm, sic_out: SicPovm) -> np.ndarray:
    """Inverse of :func:`pstoch_to_choi`.

    Raises ValueError for a wrong shape or non-finite entries.
    """
    rho = np.asarray(rho, dtype=complex)
    d_in, d_out = sic_in.dim, sic_out.dim
    n = d_in * d_out
    if rho.shape != (n, n):
        raise ValueError(f"Choi matrix shape {rho.shape}, expected ({n}, {n})")
    _require_finite(rho, "Choi matrix")
    r = (
        rho.reshape(d_in, d_out, d_in, d_out)
        .transpose(1, 3, 0, 2)
        .reshape(d_out * d_out, d_in * d_in)
    )
    s = d_in * (sic_out.kinv @ r @ sic_in.kmat)
    imag = float(np.abs(s.imag).max())
    if imag > 1e-8:
        raise NumericalDomainError(f"channel matrix has imaginary residual {imag:.3e}")
    return s.real


@dataclass(frozen=True)
class CptpReport:
    """Evidence behind an is_cptp verdict."""

    ok: bool
    min_choi_eig: float
    tp_residual: float
    herm_residual: float


def is_cptp(
    s: np.ndarray, sic_in: SicPovm, sic_out: SicPovm, tol: float = 1e-9
) -> tuple[bool, CptpReport]:
    """Complete-positivity and trace-preservation check via the Choi state.

    True iff the Choi matrix is PSD to ``-tol`` and its partial trace over
    the output factor equals ``I/d_in`` within ``tol`` (the latter is the
    matrix form of ``sum_k A_k^H A_k = I``). Report-only; never raises for
    an unphysical matrix. A matrix with non-finite entries gets ``False``
    and non-finite residuals.
    """
    s = np.asarray(s, dtype=float)
    d_in, d_out = sic_in.dim, sic_out.dim
    rho = _choi(s, sic_in, sic_out)
    herm = float(np.abs(rho - rho.conj().T).max())
    rho_h = (rho + rho.conj().T) / 2
    # herm is non-finite exactly when rho is, and then eigvalsh would raise
    # instead of converging; report the NaN instead
    min_eig = float(np.linalg.eigvalsh(rho_h).min()) if math.isfinite(herm) else math.nan
    tr_out = np.einsum(
        "iaja->ij", rho_h.reshape(d_in, d_out, d_in, d_out)
    )
    tp_dev = float(np.abs(tr_out - np.eye(d_in) / d_in).max())
    ok = min_eig >= -tol and tp_dev <= tol and herm <= max(tol, 1e-9)
    return ok, CptpReport(
        ok=ok, min_choi_eig=min_eig, tp_residual=tp_dev, herm_residual=herm
    )


def _tp_operator(p: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``sum_k A_k^H A_k`` expressed through the coefficient Gram matrices ``(k, n, n)``."""
    return np.einsum("kji,iab,jbc->kac", p, sig, sig)


def _kraus_coeffs_from_choi(rho: np.ndarray, d: int, sig: np.ndarray) -> np.ndarray:
    """Warm-start V: clip the Choi spectrum, read off Kraus coefficients (those
    of the completely depolarizing channel if no eigenvalue is left)."""
    n = d * d
    rho_h = (rho + rho.conj().T) / 2
    vals, vecs = np.linalg.eigh(rho_h)
    v0 = np.zeros((n, n), dtype=complex)
    col = 0
    for lam, u in zip(vals[::-1], vecs.T[::-1]):
        if lam <= 1e-12:
            continue
        a = (np.sqrt(d * lam) * u).reshape(d, d).T
        v0[:, col] = np.einsum("iab,ba->i", sig, a) / 2
        col += 1
    if col == 0:  # V = 0 is stationary in every stage: start fully depolarizing
        return np.eye(n, dtype=complex) / math.sqrt(2 * d)
    return v0


# gradient tolerance and iteration cap of project_cptp's L-BFGS-B stages
_GRAD_TOL = 1e-8
_STAGE_MAX_ITER = 1000


def project_cptp(
    s_raw: np.ndarray,
    sic_in: SicPovm,
    sic_out: SicPovm,
    opt: OptConfig | None = None,
) -> np.ndarray:
    """Nearest CPTP channel matrix in Frobenius distance.

    Parametrizes the channel by a coefficient matrix ``V`` (Kraus operators
    expanded in the Hermitian basis), which makes complete positivity
    automatic, and treats trace preservation as a quadratic penalty whose
    weight is ramped up across four L-BFGS-B stages (``_lbfgsb``, SciPy's
    routine without its per-evaluation wrapping, every restart one lane of
    a lock-step run, at most 1000 iterations a stage). A lane's objective
    and gradient cost two matrix products: a forward map, built once per
    call, takes ``P = V V^H`` to the model matrix and ``T`` below, and its
    adjoint takes their residuals back. The best of ``opt.restarts``
    perturbed runs is then repaired to exact trace preservation by the
    substitution ``A_k -> A_k T^{-1/2}`` with ``T = sum_k A_k^H A_k``, so
    the returned matrix is exactly CPTP.

    Raises ValueError for a matrix of the wrong shape or with non-finite
    entries, and OptimizerError if no restart converges or the trace
    operator of the best run is close to singular.
    """
    return _project_cptp_many((s_raw,), sic_in, sic_out, opt)[0]


def _project_cptp_many(mats, sic_in: SicPovm, sic_out: SicPovm, opt: OptConfig | None):
    """``[project_cptp(s, sic_in, sic_out, opt) for s in mats]`` bit for bit, every
    restart of every matrix one lane of one L-BFGS-B driver call; each lane is
    evaluated by products of its own, so its bits do not depend on the lanes that
    share its rounds. Raises the error of the first invalid matrix, else that of
    the first one whose projection fails."""
    from .dynamics import _theta_stack, basis_sigma

    if sic_in.dim != sic_out.dim:
        raise ValueError("projection requires equal input and output dimensions")
    opt = opt or OptConfig()
    d = sic_in.dim
    n = d * d
    sig = basis_sigma(d)
    theta = _theta_stack(sic_in, sic_out, sig)
    eye = np.eye(d)
    restarts = opt.restarts
    starts, s_lanes = [], []
    for s_raw in mats:
        # read column-major, as reconstruct_raw returns it, so the last bits
        # of the output do not depend on the layout passed
        s_raw = np.asfortranarray(s_raw, dtype=float)
        if s_raw.shape != (n, n):
            raise ValueError(f"matrix shape {s_raw.shape}, expected ({n}, {n})")
        _require_finite(s_raw, "channel matrix")
        v_start = _kraus_coeffs_from_choi(_choi(s_raw, sic_in, sic_out), d, sig)
        x_start = np.concatenate([v_start.real.ravel(), v_start.imag.ravel()])
        starts.append(x_start)
        for k in range(1, restarts):
            rng = np.random.default_rng(opt.seed + k)
            starts.append(x_start + 0.3 * rng.standard_normal(x_start.shape))
        s_lanes += [s_raw.T] * restarts
    s_lanes = np.array(s_lanes)

    # The forward map takes a lane's P to [S_model | T] in one product, the
    # adjoint map takes [2 resid^T | 2 mu (T - I)] to W in one more. Each
    # lane gets a product of its own: one GEMM over the stacked lanes would
    # give a lane bits that depend on how many lanes ask in its round.
    quad = np.einsum("iab,jbc->ijac", sig, sig)  # sigma_i sigma_j
    fold = np.concatenate(
        [theta.reshape(n * n, n * n), quad.transpose(1, 0, 2, 3).reshape(n * n, d * d)], axis=1
    )
    unfold = np.concatenate(
        [
            theta.transpose(2, 3, 0, 1).reshape(n * n, n * n),
            quad.transpose(3, 2, 1, 0).reshape(d * d, n * n),
        ]
    )

    def fun_grad_many(x: np.ndarray, mu: np.ndarray, lanes: np.ndarray):
        k = len(x)
        v = np.empty((k, n, n), complex)
        v.real, v.imag = x[:, : n * n].reshape(v.shape), x[:, n * n :].reshape(v.shape)
        p = v @ v.conj().transpose(0, 2, 1)
        out = (p.reshape(k, 1, n * n) @ fold)[:, 0]
        s_model = out[:, : n * n].real.reshape(k, n, n)
        target = s_lanes if k == len(s_lanes) else s_lanes[lanes]
        resid = s_model.transpose(0, 2, 1) - target
        t_dev = out[:, n * n :].reshape(k, d, d)
        t_dev -= eye
        f = (resid**2).sum(axis=(1, 2)) + mu * (np.abs(t_dev) ** 2).sum(axis=(1, 2))
        back = np.empty((k, 1, n * n + d * d), complex)
        back[:, 0, : n * n] = (2.0 * resid).transpose(0, 2, 1).reshape(k, n * n)
        back[:, 0, n * n :] = ((2.0 * mu)[:, None, None] * t_dev).reshape(k, d * d)
        w = (back @ unfold).reshape(k, n, n)
        av = (w.transpose(0, 2, 1) + w.conj()) @ v  # twice the Hermitian part of w, times V
        g = np.empty((k, 2 * n * n))
        g[:, : n * n], g[:, n * n :] = av.real.reshape(k, -1), av.imag.reshape(k, -1)
        return f, g

    from ._lbfgsb import lbfgsb_lanes

    mus = (1.0, 10.0, 100.0, 1000.0)
    runs = lbfgsb_lanes(fun_grad_many, np.array(starts), mus, _STAGE_MAX_ITER, _GRAD_TOL, 1e-14)
    out = []
    for m in range(0, len(runs), restarts):
        best: tuple[float, np.ndarray] | None = None
        n_converged = 0
        for x, f, g, _, success in runs[m : m + restarts]:
            grad_inf = float(np.abs(g).max())
            if success or grad_inf <= 1e-5 * max(1.0, abs(f)):
                n_converged += 1
            if np.isfinite(f) and (best is None or f < best[0]):
                best = (float(f), x)
        if best is None or n_converged == 0:
            raise OptimizerError(f"CPTP projection failed to converge in {opt.restarts} restarts")
        v = (best[1][: n * n] + 1j * best[1][n * n :]).reshape(n, n)
        t_op = _tp_operator((v @ v.conj().T)[None], sig)[0]
        vals, vecs = np.linalg.eigh((t_op + t_op.conj().T) / 2)
        if vals.min() < 1e-8:
            raise OptimizerError(
                f"trace operator nearly singular after optimization (min eig {vals.min():.3e})"
            )
        t_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
        rescale = np.einsum("iab,jbc,ca->ij", sig, sig, t_inv_sqrt) / 2
        v = rescale @ v
        p = v @ v.conj().T
        s_proj = np.einsum("ij,ijab->ab", p, theta).real
        ok, report = is_cptp(s_proj, sic_in, sic_out, tol=1e-7)
        if not ok:
            raise OptimizerError(
                f"projection output failed the CPTP check: min Choi eig {report.min_choi_eig:.3e}, "
                f"TP residual {report.tp_residual:.3e}"
            )
        out.append(s_proj)
    return out


def compose(s2: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Channel composition: ``s2`` after ``s1``.

    Raises ValueError on mismatched shapes or non-finite entries.
    """
    s2 = np.asarray(s2, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    if s2.ndim != 2 or s1.ndim != 2 or s2.shape[1] != s1.shape[0]:
        raise ValueError(f"inner dimensions do not match: {s2.shape} @ {s1.shape}")
    _require_finite(s2, "channel matrix")
    _require_finite(s1, "channel matrix")
    return s2 @ s1


def apply(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Act on a probability vector.

    Raises ValueError on mismatched shapes or non-finite entries.
    """
    s = np.asarray(s, dtype=float)
    p = np.asarray(p, dtype=float)
    if s.ndim != 2 or p.ndim != 1 or s.shape[1] != p.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {s.shape}, vector {p.shape}")
    _require_finite(s, "channel matrix")
    _require_finite(p, "probability vector")
    return s @ p
