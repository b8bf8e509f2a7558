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
from .sic import SicPovm, _require_sic, _to_frame

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
    a lock-step run, at most 1000 iterations a stage). Each evaluation is
    real arithmetic, one quadratic and two linear maps a lane: one product
    of ``V``'s real and imaginary parts gives those of ``P = V V^H``, a real
    forward map built once per SIC takes them to the model matrix and
    ``T`` below, and its adjoint takes the weighted residuals to the matrix
    whose product with ``V``'s parts is the gradient. The best of
    ``opt.restarts`` perturbed runs, restarted along a direction of higher
    rank if it stopped beside a face of too low rank, is then repaired to
    exact trace preservation by the substitution ``A_k -> A_k T^{-1/2}``
    with ``T = sum_k A_k^H A_k``, so the returned matrix is exactly CPTP.

    Raises TypeError unless both SICs are SicPovm objects, ValueError for a
    matrix of the wrong shape or with non-finite entries, and OptimizerError
    if no restart converges or the trace operator of the best run is close
    to singular.
    """
    return _project_cptp_many((s_raw,), sic_in, sic_out, opt)[0]


def _project_cptp_many(mats, sic_in: SicPovm, sic_out: SicPovm, opt: OptConfig | None):
    """``[project_cptp(s, sic_in, sic_out, opt) for s in mats]`` bit for bit, every
    restart of every matrix one lane of one L-BFGS-B driver call; each lane is
    evaluated by products of its own, so its bits do not depend on the lanes that
    share its rounds. Raises the error of the first invalid matrix, else that of
    the first one whose projection fails."""
    from .dynamics import _cptp_maps, _sic_ops, _sigma_stack

    _require_sic(sic_in=sic_in, sic_out=sic_out)
    if sic_in.dim != sic_out.dim:
        raise ValueError("projection requires equal input and output dimensions")
    opt = opt or OptConfig()
    d = sic_in.dim
    n = d * d
    sig = _sigma_stack(d)
    maps = _sic_ops(sic_in)[-3:] if sic_out is sic_in else _cptp_maps(sic_in, sic_out)
    theta, fmap, umap = maps
    restarts = opt.restarts
    starts, targets = [], []
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
        targets += [np.concatenate([s_raw.ravel(), np.eye(d).ravel(), np.zeros(d * d)])] * restarts
    targets = np.array(targets)  # lane i's [vec s_raw, vec I, 0]
    add = np.add.reduce  # ndarray.sum without its Python wrapper: the same sums
    # A lane's x = [vec A, vec B], with A = Re V and B = Im V, gathers exactly
    # (an index and a sign) to Z = [[A, B], [B, -A]], and Z [A, B]^T is
    # [Re P; Im P] for P = V V^H. F takes [Re P, Im P] to [S_model | Re T |
    # Im T], U the weighted residual to H = [M_s | M_a], and H Z = [M_s A +
    # M_a B | M_s B - M_a A] is the gradient, in x's layout after to_x. Each
    # lane gets products of its own: one GEMM over the stacked lanes would
    # give a lane bits that depend on how many lanes ask in its round.
    ai = np.arange(n * n).reshape(n, n)
    to_z = np.block([[ai, ai + n * n], [ai + n * n, ai]]).ravel()
    sign = np.ones((2 * n, 2 * n))
    sign[n:, n:] = -1.0
    to_x = np.arange(2 * n * n).reshape(n, 2, n).transpose(1, 0, 2).ravel()
    on_t = np.arange(len(fmap.T)) >= n * n  # the entries of T, weighed by mu

    def parts(x: np.ndarray, mu: np.ndarray, lanes) -> tuple[np.ndarray, ...]:
        k = len(x)
        z = x.take(to_z, 1).reshape(k, 2 * n, 2 * n)
        z *= sign
        p = z @ z[:, :n].transpose(0, 2, 1)
        resid = (p.reshape(k, 1, 2 * n * n) @ fmap)[:, 0]
        resid -= targets if k == len(targets) else targets.take(lanes, 0)
        weighted = resid * np.where(on_t, mu[:, None], 1.0)
        return resid, weighted, (weighted[:, None] @ umap).reshape(k, n, 2 * n), z

    def fun_grad_many(x: np.ndarray, mu: np.ndarray, lanes: np.ndarray):
        resid, weighted, h, z = parts(x, mu, lanes)
        return add(resid * weighted, 1), (h @ z).reshape(len(x), -1).take(to_x, 1)

    from ._lbfgsb import lbfgsb_lanes

    mus = (1.0, 10.0, 100.0, 1000.0)
    runs = lbfgsb_lanes(fun_grad_many, np.array(starts), mus, _STAGE_MAX_ITER, _GRAD_TOL, 1e-14)

    def converged(run) -> bool:
        return run[4] or float(np.abs(run[2]).max()) <= 1e-5 * max(1.0, abs(run[1]))

    # The gradient is M V for the Hermitian M = M_s - i M_a and the objective is
    # convex in P, so a converged lane is optimal iff M >= 0. A best lane that
    # stops beside a face of too low rank (min eig M <= -3e-3 on the seeded sets
    # of projection_cases.py, >= -2e-4 where no lane stalls) puts M's lowest
    # eigenvector u, at the line minimum of |r|^2 along P + s u u^H, in place of
    # V's smallest singular direction and runs the last stage again; the new
    # run replaces the best one if it ends lower.
    groups = range(0, len(runs), restarts)
    ends = [run[1] if np.isfinite(run[1]) else np.inf for run in runs]
    best = [m + int(np.argmin(ends[m : m + restarts])) for m in groups]
    ok = [any(map(converged, runs[m : m + restarts])) for m in groups]
    failed = [not good or ends[b] == np.inf for good, b in zip(ok, best)]
    stuck = np.array([b for b, fail in zip(best, failed) if not fail and converged(runs[b])], int)
    x = np.array([runs[i][0] for i in stuck]).reshape(len(stuck), 2 * n * n)
    _, weighted, h, _ = parts(x, np.full(len(stuck), mus[-1]), stuck)
    vals, vecs = np.linalg.eigh(h[:, :, :n] - 1j * h[:, :, n:])
    pick = vals[:, 0] < -1e-3
    lanes, escapes = stuck[pick], []
    for x_i, u, w in zip(x[pick], vecs[pick, :, 0], weighted[pick]):
        uu = np.outer(u, u.conj())
        delta = np.concatenate([uu.real.ravel(), uu.imag.ravel()]) @ fmap
        q, sv, _ = np.linalg.svd((x_i[: n * n] + 1j * x_i[n * n :]).reshape(n, n))
        v = q * sv  # V rotated to orthogonal columns, the smallest last
        v[:, -1] = u * math.sqrt(max(0.0, -(w @ delta) / (delta @ delta)))
        escapes.append(np.concatenate([v.real.ravel(), v.imag.ravel()]))
    if escapes:
        fg = lambda x, mu, k: fun_grad_many(x, mu, lanes[k])  # noqa: E731
        again = lbfgsb_lanes(fg, np.array(escapes), mus[-1:], _STAGE_MAX_ITER, _GRAD_TOL, 1e-14)
        for i, run in zip(lanes, again):
            if run[1] < runs[i][1]:
                runs[i] = run
    out = []
    for b, fail in zip(best, failed):
        if fail:
            raise OptimizerError(f"CPTP projection failed to converge in {opt.restarts} restarts")
        v = (runs[b][0][: n * n] + 1j * runs[b][0][n * n :]).reshape(n, n)
        t_op = np.einsum("ji,iab,jbc->ac", v @ v.conj().T, sig, sig)  # sum_k A_k^H A_k
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
