"""Process tomography with SIC inputs and a SIC measurement.

Preparing each SIC state, sending it through the unknown process and
measuring the SIC POVM yields a square table of outcome counts. Linear
inversion of the known input overlap matrix recovers the raw process
matrix; projection onto the CPTP set and a calibration step (dividing out
the preparation-and-measurement channel) recover the process of interest.
The statistical error per matrix entry is bounded by ``1/sqrt(N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._optim import OptConfig
from .channels import _project_cptp_many, project_cptp
from .errors import NumericalDomainError, _require_finite, _require_int
from .linalg import frobenius_dist
from .measures import EvolutionAnalysis, analyze_evolution
from .sic import SicPovm, fingerprint

__all__ = [
    "CountsRecord",
    "ReconstructionReport",
    "PipelineReport",
    "input_prob_matrix",
    "freq_from_counts",
    "reconstruct_raw",
    "error_estimate",
    "simulate_counts",
    "calibrate",
    "run_pipeline",
]


@dataclass(frozen=True)
class CountsRecord:
    """Raw tomography data: outcome counts per prepared SIC input state.

    ``counts[i][j]`` is the number of outcome-``j`` events observed after
    preparing input state ``i``; every row sums to ``shots``.
    """

    dim: int
    shots: int
    counts: np.ndarray


@dataclass(frozen=True)
class ReconstructionReport:
    """One reconstructed process: raw inversion, CPTP projection, error bar."""

    s_raw: np.ndarray
    s_cptp: np.ndarray
    per_entry_error: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineReport:
    """Everything the two-record tomography pipeline produces.

    ``cal`` reconstructs the preparation-and-measurement channel alone,
    ``main`` the composition of that channel with the process under test;
    ``s_u`` is the calibrated estimate of the process itself. The two
    analyses hold generator splits and the nonclassicality and
    non-Markovianity measures for the calibrated process and the
    calibration channel respectively.
    """

    cal: ReconstructionReport
    main: ReconstructionReport
    s_u: np.ndarray
    analysis_u: EvolutionAnalysis
    analysis_cal: EvolutionAnalysis
    shots: int


def input_prob_matrix(s: SicPovm) -> np.ndarray:
    """Overlap matrix ``P[i, j] = Tr(P_i P_j) / d``: row ``i`` is the SIC
    distribution of input state ``P_i``."""
    gram = np.einsum("iab,jba->ij", s.projectors, s.projectors).real
    return gram / s.dim


def freq_from_counts(c: CountsRecord) -> np.ndarray:
    """Outcome frequency rows ``counts[i] / shots``.

    Raises ValueError when a row total disagrees with ``shots`` (which
    also catches all-zero rows) or any entry is negative.
    """
    counts = np.asarray(c.counts)
    n = c.dim * c.dim
    if counts.shape != (n, n):
        raise ValueError(f"counts table shape {counts.shape}, expected ({n}, {n})")
    if c.shots < 1:
        raise ValueError(f"shots must be positive, got {c.shots}")
    if counts.min() < 0:
        raise ValueError("counts contain negative entries")
    row_sums = counts.sum(axis=1)
    bad = np.nonzero(row_sums != c.shots)[0]
    if bad.size:
        raise ValueError(
            f"row {bad[0]} sums to {row_sums[bad[0]]}, expected shots = {c.shots}"
        )
    return counts / float(c.shots)


def reconstruct_raw(freqs: np.ndarray, s: SicPovm) -> np.ndarray:
    """Linear-inversion estimate of the process matrix from frequencies.

    Solves ``P s_row(j) = freqs[:, j]`` for every output index against the
    known input overlap matrix, then replaces the last row by one minus
    the rest so every column sums to 1 exactly. Raises ValueError for a
    table of the wrong shape or with non-finite entries.
    """
    freqs = np.asarray(freqs, dtype=float)
    n = s.dim * s.dim
    if freqs.shape != (n, n):
        raise ValueError(f"frequency table shape {freqs.shape}, expected ({n}, {n})")
    _require_finite(freqs, "frequency table")
    p = input_prob_matrix(s)
    cond = np.linalg.cond(p)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalDomainError(f"input-state matrix is singular (cond {cond:.3e})")
    s_est = np.linalg.solve(p, freqs).T
    s_est[n - 1] = 1.0 - s_est[: n - 1].sum(axis=0)
    return s_est


def error_estimate(shots: int) -> float:
    """Worst-case statistical error per matrix entry, ``1/sqrt(N)``.

    Raises ValueError unless ``shots`` is an integer (not a bool) of at
    least 1.
    """
    if isinstance(shots, float) and not math.isfinite(shots):
        raise ValueError(f"shots must be finite and at least 1, got {shots}")
    _require_int(shots, "shots", 1)
    return 1.0 / math.sqrt(shots)


def simulate_counts(
    s_matrix: np.ndarray, s: SicPovm, shots: int, seed: int
) -> CountsRecord:
    """Multinomial synthetic counts for a known process matrix.

    Samples each input state's outcome distribution ``S p_in``. Exactly
    CPTP matrices can still produce tiny negative probabilities in floating
    point; anything above ``-1e-9`` is clipped to zero and renormalized,
    anything worse is rejected as unphysical. Raises ValueError unless
    ``shots`` is an integer (not a bool) of at least 1.
    """
    _require_int(shots, "shots", 1)
    s_matrix = np.asarray(s_matrix, dtype=float)
    rng = np.random.default_rng(seed)
    pin = input_prob_matrix(s)
    n = s.dim * s.dim
    counts = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        q = s_matrix @ pin[i]
        if q.min() < -1e-9:
            raise ValueError(
                f"output distribution for input {i} has negative entry {q.min():.3e}"
            )
        q = np.clip(q, 0.0, None)
        counts[i] = rng.multinomial(shots, q / q.sum())
    return CountsRecord(dim=s.dim, shots=shots, counts=counts)


def _calibrated(raw_cal: np.ndarray, raw_main: np.ndarray, s: SicPovm, opt: OptConfig | None):
    """``calibrate``'s steps; returns ``(s_dec, s_decu, s_u)``, ``s_decu`` the
    projection of ``raw_main``."""
    s_dec, s_decu = _project_cptp_many((raw_cal, raw_main), s, s, opt)
    cond = np.linalg.cond(s_dec)
    if not np.isfinite(cond) or cond > 1e8:
        raise NumericalDomainError(f"calibration channel is numerically singular (cond {cond:.3e})")
    return s_dec, s_decu, project_cptp(np.linalg.solve(s_dec, s_decu), s, s, opt)


def calibrate(
    s_dec_raw: np.ndarray,
    s_decu_raw: np.ndarray,
    s: SicPovm,
    opt: OptConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Divide the preparation-and-measurement channel out of a raw estimate.

    Both raw matrices are projected to CPTP in one batched call, and
    ``s_dec^-1 s_decu`` of the projections is projected again (a product
    with an inverse need not be CPTP).

    Returns ``(s_dec, s_u)``. Raises NumericalDomainError when the
    calibration channel is numerically singular (condition number above
    1e8).
    """
    s_dec, _, s_u = _calibrated(s_dec_raw, s_decu_raw, s, opt)
    return s_dec, s_u


def _reconstruction(
    s_raw: np.ndarray, s_cptp: np.ndarray, delta: float, meta: dict
) -> ReconstructionReport:
    """Report of one record: ``meta`` plus the distance the projection moved."""
    return ReconstructionReport(
        s_raw=s_raw,
        s_cptp=s_cptp,
        per_entry_error=delta,
        meta={
            **meta,
            "cptp_distance": math.sqrt(frobenius_dist(s_raw, s_cptp)),
            "calibration_order": "project-then-invert",
        },
    )


def run_pipeline(
    counts_main: CountsRecord,
    counts_cal: CountsRecord,
    s: SicPovm,
    opt: OptConfig | None = None,
) -> PipelineReport:
    """Counts to calibrated process matrix to generator-level measures.

    ``counts_cal`` comes from running the preparation-and-measurement
    chain alone, ``counts_main`` from the chain with the process of
    interest inserted. Both records need the same dimension and shot
    count.

    The steps are those of ``calibrate``: each raw matrix is projected to
    CPTP once, both in one batched call, and the projections serve as
    ``cal.s_cptp``/``main.s_cptp`` and as the factors of ``s_u``. So the
    pipeline makes three projections, each certified by ``project_cptp``'s
    CPTP check, and its results are exactly those of
    ``calibrate(raw_cal, raw_main)``.
    """
    if counts_main.dim != counts_cal.dim:
        raise ValueError(
            f"records have different dimensions: {counts_main.dim} vs {counts_cal.dim}"
        )
    if counts_main.dim != s.dim:
        raise ValueError(f"records are d={counts_main.dim} but the SIC is d={s.dim}")
    if counts_main.shots != counts_cal.shots:
        raise ValueError(
            f"records have different shot counts: {counts_main.shots} vs {counts_cal.shots}"
        )
    delta = error_estimate(counts_main.shots)
    raw_cal = reconstruct_raw(freq_from_counts(counts_cal), s)
    raw_main = reconstruct_raw(freq_from_counts(counts_main), s)
    s_dec, s_decu, s_u = _calibrated(raw_cal, raw_main, s, opt)
    meta = {"seed": (opt or OptConfig()).seed, "sic": fingerprint(s)}
    cal_report = _reconstruction(raw_cal, s_dec, delta, meta)
    main_report = _reconstruction(raw_main, s_decu, delta, meta)
    analysis_u = analyze_evolution(s_u, s, opt)
    analysis_cal = analyze_evolution(s_dec, s, opt)
    return PipelineReport(
        cal=cal_report,
        main=main_report,
        s_u=s_u,
        analysis_u=analysis_u,
        analysis_cal=analysis_cal,
        shots=counts_main.shots,
    )
