"""Quantifying how non-classical and non-Markovian an evolution is.

A generator drives classical stochastic dynamics exactly when its
off-diagonal entries are nonnegative. Negative entries may be an artifact
of the chosen SIC frame; the quantity computed here conjugates the
generator over the whole family of unitary frame rotations and reports the
negativity that survives at the most favorable frame, so a strictly
positive value certifies genuinely quantum dynamics. A second measure
builds, from the log of an evolution matrix, an evolution generated by a
time-independent Markovian master equation and reports the normalized
distance to it: an upper bound on the distance to the Markovian set, exact
when the matrix is Markovian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._optim import OptConfig
from .dynamics import (
    Generator,
    as_matrix,
    project_mark,
    project_unit,
)
from .errors import _require_finite
from .linalg import _frobenius_dist, _log_real_and_exp, mat_exp
from .sic import SicPovm, _require_sic
from .states import MeasurementMap

__all__ = [
    "ExperimentScheme",
    "DeltaQuantReport",
    "MarkovReport",
    "EvolutionAnalysis",
    "classicality_check",
    "negativity",
    "delta_quant_detail",
    "markov_report",
    "analyze_evolution",
    "experiment_compose",
]


def classicality_check(g: Generator | np.ndarray) -> bool:
    """True iff every off-diagonal entry is ``>= -1e-12``.

    For a zero-column-sum generator this is exactly the condition for
    ``exp(L t)`` to be stochastic at all positive times. Raises ValueError,
    as :func:`negativity` does, for a non-square matrix or non-finite
    entries.
    """
    return negativity(as_matrix(g)) <= 1e-12


def negativity(m: np.ndarray) -> float:
    """Magnitude of the most negative off-diagonal entry (0 if none).

    Raises ValueError for a non-square matrix or non-finite entries.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m, "matrix")
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    return float(max(0.0, -off.min()))


@dataclass(frozen=True)
class DeltaQuantReport:
    """Best frame found by the nonclassicality search.

    ``value`` is ``negativity(U L U^T)`` at the best rotation found, and
    ``lam`` the least-norm coefficients with ``U = exp(sum_i lam_i H_i)``
    over ``basis_hunit(s)``, read from the SIC's unitary of ``U``, so that
    they rebuild the frame scored to rounding. ``evaluations`` counts the
    frames the search scored: the screen, every descent trial, and the
    start and every trial step of each refined lane. A lane ends on a frame
    already scored, so final frames count once.
    """

    value: float
    lam: np.ndarray
    restarts_agreeing: int
    evaluations: int = 0


def delta_quant_detail(
    g: Generator | np.ndarray, s: SicPovm, opt: OptConfig | None = None
) -> DeltaQuantReport:
    """Irremovable negativity of a generator, with search diagnostics.

    Minimizes ``negativity(U L U^T)`` over the frame rotations
    ``U = exp(sum_i lam_i H_i)`` of the SIC ``s`` (``H_i`` as
    ``basis_hunit(s)`` returns them), built in batches without a matrix
    ``expm``: Rodrigues' formula for the qubit, a scaled Taylor series for
    larger frames (the steps live in ``_framesearch``):

    1. A screen scores 1024 frames in one batched call: ``lam = 0`` (so
       the result never exceeds the raw negativity) and points drawn,
       seeded by ``opt.seed``, uniformly from a ball that holds every
       frame.
    2. The best 256 take two steps of a batched compass descent, and the
       best 64 of those ten more, so that the frames rank by the depth of
       their basin.
    3. The best ``max(opt.restarts, 8, 2 (d^2 - 1))`` descended frames that
       lie apart are refined together, as lanes of one loop of at most 500
       rounds, by Newton's method on the minimax problem ``min t`` subject
       to ``t + (U L U^T)_ij >= 0`` (``i != j``): exact commutator
       derivatives of ``U L U^T``, an active-set model problem per lane,
       and a backtracking step on the largest negativity. The lanes
       converge to the minimax frames themselves, never above their
       descended values.

    ``lam`` is read from the best rotation in closed form: ``K U K^-1`` is
    ``u (x) conj(u)`` for the unitary ``u = exp(-i sum_i lam_i sigma_i)``,
    and ``lam`` is the least-norm one that the logarithms of ``u``'s
    central multiples give. ``restarts_agreeing`` counts the refined starts
    that end within 1e-3 of the best. The reported value is an upper bound
    of the true infimum; zero means the negativity is a frame artifact.

    Raises TypeError unless ``s`` is a SicPovm, and ValueError when ``g``
    is not a square ``d^2 x d^2`` matrix for the SIC's ``d``, or has
    non-finite entries.
    """
    _require_sic(s=s)
    return _quant_reports([g], s, opt)[0]


def _quant_reports(gens, s: SicPovm, opt: OptConfig | None) -> list[DeltaQuantReport]:
    """``delta_quant_detail`` of each generator, checked in turn, by one search."""
    n = s.dim * s.dim
    lmats = [as_matrix(g) for g in gens]
    for lmat in lmats:
        if lmat.shape != (n, n):
            raise ValueError(
                f"generator and SIC shapes do not match: {lmat.shape} against ({n}, {n})"
            )
        _require_finite(lmat, "generator")
    # imported here, not at the top, so that the module is compiled only
    # when a search runs and `import sicprob` stays cheap
    from ._framesearch import search

    rows = search(np.array(lmats), s, opt or OptConfig(restarts=32))
    return [DeltaQuantReport(*row) for row in rows]


def _markov_parts(s_matrix: np.ndarray, s: SicPovm):
    """Log, its exponential, unitary part, dissipative fit, its residual
    and ``S_mark``.

    The one Markov path: takes the real principal log of the matrix, keeps
    its unitary part, projects the remainder onto valid dissipative parts
    and re-exponentiates. Raises LogBranchError (with the offending
    eigenvalues) when the log does not exist on the principal branch.
    """
    lmat, exp_log = _log_real_and_exp(np.asarray(s_matrix, dtype=float))
    h_part = project_unit(lmat, s)
    d_proj, residual = project_mark(lmat - h_part, s)
    s_mark = mat_exp(h_part + d_proj)
    return lmat, exp_log, h_part, d_proj, residual, s_mark


@dataclass(frozen=True)
class MarkovReport:
    """A Markovian evolution built from an evolution matrix, with distances.

    ``delta_nmark`` is ``||S - s_mark||_F / d^2``. ``s_mark`` is Markovian
    but not in general the closest Markovian evolution, so ``delta_nmark``
    is an upper bound on the normalized distance of ``S`` to the Markovian
    set, exact when ``S`` is Markovian.
    """

    delta_nmark: float
    s_mark: np.ndarray
    log_residual: float


def _markov_report(s_matrix: np.ndarray, exp_log: np.ndarray, s_mark: np.ndarray) -> MarkovReport:
    """``delta_nmark = sqrt(_frobenius_dist(S, S_mark)) / d^2``, the one place
    it is computed, and the reconstruction error of the log."""
    nmark = math.sqrt(_frobenius_dist(s_matrix, s_mark)) / len(s_matrix)
    log_resid = math.sqrt(_frobenius_dist(exp_log, s_matrix))
    return MarkovReport(delta_nmark=nmark, s_mark=s_mark, log_residual=log_resid)


def markov_report(s_matrix: np.ndarray, s: SicPovm) -> MarkovReport:
    """Markovian projection bundled with its quality diagnostics.

    ``s_mark`` is an evolution generated by a time-independent master
    equation: the exponential of the unitary part of the log plus the
    projection of its remainder onto valid dissipative parts. It is not in
    general the closest one, so ``delta_nmark`` is an upper bound on the
    normalized distance to the Markovian set, exact when ``S`` is
    Markovian.
    ``log_residual`` is the reconstruction error ``||exp(log S) - S||_F``
    of the real principal logarithm, i.e. how trustworthy the generator
    extraction itself was. The projection is exact, so it takes no
    ``OptConfig``. Raises TypeError unless ``s`` is a SicPovm.
    """
    s_matrix = np.asarray(s_matrix, dtype=float)
    _, exp_log, _, _, _, s_mark = _markov_parts(s_matrix, s)
    return _markov_report(s_matrix, exp_log, s_mark)


@dataclass(frozen=True)
class EvolutionAnalysis:
    """Everything the generator-level analysis of one evolution produces."""

    log: np.ndarray
    h_part: np.ndarray
    d_part: np.ndarray
    quant: DeltaQuantReport
    mark: MarkovReport
    markov_residual: float


def analyze_evolution(
    s_matrix: np.ndarray, s: SicPovm, opt: OptConfig | None = None
) -> EvolutionAnalysis:
    """Full generator analysis of one evolution matrix.

    Extracts the generator, splits it into unitary and dissipative parts,
    and computes the Markovian projection distances. ``markov_residual``
    is the Frobenius distance of the generator itself from the Markovian
    set (``delta_nmark`` bounds the matching distance of evolution matrices
    from above). The nonclassicality search runs on the projected generator
    ``h_part + dissipative fit``: that is the physical generator nearest
    the data, and for an exactly Markovian matrix it equals the log.
    """
    return _analyze_many((s_matrix,), s, opt)[0]


def _analyze_many(mats, s: SicPovm, opt: OptConfig | None) -> list[EvolutionAnalysis]:
    """``[analyze_evolution(m, s, opt) for m in mats]`` bit for bit, with one
    frame search for all the fitted generators."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    parts = [_markov_parts(m, s) for m in mats]
    quants = _quant_reports([h_part + d_proj for _, _, h_part, d_proj, _, _ in parts], s, opt)
    return [  # log, h_part, d_part, quant, mark, markov_residual
        EvolutionAnalysis(lmat, h_part, lmat - h_part, quant, _markov_report(m, e, s_mark), resid)
        for m, (lmat, e, h_part, _, resid, s_mark), quant in zip(mats, parts, quants)
    ]


@dataclass(frozen=True)
class ExperimentScheme:
    """Preparation, channel chain and measurement of one experiment.

    ``prep`` holds SIC probability columns of the input states, one per
    experiment setting; ``channels`` apply left to right in time order;
    ``meas`` maps the final state's probabilities to outcome probabilities.
    """

    prep: np.ndarray
    channels: tuple[np.ndarray, ...]
    meas: MeasurementMap


def experiment_compose(e: ExperimentScheme) -> np.ndarray:
    """Overall outcome matrix ``Q = M (S_n ... S_1) G``.

    ``Q`` is column stochastic for physical components; tiny negative
    entries found in ingested noisy data trigger a warning, not an error.
    Raises ValueError for a channel or measurement map that is not a
    matrix, mismatched shapes or non-finite entries.
    """
    q = np.asarray(e.prep, dtype=float)
    _require_finite(q, "preparation")
    col_dev = float(np.abs(q.sum(axis=0) - 1.0).max())
    if col_dev > 1e-9:
        raise ValueError(f"preparation columns must sum to 1 (dev {col_dev:.3e})")
    for k, ch in enumerate(e.channels):
        ch = np.asarray(ch, dtype=float)
        if ch.ndim != 2:
            raise ValueError(f"channel {k} must be a matrix, got shape {ch.shape}")
        if ch.shape[1] != q.shape[0]:
            raise ValueError(
                f"channel {k} input dimension {ch.shape[1]} does not match chain {q.shape[0]}"
            )
        _require_finite(ch, f"channel {k}")
        q = ch @ q
    bigm = np.asarray(e.meas.bigm, dtype=float)
    if bigm.ndim != 2:
        raise ValueError(f"measurement map must be a matrix, got shape {bigm.shape}")
    if bigm.shape[1] != q.shape[0]:
        raise ValueError(
            f"measurement input dimension {bigm.shape[1]} does not match chain {q.shape[0]}"
        )
    _require_finite(bigm, "measurement map")
    q = bigm @ q
    col_dev = float(np.abs(q.sum(axis=0) - 1.0).max())
    if col_dev > 1e-9:
        raise ValueError(f"composed outcome columns do not sum to 1 (dev {col_dev:.3e})")
    if q.min() < -1e-9:
        warnings.warn(
            f"composed outcome matrix has negative entry {q.min():.3e}; "
            "inputs are not exactly physical",
            stacklevel=2,
        )
    return q
