"""Quantifying how non-classical and non-Markovian an evolution is.

A generator drives classical stochastic dynamics exactly when its
off-diagonal entries are nonnegative. Negative entries may be an artifact
of the chosen SIC frame; the quantity computed here conjugates the
generator over the whole family of unitary frame rotations and reports the
negativity that survives at the most favorable frame, so a strictly
positive value certifies genuinely quantum dynamics. A second measure
projects an evolution matrix onto those generated by time-independent
Markovian master equations and reports the normalized distance.
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
    basis_hunit,
    project_mark,
    project_unit,
)
from .errors import _require_finite
from .linalg import _log_real_and_exp, frobenius_dist, mat_exp
from .sic import SicPovm
from .states import MeasurementMap

__all__ = [
    "ExperimentScheme",
    "DeltaQuantReport",
    "MarkovReport",
    "EvolutionAnalysis",
    "classicality_check",
    "negativity",
    "delta_quant",
    "delta_quant_detail",
    "delta_nmark",
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

    ``evaluations`` counts the frames the search scored: the screen, every
    descent trial, and the start and every trial step of each refined lane.
    A lane ends on a frame already scored, so final frames count once.
    """

    value: float
    lam: np.ndarray
    restarts_agreeing: int
    evaluations: int = 0


def delta_quant_detail(
    g: Generator | np.ndarray, b: np.ndarray, opt: OptConfig | None = None
) -> DeltaQuantReport:
    """Irremovable negativity of a generator, with search diagnostics.

    Minimizes ``negativity(U L U^T)`` over the frame rotations
    ``U = exp(sum_i lam_i H_i)``, built in batches without a matrix
    ``expm``: Rodrigues' formula for the qubit, a scaled Taylor series for
    larger frames (the steps live in ``_framesearch``):

    1. A screen scores 1024 frames in one batched call: ``lam = 0`` (so
       the result never exceeds the raw negativity) and points drawn,
       seeded by ``opt.seed``, uniformly from a ball that holds every
       frame.
    2. The best 256 take two steps of a batched compass descent, and the
       best 64 of those ten more, so that the frames rank by the depth of
       their basin.
    3. The best ``max(opt.restarts, 8, 2 len(b))`` descended frames that
       lie apart are refined together, as lanes of one loop of at most 500
       rounds, by Newton's method on the minimax problem ``min t`` subject
       to ``t + (U L U^T)_ij >= 0`` (``i != j``): exact commutator
       derivatives of ``U L U^T``, an active-set model problem per lane,
       and a backtracking step on the largest negativity. The lanes
       converge to the minimax frames themselves, never above their
       descended values, and ``lam`` is read from the best one's rotation.

    ``restarts_agreeing`` counts the refined starts that end within 1e-3 of
    the best. The reported value is an upper bound of the true infimum;
    zero means the negativity is a frame artifact.

    ``b`` must hold real antisymmetric generators with zero column sums,
    as ``basis_hunit`` returns them. Raises ValueError when ``g`` is not a
    square ``n x n`` matrix, ``b`` is not such a stack of ``n x n``
    matrices, or either has non-finite entries.
    """
    lmat = as_matrix(g)
    basis = np.asarray(b, dtype=float)
    square = lmat.ndim == 2 and lmat.shape[0] == lmat.shape[1]
    if not square or basis.ndim != 3 or basis.shape[1:] != lmat.shape:
        raise ValueError(
            f"expected a square generator and a stack of matching basis matrices, "
            f"got shapes {lmat.shape} and {basis.shape}"
        )
    _require_finite(lmat, "generator")
    _require_finite(basis, "basis")
    scale = max(1.0, float(np.abs(basis).max()))
    asym = float(np.abs(basis + basis.transpose(0, 2, 1)).max())
    col_sums = float(np.abs(basis.sum(axis=1)).max())
    if max(asym, col_sums) > 1e-10 * scale:
        raise ValueError(
            "basis must hold antisymmetric generators with zero column sums "
            f"(deviation {max(asym, col_sums):.3e})"
        )
    opt = opt or OptConfig(restarts=32)
    # imported here, not at the top, so that the module is compiled only
    # when a search runs and `import sicprob` stays cheap
    from ._framesearch import search

    value, lam, agreeing, evaluations = search(lmat, basis, opt)
    return DeltaQuantReport(
        value=value, lam=lam, restarts_agreeing=agreeing, evaluations=evaluations
    )


def delta_quant(
    g: Generator | np.ndarray, b: np.ndarray, opt: OptConfig | None = None
) -> float:
    """Negativity of a generator minimized over unitary frame changes."""
    return delta_quant_detail(g, b, opt).value


def _markov_parts(s_matrix: np.ndarray, s: SicPovm, basis: np.ndarray | None = None):
    """Log, its exponential, unitary part, dissipative fit, its residual
    and ``S_mark``.

    The one Markov path: takes the real principal log of the matrix, keeps
    its unitary part, projects the remainder onto valid dissipative parts
    and re-exponentiates. ``basis`` is ``basis_hunit(s)`` when the caller
    has it already. Raises LogBranchError (with the offending eigenvalues)
    when the log does not exist on the principal branch.
    """
    lmat, exp_log = _log_real_and_exp(np.asarray(s_matrix, dtype=float))
    if basis is None:
        basis = basis_hunit(s)
    h_part = project_unit(lmat, basis)
    d_proj, residual = project_mark(lmat - h_part, s)
    s_mark = mat_exp(h_part + d_proj)
    return lmat, exp_log, h_part, d_proj, residual, s_mark


def delta_nmark(s_matrix: np.ndarray, s: SicPovm) -> float:
    """Non-Markovianity, the ``delta_nmark`` of :func:`markov_report`."""
    return markov_report(s_matrix, s).delta_nmark


@dataclass(frozen=True)
class MarkovReport:
    """Markovian projection of an evolution matrix, with distances."""

    delta_nmark: float
    s_mark: np.ndarray
    log_residual: float


def _markov_report(s_matrix: np.ndarray, exp_log: np.ndarray, s_mark: np.ndarray) -> MarkovReport:
    """``delta_nmark = sqrt(frobenius_dist(S, S_mark)) / d^2``, the one place
    it is computed, and the reconstruction error of the log."""
    nmark = math.sqrt(frobenius_dist(s_matrix, s_mark)) / len(s_matrix)
    log_resid = math.sqrt(frobenius_dist(exp_log, s_matrix))
    return MarkovReport(delta_nmark=nmark, s_mark=s_mark, log_residual=log_resid)


def markov_report(s_matrix: np.ndarray, s: SicPovm) -> MarkovReport:
    """Markovian projection bundled with its quality diagnostics.

    ``s_mark`` is the closest evolution generated by a time-independent
    master equation: the exponential of the unitary part of the log plus
    the projection of its remainder onto valid dissipative parts.
    ``log_residual`` is the reconstruction error ``||exp(log S) - S||_F``
    of the real principal logarithm, i.e. how trustworthy the generator
    extraction itself was. The projection is exact, so it takes no
    ``OptConfig``.
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
    set (``delta_nmark`` measures the same thing at the level of evolution
    matrices). The nonclassicality search runs on the projected generator
    ``h_part + dissipative fit``: that is the physical generator nearest
    the data, and for an exactly Markovian matrix it equals the log.
    """
    s_matrix = np.asarray(s_matrix, dtype=float)
    basis = basis_hunit(s)
    lmat, exp_log, h_part, d_proj, residual, s_mark = _markov_parts(s_matrix, s, basis)
    return EvolutionAnalysis(
        log=lmat,
        h_part=h_part,
        d_part=lmat - h_part,
        quant=delta_quant_detail(h_part + d_proj, basis, opt),
        mark=_markov_report(s_matrix, exp_log, s_mark),
        markov_residual=residual,
    )


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
    Raises ValueError for mismatched shapes or non-finite entries.
    """
    q = np.asarray(e.prep, dtype=float)
    _require_finite(q, "preparation")
    col_dev = float(np.abs(q.sum(axis=0) - 1.0).max())
    if col_dev > 1e-9:
        raise ValueError(f"preparation columns must sum to 1 (dev {col_dev:.3e})")
    for k, ch in enumerate(e.channels):
        ch = np.asarray(ch, dtype=float)
        if ch.shape[1] != q.shape[0]:
            raise ValueError(
                f"channel {k} input dimension {ch.shape[1]} does not match chain {q.shape[0]}"
            )
        _require_finite(ch, f"channel {k}")
        q = ch @ q
    bigm = np.asarray(e.meas.bigm, dtype=float)
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
