"""The frame search behind ``measures.delta_quant_detail``.

Minimizes ``negativity(U L U^T)`` over the frame rotations
``U = exp(sum_i lam_i H_i)`` of a generator ``L``: a batched screen of
frames built in closed form, a batched compass descent of the best of them,
and an SLSQP refinement of the best distinct ones on the epigraph form of
the minimax problem. ``measures`` checks the inputs and imports this module
on the first search.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._optim import OptConfig

# Frames every search evaluates in one batched call before refining.
_SCREEN_SIZE = 1024
# Compass descent of the best screened frames: the best 256 take 2 steps,
# then the best 64 of them (or as many as will be refined) take 10 more.
_DESCENT = ((256, 2), (64, 10))
_DESCENT_STEP = 0.1
# Refined starts are descended frames at least this far apart in ``lam``.
_START_SEPARATION = 0.3
# Fewest frames refined, whatever ``OptConfig.restarts`` asks for.
_MIN_REFINED = 8
# Central-difference step of the refinement's constraint Jacobian.
_JAC_STEP = 1e-6
# A refined start "agrees" when it ends this close to the best value.
_AGREE_TOL = 1e-3


def _frame_rotations(lam: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rotations ``exp(sum_i lam[k, i] H_i)`` for a stack of parameter rows.

    Every generator ``B`` of the stack is real antisymmetric with zero
    column sums. For the qubit (4 x 4) that leaves one rotation plane, so
    ``B^3 = -theta^2 B`` with ``theta^2 = |B|_F^2 / 2`` and Rodrigues'
    formula is exact. Larger frames use the Taylor series with scaling and
    squaring in real arithmetic, batched: one scaling for the whole stack
    brings every 1-norm to at most 1/2, where 14 terms leave a remainder
    below 1e-16. A batched ``eigh`` of ``i B`` does the same job about three
    times slower on 9 x 9 frames.
    """
    nlam, n, _ = basis.shape
    gen = (lam @ basis.reshape(nlam, n * n)).reshape(-1, n, n)
    if n == 4:
        # theta = 0 only with gen = 0, so clipping it just avoids 0 / 0
        theta = np.maximum(np.sqrt(0.5 * np.einsum("kab,kab->k", gen, gen)), 1e-300)
        sinc = (np.sin(theta) / theta)[:, None, None]
        half_sinc = (np.sin(0.5 * theta) / (0.5 * theta))[:, None, None]
        return np.eye(n) + sinc * gen + 0.5 * half_sinc**2 * (gen @ gen)
    norm = float(np.abs(gen).sum(axis=1).max())
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    scaled = gen / 2.0**squarings
    rot = np.eye(n) + scaled
    term = scaled
    for k in range(2, 15):
        term = term @ scaled / k
        rot = rot + term
    for _ in range(squarings):
        rot = rot @ rot
    return rot


def _rotated_off_diagonals(lmat: np.ndarray, basis: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of ``U L U^T`` for every row of ``lam``."""
    u = _frame_rotations(lam, basis)
    rotated = (u @ lmat @ u.transpose(0, 2, 1)).reshape(len(u), -1)
    return rotated[:, _off_diagonal_index(len(lmat))]


def _rotated_negativities(lmat: np.ndarray, basis: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``negativity(U L U^T)`` for every row of ``lam``."""
    return np.maximum(0.0, -_rotated_off_diagonals(lmat, basis, lam).min(axis=1))


@functools.lru_cache(maxsize=None)
def _off_diagonal_index(n: int) -> np.ndarray:
    """Flat indices of the off-diagonal entries of an ``n x n`` matrix."""
    return np.flatnonzero(~np.eye(n, dtype=bool))


def _screen(d: int, nlam: int, seed: int) -> np.ndarray:
    """``_SCREEN_SIZE`` frames: ``lam = 0``, then uniform in a ball.

    With the normalization of ``basis_hunit`` the radius
    ``pi sqrt((d^2 - 1) / (6 d))`` reaches the frames whose ``u`` has evenly
    spaced eigenphases, such as the clock matrix. For the qubit it is
    ``pi / 2``, where ``u`` and ``-u`` meet, so the ball holds every frame
    once.
    """
    rng = np.random.default_rng(seed)
    radius = math.pi * math.sqrt((d * d - 1) / (6 * d))
    direction = rng.standard_normal((_SCREEN_SIZE - 1, nlam))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(_SCREEN_SIZE - 1, 1)) ** (1.0 / nlam)
    return np.concatenate([np.zeros((1, nlam)), r * direction])


def _descend(lmat, basis, lam, neg, step, steps: int):
    """Batched compass search from every row of ``lam`` at once.

    Each frame tries its own step along every coordinate, both ways, and
    moves to its best trial if that lowers its negativity; otherwise it
    halves its step. The negativity is V-shaped around a minimax frame, so
    a screened frame scores by its distance from a minimum more than by the
    minimum's depth; a few steps of descent rank the basins by depth.
    """
    count, nlam = lam.shape
    moves = np.concatenate([np.eye(nlam), -np.eye(nlam)])
    rows = np.arange(count)
    for _ in range(steps):
        trial = lam[:, None, :] + step[:, None, None] * moves
        val = _rotated_negativities(lmat, basis, trial.reshape(-1, nlam)).reshape(count, -1)
        pick = val.argmin(axis=1)
        better = val[rows, pick] < neg
        lam = np.where(better[:, None], trial[rows, pick], lam)
        neg = np.where(better, val[rows, pick], neg)
        step = np.where(better, step, 0.5 * step)
    return lam, neg, step


def _spread_starts(lam: np.ndarray, neg: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` best frames that lie apart from each other.

    Descended frames of one basin gather at its minimum; a frame within
    ``_START_SEPARATION`` of a better one is skipped, unless too few are
    left apart, when the best skipped ones fill the count.
    """
    order = np.argsort(neg, kind="stable")
    free = np.ones(len(neg), dtype=bool)
    picked: list[int] = []
    for k in order:
        if free[k]:
            picked.append(k)
            free &= np.linalg.norm(lam - lam[k], axis=1) > _START_SEPARATION
            if len(picked) == count:
                return np.array(picked)
    rest = [k for k in order if k not in picked]
    return np.array(picked + rest[: count - len(picked)])


def _refine(lmat: np.ndarray, basis: np.ndarray, lam0: np.ndarray, t0: float, max_iter: int):
    """SLSQP on the epigraph form of the minimax frame problem.

    Minimizes ``t`` over ``(lam, t)`` subject to ``t + (U L U^T)_ij >= 0``
    for ``i != j`` and ``t >= 0``: a smooth problem whose solution is the
    minimax frame. The constraint Jacobian is a central difference taken
    for all coordinates in one batched call.
    """
    import scipy.optimize

    nlam = lam0.size
    # the point itself, then one step forward and one back along each axis
    stencil = _JAC_STEP * np.concatenate([np.zeros((1, nlam)), np.eye(nlam), -np.eye(nlam)])
    last: dict = {}

    def off_diagonals(x: np.ndarray) -> np.ndarray:
        # SLSQP asks for the margins and then their Jacobian at the same
        # point; one batched call serves both
        key = x.tobytes()
        if last.get("key") != key:
            last["key"] = key
            last["off"] = _rotated_off_diagonals(lmat, basis, x[:-1] + stencil)
        return last["off"]

    def margins(x: np.ndarray) -> np.ndarray:
        return x[-1] + off_diagonals(x)[0]

    def margins_jac(x: np.ndarray) -> np.ndarray:
        off = off_diagonals(x)
        slope = (off[1 : nlam + 1] - off[nlam + 1 :]).T / (2 * _JAC_STEP)
        return np.hstack([slope, np.ones((len(slope), 1))])

    grad_t = np.zeros(nlam + 1)
    grad_t[-1] = 1.0
    res = scipy.optimize.minimize(
        lambda x: x[-1],
        np.append(lam0, t0),
        jac=lambda x: grad_t,
        method="SLSQP",
        bounds=[(None, None)] * nlam + [(0.0, None)],
        constraints={"type": "ineq", "fun": margins, "jac": margins_jac},
        options={"maxiter": max_iter, "ftol": 1e-12},
    )
    return res.x[:-1]


def search(lmat: np.ndarray, basis: np.ndarray, opt: OptConfig) -> tuple[float, np.ndarray, int]:
    """``(value, lam, agreeing)`` of the best frame for a checked generator.

    ``agreeing`` counts the refined starts that end within ``_AGREE_TOL``
    of the best value.
    """
    nlam = basis.shape[0]
    refine = max(opt.restarts, _MIN_REFINED)

    lam = _screen(math.isqrt(len(lmat)), nlam, opt.seed)
    neg = _rotated_negativities(lmat, basis, lam)
    step = np.full(len(lam), _DESCENT_STEP)
    for keep, steps in _DESCENT:
        top = np.argsort(neg, kind="stable")[: max(keep, refine)]
        lam, neg, step = _descend(lmat, basis, lam[top], neg[top], step[top], steps)
    starts = _spread_starts(lam, neg, refine)
    refined = np.array([_refine(lmat, basis, lam[k], neg[k], opt.max_iter) for k in starts])
    refined_neg = _rotated_negativities(lmat, basis, refined)
    better = refined_neg <= neg[starts]  # False for a NaN end
    lam_end = np.where(better[:, None], refined, lam[starts])
    neg_end = np.where(better, refined_neg, neg[starts])
    best = int(np.argmin(neg_end))
    agreeing = int(np.count_nonzero(neg_end <= neg_end[best] + _AGREE_TOL))
    return float(neg_end[best]), lam_end[best], agreeing
