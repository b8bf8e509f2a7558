"""The frame search behind ``measures.delta_quant_detail``.

Minimizes ``negativity(U L U^T)`` over the frame rotations
``U = exp(sum_i lam_i H_i)`` of a generator ``L``: a batched screen of
frames built in closed form, a batched compass descent of the best of them,
and a Newton refinement of the best distinct ones on the minimax problem,
every start a lane of one lock-step loop with exact commutator derivatives.
Each frame is its rotation ``U`` from the screen on, moved by retraction
steps ``exp(delta) U``; ``lam`` is read from the best rotation at the end,
through the SIC's unitary. NumPy only: the same steps, and the same bits,
with any number of BLAS threads. ``measures`` checks the inputs and imports
this module on the first search.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._optim import OptConfig
from .dynamics import _sic_ops
from .linalg import _taylor_exp
from .sic import SicPovm

# Frames every search evaluates in one batched call before refining.
_SCREEN_SIZE = 1024
# Compass descent of the best screened frames: the best 256 take 2 steps,
# then the best 64 of them (or as many as will be refined) take 10 more.
_DESCENT = ((256, 2), (64, 10))
_DESCENT_STEP = 0.1
# Refined starts are descended frames at least this far apart in ``lam``.
_START_SEPARATION = 0.3
# Fewest frames refined, whatever ``OptConfig.restarts`` asks for (or 2 nlam).
_MIN_REFINED = 8
# Rounds of the refinement's lock-step loop.
_REFINE_ROUNDS = 500
# A lane has converged once its step promises less than this decrease.
_CONVERGED = 1e-14
# A lane stops after an accepted full step that promised less than this.
_FINAL_GAIN = 1e-7
# Sufficient decrease of the largest entry, as a share of the promised one.
_ARMIJO = 1e-4
# Backtracking gives up on a step below this share of the model's. The
# model holds the linearization of every entry, so for a short enough step
# the largest entry falls by about the promised share: a lane stops here
# only when rounding hides the decrease.
_MIN_ALPHA = 1e-3
# Active-set passes of a round's model problem.
_QP_PASSES = 24
# An active entry leaves the set when its multiplier falls below -_MU_TOL.
_MU_TOL = 1e-12
# Weight of the spread of the active gradients added to the model Hessian,
# relative to the Hessian's entry sum over the spread's trace.
_AUGMENT = 10.0
# Least curvature of the reduced Hessian, relative to its largest.
_CURVATURE_FLOOR = 1e-8
# A refined start "agrees" when it ends this close to the best value.
_AGREE_TOL = 1e-3


def _frame_rotations(lam: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rotations ``exp(sum_i lam[k, i] H_i)`` for a stack of parameter rows.

    Every generator ``B`` of the stack is real antisymmetric with zero
    column sums. For the qubit (4 x 4) that leaves one rotation plane, so
    ``B^3 = -theta^2 B`` with ``theta^2 = |B|_F^2 / 2`` and Rodrigues'
    formula is exact. Larger frames use ``mat_exp``'s Taylor series with
    scaling and squaring in real arithmetic, batched over the stack. A
    batched ``eigh`` of ``i B`` does the same job about three times slower
    on 9 x 9 frames. Each row is computed on its own: ``B`` is summed term
    by term, elementwise (a product with the basis is a GEMV for one row and
    a GEMM for more, which differ in the last bit), and the series scales
    each matrix by its own norm, so a row's bits do not depend on the stack.
    """
    gen = lam[:, 0, None, None] * basis[0]
    for i in range(1, len(basis)):
        gen += lam[:, i, None, None] * basis[i]
    if basis.shape[-1] == 4:
        # theta = 0 only with gen = 0, so clipping it just avoids 0 / 0
        theta = np.maximum(np.sqrt(0.5 * np.einsum("kab,kab->k", gen, gen)), 1e-300)
        sinc = (np.sin(theta) / theta)[:, None, None]
        half_sinc = (np.sin(0.5 * theta) / (0.5 * theta))[:, None, None]
        return np.eye(4) + sinc * gen + 0.5 * half_sinc**2 * (gen @ gen)
    return _taylor_exp(gen)


def _off_diagonals(m: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of every matrix of a stack, one row each."""
    return m.reshape(len(m), -1)[:, _off_diagonal_index(m.shape[-1])]


def _conjugate(lmat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``U L U^T`` for a stack of rotations: every frame the search scores.
    ``U L`` is one GEMM over the stacked rows, or one for each rotation
    when ``lmat`` stacks an ``L`` for each."""
    ul = (u.reshape(*lmat.shape[:-2], -1, u.shape[-1]) @ lmat).reshape(u.shape)
    return ul @ u.transpose(0, 2, 1)


def _negativities(m: np.ndarray) -> np.ndarray:
    """``negativity`` of every matrix of a stack."""
    return np.maximum(0.0, -_off_diagonals(m).min(axis=1))


@functools.lru_cache(maxsize=None)
def _off_diagonal_index(n: int) -> np.ndarray:
    """Flat indices of the off-diagonal entries of an ``n x n`` matrix."""
    return np.flatnonzero(~np.eye(n, dtype=bool))


@functools.lru_cache(maxsize=8)
def _screen(s: SicPovm, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``_SCREEN_SIZE`` frames and their rotations: ``lam = 0``, then
    uniform in a ball.

    With the normalization of ``basis_hunit`` the radius
    ``pi sqrt((d^2 - 1) / (6 d))`` reaches the frames whose ``u`` has evenly
    spaced eigenphases, such as the clock matrix. For the qubit it is
    ``pi / 2``, where ``u`` and ``-u`` meet, so the ball holds every frame
    once. The frames depend on the SIC and the seed alone, so they are
    built once for each pair and shared, read-only, by every search.
    """
    basis = _sic_ops(s).hunit
    nlam = len(basis)
    d = s.dim
    rng = np.random.default_rng(seed)
    radius = math.pi * math.sqrt((d * d - 1) / (6 * d))
    direction = rng.standard_normal((_SCREEN_SIZE - 1, nlam))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(_SCREEN_SIZE - 1, 1)) ** (1.0 / nlam)
    lam = np.concatenate([np.zeros((1, nlam)), r * direction])
    u = _frame_rotations(lam, basis)
    lam.setflags(write=False)
    u.setflags(write=False)
    return lam, u


def _descend(lmat, basis, lam, u, neg, count: int):
    """Batched compass search from every frame at once, by ``_DESCENT``.

    Each frame tries its own step along every coordinate, both ways, as
    ``exp(+-s H_i) U``, and moves to its best trial if that lowers its
    negativity (``lam`` follows to first order); otherwise it halves its
    step. The negativity is V-shaped around a minimax frame, so a screened
    frame scores by its distance from a minimum more than by the minimum's
    depth; a few steps rank the basins by depth. Returns ``lam``, ``U`` and
    negativity of the ``count`` or more best frames, and the trials made.
    """
    nlam, n, _ = basis.shape
    levels = 1 + sum(steps for _, steps in _DESCENT)
    compass = np.concatenate([np.eye(nlam), -np.eye(nlam)])
    shifts = _DESCENT_STEP * 0.5 ** np.arange(levels)[:, None, None] * compass
    moves = _frame_rotations(shifts.reshape(-1, nlam), basis).reshape(levels, 2 * nlam, n, n)
    level = np.zeros(len(lam), dtype=int)
    evaluations = 0
    for keep, steps in _DESCENT:
        top = np.argsort(neg, kind="stable")[: max(keep, count)]
        lam, u, neg, level = lam[top], u[top], neg[top], level[top]
        rows = np.arange(len(top))
        for _ in range(steps):
            trial = moves[level] @ u[:, None]
            val = _negativities(_conjugate(lmat, trial.reshape(-1, n, n))).reshape(len(top), -1)
            evaluations += val.size
            pick = val.argmin(axis=1)
            better = val[rows, pick] < neg
            lam = np.where(better[:, None], lam + shifts[level, pick], lam)
            u = np.where(better[:, None, None], trial[rows, pick], u)
            neg = np.where(better, val[rows, pick], neg)
            level = level + ~better
    return lam, u, neg, evaluations


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


def _refine(lmats: np.ndarray, basis: np.ndarray, u: np.ndarray, owner: np.ndarray):
    """Newton on the minimax KKT system, every start a lane of one loop.

    Each lane keeps its rotation ``U`` and works in local coordinates
    ``exp(sum_i delta_i H_i) U``, where the derivatives of ``M = U L U^T``
    are exact commutators: ``[H_i, M]`` and
    ``([H_i, [H_j, M]] + [H_j, [H_i, M]]) / 2``. A round takes the entries
    ``f_a = -M_a`` off the diagonal and the Hessian ``W`` of
    ``sum mu_a f_a`` at the last multipliers, and steps each lane to the
    solution of ``min t + delta^T B delta / 2`` subject to
    ``f_a + grad f_a . delta <= t`` for every entry, where ``B`` is ``W``
    made convex (``_model_inverse``). On the entries active there this is
    Newton's method on ``f_a = t``, ``sum mu_a grad f_a + W delta = 0``,
    ``sum mu_a = 1`` (Charalambous and Conn, SIAM J. Numer. Anal. 15, 162
    (1978)). Steps backtrack on the largest entry. A lane stops when its
    model promises no decrease, after a full step that promised almost
    none, at a classical frame, or when backtracking fails. Only steps that
    lower the largest entry are taken, so no lane ends above its start.
    Lane ``k`` refines a frame of ``lmats[owner[k]]``; every kernel computes
    each lane on its own, so its bits do not depend on the other lanes.
    Returns each lane's final negativity and the frames it scored; ``u`` is
    updated in place, to each lane's final rotation.
    """
    nlam, n = len(basis), u.shape[-1]
    off = _off_diagonal_index(n)
    m = _conjugate(lmats[owner], u)
    scored = np.ones(len(u), dtype=int)
    f = -_off_diagonals(m)
    fmax = f.max(axis=1)
    # the first guess at each active set: the nlam + 1 largest entries,
    # which meet at a vertex of the model; the model step checks it
    active = np.zeros(f.shape, dtype=bool)
    np.put_along_axis(active, np.argsort(-f, axis=1)[:, : nlam + 1], True, axis=1)
    mu = _largest(f).astype(float)
    running = fmax > 0.0
    for _ in range(_REFINE_ROUNDS):
        lanes = np.flatnonzero(running)
        if lanes.size == 0:
            break
        here = m[lanes, None]
        comm = basis @ here - here @ basis
        grad = -comm.reshape(lanes.size, nlam, -1)[:, :, off].transpose(0, 2, 1)
        # sum_a mu_a d^2 f_a / d delta_i d delta_j, as <[H_i, mu], [H_j, M]>
        # symmetrized (H_i is antisymmetric)
        weights = np.zeros((lanes.size, off.size + n))
        weights[:, off] = mu[lanes]
        weights = weights.reshape(here.shape)
        hess = np.einsum("kiab,kjab->kij", basis @ weights - weights @ basis, comm)
        inverse = _model_inverse(0.5 * (hess + hess.transpose(0, 2, 1)), grad, mu[lanes])
        reach = inverse @ grad.transpose(0, 2, 1)
        step, t_step, mu[lanes], active[lanes] = _model_step(
            reach, grad @ reach, f[lanes], fmax[lanes], active[lanes]
        )
        gain = fmax[lanes] - t_step
        live = gain > _CONVERGED
        running[lanes[~live]] = False
        lanes, step, gain = lanes[live], step[live], gain[live]
        alpha = 1.0
        while lanes.size:
            u_try = _frame_rotations(alpha * step, basis) @ u[lanes]
            m_try = _conjugate(lmats[owner[lanes]], u_try)
            scored[lanes] += 1
            f_try = -_off_diagonals(m_try)
            fmax_try = f_try.max(axis=1)
            accept = fmax_try <= fmax[lanes] - _ARMIJO * alpha * gain
            moved = lanes[accept]
            u[moved], m[moved], f[moved], fmax[moved] = (
                u_try[accept], m_try[accept], f_try[accept], fmax_try[accept]
            )
            # a full step that promised almost nothing leaves a gap of the
            # order of its square
            finished = fmax_try[accept] <= 0.0
            if alpha == 1.0:
                finished |= gain[accept] <= _FINAL_GAIN
            running[moved[finished]] = False
            keep = ~accept
            if alpha < _MIN_ALPHA:
                running[lanes[keep]] = False
                break
            lanes, step, gain = lanes[keep], step[keep], gain[keep]
            alpha *= 0.5
    return np.maximum(fmax, 0.0), scored


def _model_inverse(hess, grad, mu):
    """``B^-1`` for the convex model Hessian ``B`` of each lane.

    ``B`` is ``W`` plus a multiple of the spread of the gradients about
    their mean, both weighted by the multipliers ``mu``. That term vanishes
    on the steps that keep every entry with ``mu_a > 0`` equal, so a step
    on an active set that holds those entries is unchanged (the
    multipliers absorb the difference), and it makes ``B`` positive
    definite wherever the reduced Hessian is, as it is near a minimum. The
    negative curvature left elsewhere is flipped, and tiny curvature
    floored.
    """
    centred = grad - np.einsum("ka,kaj->kj", mu, grad)[:, None]
    spread = np.einsum("kai,kaj->kij", centred * mu[:, :, None], centred)
    size = np.abs(hess).sum(axis=(1, 2))
    trace = np.einsum("kii->k", spread)
    weight = _AUGMENT * size / np.where(trace > 0.0, trace, 1.0)
    curv, vec = np.linalg.eigh(hess + weight[:, None, None] * spread)
    curv = np.abs(curv)
    curv = np.maximum(curv, _CURVATURE_FLOOR * curv.max(axis=1, keepdims=True) + 1e-300)
    return (vec / curv[:, None, :]) @ vec.transpose(0, 2, 1)


def _model_step(reach, gram, f, fmax, active):
    """Each lane's solution of its model problem, by active sets.

    ``reach`` is ``B^-1 G^T`` and ``gram`` is ``G B^-1 G^T`` over the
    gradients ``G`` of every entry, so a choice of multipliers ``mu`` gives
    the step ``delta = -reach mu`` and ``G delta = -gram mu``. A primal
    active-set method (Nocedal and Wright, Numerical Optimization,
    Algorithm 16.3), run on all lanes at once. It starts from the solution
    on ``active`` if that meets every constraint, and otherwise from
    ``delta = 0``, ``t = max f`` with the largest entry active. Each pass
    solves the equality problem on the active set and moves toward its
    solution, up to the first constraint that blocks, which joins the set;
    at the solution the entry with the most negative multiplier leaves it,
    until none is negative. Returns ``delta``, ``t``, the multipliers of
    every entry and the final active set.
    """
    lanes = len(f)
    every = np.arange(lanes)
    step, t, mult = _equality_step(reach, gram, f, active)
    lin = -_mv(gram, mult)  # G delta
    # lanes whose first guess fits start at its equality solution,
    # multipliers known
    at_target = (f + lin <= t[:, None] + _MU_TOL).all(axis=1)
    step[~at_target], lin[~at_target] = 0.0, 0.0
    t = np.where(at_target, t, fmax)
    work = np.where(at_target[:, None], active, _largest(f))
    pending = np.ones(lanes, dtype=bool)
    for _ in range(_QP_PASSES):
        worst = np.where(work, mult, np.inf).argmin(axis=1)
        pending &= ~(at_target & (mult[every, worst] >= -_MU_TOL))
        if not pending.any():
            break
        drop = at_target & pending
        work[drop, worst[drop]] = False
        target, target_t, target_mult = _equality_step(reach, gram, f, work)
        target_lin = -_mv(gram, target_mult)
        slope = target_lin - lin - (target_t - t)[:, None]
        blocks = ~work & (slope > 0.0)
        room = np.maximum(t[:, None] - f - lin, 0.0)
        ratio = np.where(blocks, room / np.where(blocks, slope, 1.0), np.inf)
        first = ratio.argmin(axis=1)
        alpha = np.where(pending, np.minimum(1.0, ratio[every, first]), 0.0)
        step += alpha[:, None] * (target - step)
        lin += alpha[:, None] * (target_lin - lin)
        t += alpha * (target_t - t)
        blocked = pending & (alpha < 1.0)
        work[blocked, first[blocked]] = True
        mult = np.where(pending[:, None], target_mult, mult)
        at_target = pending & ~blocked
    mult = np.maximum(mult, 0.0) * work
    return step, t, mult / mult.sum(axis=1, keepdims=True), work


def _equality_step(reach, gram, f, work):
    """``delta``, ``t`` and multipliers of each lane's equality problem.

    ``min t + delta^T B delta / 2`` subject to ``f_a + grad f_a . delta = t``
    on the active entries. With ``delta = -B^-1 sum_a mu_a grad f_a`` the
    multipliers and ``t`` solve ``S mu + t = f``, ``sum mu = 1``, where
    ``S`` is ``gram`` on the active entries. Each lane's system is solved
    at its own size, the lanes of one size in one stacked call, so a lane
    gets the same bits whichever lanes share its call. Multipliers come
    back for every entry, zero off the active set.
    """
    counts = work.sum(axis=1)
    mult, t = np.zeros(f.shape), np.empty(len(f))
    for width in np.unique(counts):
        lanes = np.flatnonzero(counts == width)
        rows = lanes[:, None]
        idx = np.nonzero(work[lanes])[1].reshape(lanes.size, width)
        system = np.ones((lanes.size, width + 1, width + 1))
        system[:, :width, :width] = gram[rows[:, :, None], idx[:, :, None], idx[:, None, :]]
        system[:, width, width] = 0.0
        rhs = np.ones((lanes.size, width + 1))
        rhs[:, :width] = f[rows, idx]
        sol = _solve(system, rhs)
        mult[rows, idx], t[lanes] = sol[:, :width], sol[:, width]
    return -_mv(reach, mult), t, mult


def _solve(system, rhs):
    """``system^-1 rhs`` for each lane, or the least-norm solution for a
    singular one: two active entries with equal values and gradients,
    which symmetric generators can have, split their multiplier."""
    try:
        return np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(system) == 1:
            return _mv(np.linalg.pinv(system), rhs)
        return np.concatenate([_solve(a[None], b[None]) for a, b in zip(system, rhs)])


def _largest(f: np.ndarray) -> np.ndarray:
    """Mask of each row's largest entry, the first one on a tie."""
    mask = np.zeros(f.shape, dtype=bool)
    mask[np.arange(len(f)), f.argmax(axis=1)] = True
    return mask


def _mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products."""
    return (mat @ vec[..., None])[..., 0]


def _frame_lam(rotation: np.ndarray, s: SicPovm) -> np.ndarray:
    """``lam`` with ``exp(sum_i lam_i H_i) = U``, read from the SIC's unitary.

    ``U`` is the frame image ``K^-1 (u (x) conj(u)) K`` of
    ``u = exp(-i sum_i lam_i sigma_i)``, so ``K U K^-1`` regrouped is
    ``vec(u) vec(u)^H``, whose top eigenvector is ``u`` times a factor. A
    phase of ``u`` cancels in ``u (x) conj(u)``, so for each of the ``d``
    multiples ``omega^k u`` (``omega = exp(2 pi i / d)``)
    ``A = i log(omega^k u)``, from one eigendecomposition of ``u``, has
    ``lam_i = Tr(sigma_i A) / 2`` that rebuild ``U``; the least-norm one is
    returned. The exponential map of SU(d) is onto, so every rotation has
    a ``lam``. The shortest ``lam`` has the eigenvalues of its ``A``, about
    their mean, within ``+-pi (d - 1) / d``: moving the largest down by
    ``2 pi`` would otherwise shorten it. So the gap they leave on the circle
    is at least ``2 pi / d`` wide, one of the multiples puts its branch cut
    there, and the shortest ``lam`` is among the ``d`` whatever the phase
    of the eigenvector.
    """
    d = s.dim
    regrouped = (s.kmat @ rotation @ s.kinv).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    u = np.linalg.eigh(regrouped.reshape(d * d, d * d))[1][:, -1].reshape(d, d)
    w, v = np.linalg.eig(u)
    # eigenphases of each multiple on the principal branch, and
    # (V^-1 sigma_i V)_jj, so that lam_ki = -sum_j angle_kj diag_ij / 2
    angle = np.angle(w * np.exp(2j * np.pi / d * np.arange(d))[:, None])
    diag = np.einsum("ja,iab,bj->ij", np.linalg.inv(v), _sic_ops(s).sigma, v)
    lam = -0.5 * (angle @ diag.T).real
    return lam[np.argmin(np.einsum("ki,ki->k", lam, lam))]


def search(lmats: np.ndarray, s: SicPovm, opt: OptConfig) -> list[tuple]:
    """``(value, lam, agreeing, evaluations)`` of the best frame of each
    generator of the stack ``lmats``, each with the bits of a search of its
    own: the refined starts of all share one loop, but each lane is computed
    on its own.

    ``agreeing`` counts the refined starts that end within ``_AGREE_TOL``
    of the best value; ``evaluations`` counts every frame scored.
    """
    basis = _sic_ops(s).hunit
    refine = max(opt.restarts, _MIN_REFINED, 2 * len(basis))
    lam, u = _screen(s, opt.seed)
    # each generator screened and descended on its own: that work is
    # compute-bound, so a batch of it would save no time and hold more memory
    walks = [_descend(m, basis, lam, u, _negativities(_conjugate(m, u)), refine) for m in lmats]
    starts = [w_u[_spread_starts(w_lam, w_neg, refine)] for w_lam, w_u, w_neg, _ in walks]
    lanes = np.concatenate(starts)
    refined = _refine(lmats, basis, lanes, np.repeat(np.arange(len(lmats)), refine))
    ends, scored = (a.reshape(len(lmats), refine) for a in refined)
    best = ends.argmin(axis=1)
    return [
        (float(e[b]), _frame_lam(rot[b], s), int(np.count_nonzero(e <= e[b] + _AGREE_TOL)),
         _SCREEN_SIZE + walk[3] + int(c.sum()))
        for e, b, rot, c, walk in zip(ends, best, np.split(lanes, len(lmats)), scored, walks)
    ]  # fmt: skip
