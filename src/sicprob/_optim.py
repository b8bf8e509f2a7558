"""Optimizer settings shared by every optimizer-backed operation."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OptConfig"]


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by every optimizer-backed operation.

    restarts : number of independent starts of ``project_cptp`` (the first
    uses the unperturbed warm start) and of the SLSQP refinements of the
    ``delta_quant`` frame search (never fewer than 8 there); max_iter :
    iteration cap of every local solve, and of the ADMM iteration of
    ``project_mark``; grad_tol : projected gradient tolerance of
    ``project_cptp``'s L-BFGS-B stages; seed : base RNG seed, restart ``k``
    of ``project_cptp`` uses ``seed + k`` and the frame search seeds its
    screen with it. ``project_mark`` is an exact convex solve and reads only
    ``max_iter``.
    """

    restarts: int = 8
    max_iter: int = 500
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.grad_tol <= 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
