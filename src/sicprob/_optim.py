"""Optimizer settings shared by every optimizer-backed operation."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OptConfig"]


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by every optimizer-backed operation.

    restarts : number of independent starts of ``project_cptp`` (the first
    uses the unperturbed warm start) and of the refined starts of the
    ``delta_quant`` frame search (never fewer than 8 there); max_iter :
    iteration cap of every local solve (the rounds of the frame search's
    Newton refinement among them), and of the ADMM iteration of
    ``project_mark``, an exact convex solve that reads nothing else; seed :
    base RNG seed, restart ``k`` of ``project_cptp`` uses ``seed + k`` and
    the frame search seeds its screen with it. Stopping tolerances are
    constants of the solvers that use them.
    """

    restarts: int = 8
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
