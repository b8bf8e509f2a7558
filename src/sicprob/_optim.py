"""Optimizer settings shared by every optimizer-backed operation."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import _require_int

__all__ = ["OptConfig"]


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by every optimizer-backed operation.

    restarts : an integer of at least 1, the number of independent starts
    of ``project_cptp`` (the first uses the unperturbed warm start) and of
    the refined starts of the ``delta_quant`` frame search (never fewer
    than 8 there, nor than twice the number of rotation generators); seed :
    an integer of at least 0, the base RNG seed, restart ``k`` of
    ``project_cptp`` uses ``seed + k`` and the frame search seeds its
    screen with it. Other values raise ValueError. Iteration caps and
    stopping tolerances are constants of the solvers that use them.
    """

    restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        _require_int(self.restarts, "restarts", 1)
        _require_int(self.seed, "seed", 0)
