"""Crash-failure schedules (§4.1).

"The probability of a process crashing during a run is considered to be
τ = f/n, where f is the number of processes crashing during that run.
We do not take into account the recovery of crashed processes."

A :class:`CrashSchedule` maps each doomed process to the round at which
it crashes (stops sending, receiving and delivering, forever).  The
faithful sampler :meth:`CrashSchedule.sample` dooms each process
independently with probability τ and picks its crash round uniformly
over the run horizon, matching the stochastic model of Eq 8.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping

from repro.addressing import Address
from repro.errors import SimulationError

__all__ = ["CrashSchedule"]


class CrashSchedule:
    """Which processes crash, and when.

    Args:
        crash_rounds: address -> round index (0-based) at which the
            process crashes, *before* gossiping in that round.
    """

    def __init__(self, crash_rounds: Mapping[Address, int] = ()):
        rounds: Dict[Address, int] = dict(crash_rounds)
        for address, crash_round in rounds.items():
            if crash_round < 0:
                raise SimulationError(
                    f"{address} has negative crash round {crash_round}"
                )
        self._crash_rounds = rounds

    @classmethod
    def sample(
        cls,
        members: Iterable[Address],
        crash_fraction: float,
        horizon: int,
        rng: random.Random,
    ) -> "CrashSchedule":
        """The analysis model: each process crashes with probability τ.

        Each doomed process picks its crash round uniformly in
        ``[0, horizon)``.

        Args:
            members: the group population.
            crash_fraction: τ = f/n.
            horizon: the expected run length in rounds.
            rng: the crash stream.
        """
        if not 0.0 <= crash_fraction < 1.0:
            raise SimulationError(
                f"crash fraction {crash_fraction} not in [0, 1)"
            )
        if horizon < 1:
            raise SimulationError(f"horizon {horizon} must be >= 1")
        rounds: Dict[Address, int] = {}
        if crash_fraction > 0.0:
            for address in members:
                if rng.random() < crash_fraction:
                    rounds[address] = rng.randrange(horizon)
        return cls(rounds)

    @property
    def victim_count(self) -> int:
        """f — how many processes crash during the run."""
        return len(self._crash_rounds)

    def crashes_at(self, round_index: int) -> List[Address]:
        """Processes whose crash round is exactly ``round_index``."""
        return sorted(
            address
            for address, crash_round in self._crash_rounds.items()
            if crash_round == round_index
        )
