"""The lossy network of the analysis model (§4.1).

"The probability of a network message loss is ε > 0."  Each envelope is
dropped independently with probability ε; there is no reordering issue
because the model is round-synchronous (latency bound < gossip period
P), so everything transmitted in a round is either delivered within
that round or lost.

A :class:`LossyNetwork` is the *link* of an unfaulted run — what a
round driver calls, in order, once per round: ``begin_round(r)`` (this
round's scripted crash victims), ``transmit(envelopes)``, and
afterwards ``messages_sent`` / ``messages_lost`` / ``has_pending`` /
``last_diverted`` / ``scripted_crashes`` / ``trace_meta()``.  A fault
plan's link (:mod:`repro.faults`) wraps one and presents the same
shape with a script behind it; here every scripted answer is
the trivial one.  Partitions, bursts, delays and targeted crashes are
fault-plan clauses, never network state.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.addressing import Address
from repro.core.messages import Envelope
from repro.errors import SimulationError

__all__ = ["LossyNetwork"]


class LossyNetwork:
    """Per-message Bernoulli loss: the fair-loss link of §4.1.

    Args:
        loss_probability: ε — i.i.d. drop probability per message.
        rng: the loss stream.
    """

    def __init__(self, loss_probability: float, rng: random.Random):
        if not 0.0 <= loss_probability < 1.0:
            raise SimulationError(
                f"loss probability {loss_probability} not in [0, 1)"
            )
        self._loss_probability = loss_probability
        self._rng = rng
        self._sent = 0
        self._lost = 0

    @property
    def messages_lost(self) -> int:
        """Envelopes dropped by ε."""
        return self._lost

    #: Nothing is ever held back for a later round.
    has_pending = False
    #: Nothing is ever diverted: every envelope is sent or lost.
    last_diverted: frozenset = frozenset()
    #: No script, so nobody crashed by one.
    scripted_crashes = 0

    def begin_round(self, round_index: int) -> List[Address]:
        """Open a round; a bare network scripts no crash victims."""
        return []

    def trace_meta(self) -> Dict[str, object]:
        """What the link adds to a trace header: nothing."""
        return {}

    def transmit_flags(self, count: int) -> Optional[np.ndarray]:
        """Draw ``count`` delivery verdicts without materializing envelopes.

        The link's one loss draw: one ``random()`` per envelope when
        ε > 0, none otherwise, and the sent/lost counters.  The kernel
        calls it directly and :meth:`transmit` applies it to envelope
        objects, so a vectorized run stays stream- and metric-identical
        to the scalar one.  Returns a bool mask (True: delivered), or
        None when ε <= 0 (everything delivered, nothing drawn).
        """
        self._sent += count
        if self._loss_probability <= 0.0:
            return None
        # iter(random, None) calls random() until it returns None, which
        # it never does: fromiter takes exactly ``count`` draws.
        flags = np.fromiter(iter(self._rng.random, None), float, count)
        flags = flags >= self._loss_probability
        self._lost += count - int(np.count_nonzero(flags))
        return flags

    def transmit(self, envelopes: Iterable[Envelope]) -> List[Envelope]:
        """Deliver the surviving subset of ``envelopes``, in order: one
        :meth:`transmit_flags` batch applied to them."""
        envelopes = list(envelopes)
        flags = self.transmit_flags(len(envelopes))
        return envelopes if flags is None else list(compress(envelopes, flags.tolist()))
