"""Matching-rate computation: GETRATE of Figure 3 (lines 28–33).

``GETRATE(depth, event)`` scans the view table of the given depth and
returns the fraction of entries whose (regrouped) interest matches the
event.  Below the leaf depth an entry is one of a row's R delegates and
its effective interest is the row's subtree summary — a delegate is
susceptible *on behalf of* the processes it represents (§3.1).

:func:`match_table` also applies the §5.3 tuning: when fewer than ``h``
entries are interested, the first ``h`` entries of the view are treated
as interested as well (see :mod:`repro.core.tuning`).

A :class:`TableMatch` also carries its flat form — entry positions, the
per-entry verdict mask and a round-bound memo — which is what a GOSSIP
firing reads: lines 9–14 draw F *positions*, never a candidate list.

This module also holds the one integer draw every sequential stream of
the simulators goes through.  :func:`sample_positions_each` draws a
batch of CPython ``random.sample`` calls over ``range(n)`` — a compat-kernel
or live round's destinations, a membership round's peers (``k = 1``) —
and :func:`sample_positions`, the scalar step's, is its one-size call.
It inlines ``Random._randbelow_with_getrandbits`` over
``rng.getrandbits``: the same raw calls in the same order, so the values
and the final state equal ``random.Random``'s, without a Python frame
per draw or per sample.  A generator whose class draws integers another
way is refused.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from repro.addressing import Address
from repro.config import PmcastConfig
from repro.core.rounds import depth_round_bound
from repro.core.tuning import inflate_audience
from repro.errors import ProtocolError
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.membership.views import ViewTable

__all__ = ["TableMatch", "match_table", "sample_positions", "sample_positions_each"]

#: The integer draw the primitive inlines; a class whose ``_randbelow``
#: is anything else draws a different stream.
_RANDBELOW = random.Random._randbelow_with_getrandbits
#: ``range(21)``, the pool every sample of at most 5 draws slices (never written).
_POSITIONS = list(range(21))
_UNSUPPORTED = (
    "{} does not draw integers through getrandbits; only "
    "random.Random's _randbelow_with_getrandbits stream is mirrored"
)


@dataclass(frozen=True, slots=True)
class TableMatch:
    """The outcome of matching one event against one view table.

    Attributes:
        entries: every gossipable entry of the table, in view order
            (delegates flattened row-by-row).
        matching: the *effective* interested entries after tuning —
            the set a gossiper actually sends to.
        natural_hits: how many entries matched before tuning (Figure 3's
            raw ``hits``).
        rate: the effective matching rate ``|matching| / |entries|``
            used for the round bound and propagated in gossips.
        inflated: True when the §5.3 tuning kicked in.
        positions: entry -> its index in ``entries``.
        mask: per entry, whether it is in ``matching`` (line 13's check
            by position).

    ``positions``, ``mask`` and the :meth:`round_bound` memo are derived
    once per match and take no part in equality or hashing.
    """

    entries: Tuple[Address, ...]
    matching: FrozenSet[Address]
    natural_hits: int
    rate: float
    inflated: bool
    positions: Dict[Address, int] = field(
        init=False, repr=False, compare=False
    )
    mask: Tuple[bool, ...] = field(init=False, repr=False, compare=False)
    _bounds: Dict[float, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        entries = self.entries
        object.__setattr__(
            self, "positions", dict(zip(entries, range(len(entries))))
        )
        object.__setattr__(
            self, "mask", tuple(map(self.matching.__contains__, entries))
        )
        object.__setattr__(self, "_bounds", {})

    def round_bound(self, rate: float, config: PmcastConfig) -> int:
        """Line 7: ``T(|entries|·rate, F·rate)`` for an entry buffered
        at ``rate``, memoized per rate.

        The bound depends on the table only through its entry count, so
        it lives as long as this match.  A match is cached by one run's
        :class:`~repro.core.context.GossipContext`, whose processes
        share one ``config``; the memo is keyed by the rate alone.
        """
        bound = self._bounds.get(rate)
        if bound is None:
            bound = depth_round_bound(len(self.entries), rate, config)
            self._bounds[rate] = bound
        return bound


def sample_positions(rng: random.Random, n: int, k: int) -> List[int]:
    """``rng.sample(range(n), k)``: :func:`sample_positions_each` over
    the one size ``n``.

    Raises:
        TypeError: as :func:`sample_positions_each` does.
        ValueError: if ``k`` is negative or larger than ``n``, as
            ``random.sample`` does.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} of {n} positions")
    return sample_positions_each(rng, (n,) if k else (), k)


def sample_positions_each(
    rng: random.Random, sizes: Sequence[int], k: int
) -> List[int]:
    """``rng.sample(range(n), min(k, n))`` for each ``n`` of ``sizes``
    in turn, concatenated, drawn in one Python frame.

    This is CPython's ``Random.sample`` with the population replaced by
    positions: the same ``setsize`` heuristic, the same pool-shuffle /
    selection-set branches, the same raw ``getrandbits`` calls in the
    same order, with ``_randbelow_with_getrandbits`` inlined rather than
    called once per draw.  Because ``sample`` only consumes randomness
    as a function of ``(len(population), k)``, the positions ``j`` it
    returns make ``population[j]`` reproduce ``rng.sample(population,
    k)`` element for element, and ``rng`` ends in the state the calls
    one size at a time leave.  At ``k = 1`` both branches are one
    ``rng._randbelow(n)``, drawn without a pool or a set.

    ``rng`` must therefore draw through ``_randbelow_with_getrandbits``
    (a ``random.Random``, or a subclass that keeps or overrides
    ``getrandbits``); one overriding only ``random()`` draws by
    ``_randbelow_without_getrandbits``, another stream, and is refused.

    Raises:
        TypeError: if ``rng`` does not draw through ``getrandbits``.
        ValueError: if a size is below 1 (``_randbelow(0)`` never
            returns) or ``k`` is negative.
    """
    if getattr(type(rng), "_randbelow", None) is not _RANDBELOW:
        raise TypeError(_UNSUPPORTED.format(type(rng).__name__))
    if k < 0 or (sizes and min(sizes) < 1):
        raise ValueError(f"cannot sample {k} positions of sizes down to {min(sizes, default=1)}")
    getrandbits = rng.getrandbits
    out: List[int] = []
    append = out.append
    if k == 1:
        for n in sizes:
            bits = n.bit_length()
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
            append(j)
        return out
    # ``sample``'s branch rule at min(k, n) draws: a size at most k
    # takes the pool branch under either count, as setsize > 3k.
    setsize, positions = 21, _POSITIONS
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
        positions = list(range(setsize))
    for n in sizes:
        if n <= setsize:
            pool = positions[:n]
            for m in range(n, n - k if k < n else 0, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                append(pool[j])
                pool[j] = pool[m - 1]
        else:
            # A draw past ``n`` and a repeat are both drawn again: the
            # raw calls of ``randbelow(n)`` re-run while the result was
            # selected.
            bits = n.bit_length()
            selected = set()
            for __ in range(k):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                selected.add(j)
                append(j)
    return out


def match_table(
    table: ViewTable,
    event: Event,
    threshold_h: int = 0,
    *,
    verdict: Callable[[Interest, Event], bool],
) -> TableMatch:
    """GETRATE plus the effective interested-entry set.

    Args:
        table: the view of the subgroup being gossiped in.
        event: the event being multicast.
        threshold_h: the §5.3 tuning threshold (0 disables tuning).
        verdict: ``interest.matches(event)`` as
            :class:`~repro.core.context.GossipContext` serves it, per
            (interest, event) from its cache.  Must be extensionally
            equal to ``Interest.matches``.

    Raises:
        ProtocolError: if the table has no entries (an unpopulated view
            cannot be gossiped in).
    """
    if threshold_h < 0:
        raise ProtocolError(f"threshold h={threshold_h} must be >= 0")
    flattened: List[Address] = []
    matching: List[Address] = []
    for row in table.rows():
        row_matches = verdict(row.interest, event)
        for delegate in row.delegates:
            flattened.append(delegate)
            if row_matches:
                matching.append(delegate)
    if not flattened:
        raise ProtocolError(f"view of {table.prefix} has no entries")
    natural_hits = len(matching)
    effective = frozenset(matching)
    inflated = False
    if threshold_h > 0 and natural_hits < threshold_h:
        effective = inflate_audience(flattened, effective, threshold_h)
        inflated = True
    rate = len(effective) / len(flattened)
    return TableMatch(
        entries=tuple(flattened),
        matching=effective,
        natural_hits=natural_hits,
        rate=rate,
        inflated=inflated,
    )
