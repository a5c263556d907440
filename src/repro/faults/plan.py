"""Scripted fault schedules — the *what* and *when* of an injected failure.

The paper's analysis (§4.1) assumes benign, i.i.d. failures: every
message is lost with probability ε, every process crashes with
probability τ at a uniformly random round.  Adversarial gossip
evaluations (Bimodal Multicast, lpbcast) additionally stress
*structured* failures: bursts of correlated loss, partitions between
subtrees, crashes targeted at the delegates that hold the tree
together.  A :class:`FaultPlan` scripts such an episode as data:

* :class:`LossBurst` — extra Bernoulli loss over a round window,
  optionally scoped to traffic from/to a subtree;
* :class:`Partition` — drop all traffic between two subtrees (both
  directions) over a round window, healing at its end;
* :class:`DelayWindow` — hold matching envelopes for a fixed number of
  rounds before delivering them (out-of-window reordering);
* :class:`TargetedCrash` — crash one named process at a given round;
* :class:`DelegateCrash` — crash the first ``count`` *delegates* of a
  subgroup (resolved against the live tree when the round arrives);
* :class:`DepthCrash` — crash ``count`` delegates serving a given tree
  depth, smallest addresses first.

A plan is pure data: it carries no randomness and no group references,
serializes to the versioned :data:`FAULT_SCHEMA` JSON format, and is
replayed by :class:`repro.faults.injector.FaultInjector`, which owns
the (dedicated) RNG stream.  Round windows are half-open
``[start, end)`` over 0-based round indexes, matching
:meth:`repro.sim.crashes.CrashSchedule.crashes_at`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.addressing import Address, Prefix
from repro.errors import AddressError, FaultError

__all__ = [
    "FAULT_SCHEMA",
    "FaultPlan",
    "LossBurst",
    "Partition",
    "DelayWindow",
    "TargetedCrash",
    "DelegateCrash",
    "DepthCrash",
]

#: The versioned serialization format identifier of a fault plan.
FAULT_SCHEMA = "repro.faults/v1"


def _as_prefix(value: Union[str, Prefix, None]) -> Optional[Prefix]:
    if value is None or isinstance(value, Prefix):
        return value
    return Prefix.parse(value)


def _check_window(clause: str, start: int, end: int) -> None:
    if start < 0:
        raise FaultError(f"{clause} start {start} is negative")
    if end <= start:
        raise FaultError(
            f"{clause} window [{start}, {end}) is empty or inverted"
        )


@dataclass(frozen=True)
class LossBurst:
    """Extra Bernoulli loss over ``[start, end)``, optionally scoped.

    Attributes:
        start: first affected round index (0-based, inclusive).
        end: first unaffected round index (exclusive).
        probability: per-envelope drop probability while active.
        sender_prefix: only envelopes *from* this subtree are affected
            (None = any sender).
        dest_prefix: only envelopes *to* this subtree are affected
            (None = any destination).
    """

    start: int
    end: int
    probability: float
    sender_prefix: Optional[Prefix] = None
    dest_prefix: Optional[Prefix] = None

    def __post_init__(self) -> None:
        _check_window("LossBurst", self.start, self.end)
        if not 0.0 < self.probability <= 1.0:
            raise FaultError(
                f"LossBurst probability {self.probability} not in (0, 1]"
            )

    def matches(self, sender: Address, destination: Address) -> bool:
        """True if an envelope on this link falls in the burst's scope."""
        if self.sender_prefix is not None and not (
            self.sender_prefix.is_prefix_of(sender)
        ):
            return False
        if self.dest_prefix is not None and not (
            self.dest_prefix.is_prefix_of(destination)
        ):
            return False
        return True


@dataclass(frozen=True)
class Partition:
    """Drop all traffic between two subtrees over ``[start, end)``.

    Both directions are cut; the partition heals (traffic flows again)
    at round ``end``.  The sides must be disjoint subtrees — neither
    prefix may extend the other.
    """

    start: int
    end: int
    side_a: Prefix
    side_b: Prefix

    def __post_init__(self) -> None:
        _check_window("Partition", self.start, self.end)
        a, b = self.side_a.components, self.side_b.components
        shorter = min(len(a), len(b))
        if a[:shorter] == b[:shorter]:
            raise FaultError(
                f"partition sides {self.side_a!r} and {self.side_b!r} "
                "overlap (one is a prefix of the other)"
            )

    def crosses(self, sender: Address, destination: Address) -> bool:
        """True if an envelope crosses the cut (either direction)."""
        return (
            self.side_a.is_prefix_of(sender)
            and self.side_b.is_prefix_of(destination)
        ) or (
            self.side_b.is_prefix_of(sender)
            and self.side_a.is_prefix_of(destination)
        )


@dataclass(frozen=True)
class DelayWindow:
    """Hold matching envelopes for ``delay`` rounds before delivery.

    An envelope sent in round ``r`` while the window is active is
    delivered at round ``r + delay`` instead — *after* the network's
    loss draw would have happened, and regardless of any faults active
    at the release round (a delayed envelope is already "in flight").
    This breaks the round-synchrony assumption of §4.1 deliberately:
    it is how reordering shows up in a round-based simulator.

    Attributes:
        start/end: the active window ``[start, end)``.
        delay: rounds to hold (>= 1).
        probability: chance each matching envelope is delayed (1.0 =
            all of them, drawn from the injector's dedicated stream
            otherwise).
        dest_prefix: only envelopes *to* this subtree are affected.
    """

    start: int
    end: int
    delay: int
    probability: float = 1.0
    dest_prefix: Optional[Prefix] = None

    def __post_init__(self) -> None:
        _check_window("DelayWindow", self.start, self.end)
        if self.delay < 1:
            raise FaultError(f"DelayWindow delay {self.delay} must be >= 1")
        if not 0.0 < self.probability <= 1.0:
            raise FaultError(
                f"DelayWindow probability {self.probability} not in (0, 1]"
            )

    def matches(self, destination: Address) -> bool:
        """True if an envelope to ``destination`` is in scope."""
        return self.dest_prefix is None or self.dest_prefix.is_prefix_of(
            destination
        )


@dataclass(frozen=True)
class TargetedCrash:
    """Crash one named process at ``round`` (before it gossips)."""

    round: int
    address: Address

    def __post_init__(self) -> None:
        if self.round < 0:
            raise FaultError(f"TargetedCrash round {self.round} is negative")


@dataclass(frozen=True)
class DelegateCrash:
    """Crash the first ``count`` delegates of ``prefix`` at ``round``.

    Victims are resolved against the membership tree *when the round
    arrives* (the R smallest member addresses of the subtree — exactly
    the processes representing it upward), so the clause composes with
    churn: whoever holds the delegate role at crash time dies.
    """

    round: int
    prefix: Prefix
    count: int = 1

    def __post_init__(self) -> None:
        if self.round < 0:
            raise FaultError(f"DelegateCrash round {self.round} is negative")
        if self.count < 1:
            raise FaultError(f"DelegateCrash count {self.count} must be >= 1")


@dataclass(frozen=True)
class DepthCrash:
    """Crash ``count`` delegates serving tree depth ``depth`` at ``round``.

    Victims are the smallest member addresses that are delegates of
    their depth-``depth`` subgroup — the processes whose loss most
    damages inter-subgroup routing at that depth.  Resolution is
    deterministic (sorted member order) and happens at crash time.
    """

    round: int
    depth: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.round < 0:
            raise FaultError(f"DepthCrash round {self.round} is negative")
        if self.depth < 1:
            raise FaultError(f"DepthCrash depth {self.depth} must be >= 1")
        if self.count < 1:
            raise FaultError(f"DepthCrash count {self.count} must be >= 1")


Clause = Union[
    LossBurst, Partition, DelayWindow, TargetedCrash, DelegateCrash, DepthCrash
]

#: clause type -> serialization tag (and back).
_CLAUSE_TAGS: Dict[type, str] = {
    LossBurst: "loss_burst",
    Partition: "partition",
    DelayWindow: "delay",
    TargetedCrash: "targeted_crash",
    DelegateCrash: "delegate_crash",
    DepthCrash: "depth_crash",
}
_TAG_CLAUSES = {tag: cls for cls, tag in _CLAUSE_TAGS.items()}


def _clause_to_dict(clause: Clause) -> Dict[str, Any]:
    out: Dict[str, Any] = {"type": _CLAUSE_TAGS[type(clause)]}
    for spec in fields(clause):
        value = getattr(clause, spec.name)
        if value is None:
            continue
        if isinstance(value, (Prefix, Address)):
            value = str(value)
        out[spec.name] = value
    return out


def _clause_from_dict(data: Any) -> Clause:
    if not isinstance(data, Mapping):
        raise FaultError(f"fault clause {data!r} is not an object")
    tag = data.get("type")
    cls = _TAG_CLAUSES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise FaultError(f"unknown fault clause type {tag!r}")
    kwargs: Dict[str, Any] = {}
    try:
        for spec in fields(cls):
            if spec.name not in data:
                continue
            value = data[spec.name]
            if spec.name in ("prefix", "side_a", "side_b", "sender_prefix",
                             "dest_prefix"):
                value = Prefix.parse(str(value))
            elif spec.name == "address":
                value = Address.parse(str(value))
            kwargs[spec.name] = value
        return cls(**kwargs)
    except (AddressError, TypeError) as exc:
        raise FaultError(f"malformed fault clause {dict(data)!r}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable script of fault clauses.

    Plans are immutable; the ``with_*`` builders return extended
    copies, so an episode reads as a chain::

        plan = (
            FaultPlan(name="split-brain")
            .with_partition(1, 5, "0", "1")
            .with_delegate_crash(2, "2", count=2)
            .with_loss_burst(3, 8, 0.5, dest_prefix="1")
        )

    Prefix/address arguments accept dotted strings or the real objects.
    The plan itself is deterministic data — all randomness lives in the
    injector's dedicated RNG stream, consumed only while a probabilistic
    clause is actually active, so an empty (or never-matching) plan is
    bit-identical to no plan at all.
    """

    clauses: Tuple[Clause, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))

    # -- builders ---------------------------------------------------------

    def _extend(self, clause: Clause) -> "FaultPlan":
        return replace(self, clauses=self.clauses + (clause,))

    def with_loss_burst(
        self,
        start: int,
        end: int,
        probability: float,
        sender_prefix: Union[str, Prefix, None] = None,
        dest_prefix: Union[str, Prefix, None] = None,
    ) -> "FaultPlan":
        """Add a :class:`LossBurst` clause."""
        return self._extend(
            LossBurst(
                start,
                end,
                probability,
                _as_prefix(sender_prefix),
                _as_prefix(dest_prefix),
            )
        )

    def with_partition(
        self,
        start: int,
        end: int,
        side_a: Union[str, Prefix],
        side_b: Union[str, Prefix],
    ) -> "FaultPlan":
        """Add a :class:`Partition` clause."""
        return self._extend(
            Partition(start, end, _as_prefix(side_a), _as_prefix(side_b))
        )

    def with_delay(
        self,
        start: int,
        end: int,
        delay: int,
        probability: float = 1.0,
        dest_prefix: Union[str, Prefix, None] = None,
    ) -> "FaultPlan":
        """Add a :class:`DelayWindow` clause."""
        return self._extend(
            DelayWindow(start, end, delay, probability,
                        _as_prefix(dest_prefix))
        )

    def with_delegate_crash(
        self, round: int, prefix: Union[str, Prefix], count: int = 1
    ) -> "FaultPlan":
        """Add a :class:`DelegateCrash` clause."""
        return self._extend(
            DelegateCrash(round, _as_prefix(prefix), count)
        )

    # -- inspection -------------------------------------------------------

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict tagged :data:`FAULT_SCHEMA`."""
        return {
            "schema": FAULT_SCHEMA,
            "name": self.name,
            "clauses": [_clause_to_dict(clause) for clause in self.clauses],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        Raises:
            FaultError: on a schema mismatch or malformed clause.
        """
        if not isinstance(data, Mapping):
            raise FaultError("fault plan must be an object")
        schema = data.get("schema", FAULT_SCHEMA)
        if schema != FAULT_SCHEMA:
            raise FaultError(f"unsupported fault schema {schema!r}")
        raw = data.get("clauses", ())
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise FaultError("fault plan 'clauses' must be a list")
        return cls(
            clauses=tuple(_clause_from_dict(entry) for entry in raw),
            name=str(data.get("name", "")),
        )

    def to_json(self) -> str:
        """Serialize to a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
