"""Deterministic hash-based trace sampling.

A full ``repro.obs.trace/v1`` capture is O(n·rounds) records — fine at
paper scale (n = 10 648), untenable at the million-member scale of the
struct-of-arrays kernels.  This module makes tracing affordable there
by *sampling processes, not records*: a record is emitted iff the
SHA-256 of its ``(kind, process, event_id)`` key falls under a
configurable rate.

The decision is a pure function of the key:

* **Deterministic.**  No RNG is drawn and no ``hash()`` of interned
  objects is consulted, so a sampled run is bit-identical to an
  unsampled one (all simulation draws untouched) and the *sampled
  subset* itself is identical across interpreter launches,
  ``PYTHONHASHSEED`` values, worker counts, and engines: the scalar
  engine and the vectorized compat kernel — which emit identical record
  streams — produce identical sampled traces, and the sharded kernel's
  trace is identical at any worker count.
* **Per-process coherent.**  All ``send`` records of one sender are
  kept or dropped together (ditto ``receive``/``deliver`` per
  receiver), so a sampled trace contains *complete per-kind
  timelines for a deterministic subset of processes* — each kept
  process is an unbiased witness of the full run, and dividing a
  sampled count by the rate estimates the population count
  (:func:`rescale`; ``python -m repro.obs summarize`` applies this
  when the trace header carries a ``sampling`` block).

* **Fault records are outside sampling** (:func:`is_exact`).  Every
  ``fault_*`` record is kept at any rate — they are scripted, sparse,
  and the trace's explanation of any damage — and ``summarize`` reports
  those kinds as counted, never divided by the rate.

Every verdict — the stateless :func:`keep`, the per-member keep masks
array kernels precompute (:func:`keep_mask`) and the memoizing
:class:`TraceSampler` of record-at-a-time emitters — comes from one
function that builds and judges the key.  A run is sampled by
handing its driver ``Observer(trace=..., sampler=TraceSampler(rate))``:
:meth:`Observer.emit <repro.obs.probes.Observer.emit>` applies the
filter and the observer stamps the sampling block into the header.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "SAMPLING_SCHEME",
    "is_exact",
    "keep",
    "keep_mask",
    "rescale",
    "TraceSampler",
]

#: The versioned sampling scheme stamped into trace headers: decide by
#: ``sha256(f"{kind}|{process}|{event_id}")``, first 8 bytes big-endian,
#: kept iff below ``rate * 2**64``.
SAMPLING_SCHEME = "repro.obs.sampling/v1"

_SCALE = 2 ** 64


def _threshold(rate: float) -> int:
    if not 0.0 < rate <= 1.0:
        raise ObservabilityError(f"sampling rate {rate} not in (0, 1]")
    # rate == 1.0 keeps everything: the threshold exceeds any 64-bit key.
    return _SCALE if rate >= 1.0 else int(rate * _SCALE)


def is_exact(kind: str) -> bool:
    """Whether records of ``kind`` are outside sampling (``fault_*``).

    The one statement of the rule: every verdict keeps such a record at
    any rate, and ``summarize`` leaves its count unscaled.
    """
    return kind.startswith("fault_")


def _verdicts(
    kind: str, processes: Sequence[object], event_id: int, threshold: int
) -> List[bool]:
    """The one place the sampling key is built and judged.

    One verdict per process: kept iff the first 8 bytes (big-endian) of
    ``sha256(f"{kind}|{process}|{event_id}")`` fall below ``threshold``,
    or the kind is exact.  ``process`` is keyed by its string form (the
    dotted address), so index-space kernels and the object-model engine
    agree on every verdict.
    """
    if threshold >= _SCALE or is_exact(kind):
        return [True] * len(processes)
    sha256 = hashlib.sha256
    prefix = f"{kind}|".encode("utf-8")
    suffix = f"|{event_id}".encode("utf-8")
    return [
        int.from_bytes(
            sha256(prefix + str(process).encode("utf-8") + suffix).digest()[:8],
            "big",
        )
        < threshold
        for process in processes
    ]


def keep(kind: str, process: object, event_id: int, rate: float) -> bool:
    """The stateless sampling verdict for one record key."""
    return _verdicts(kind, (process,), event_id, _threshold(rate))[0]


def keep_mask(
    kind: str, processes: Sequence[object], event_id: int, rate: float
) -> List[bool]:
    """Per-process keep verdicts for one kind (array-kernel precompute).

    Returns a plain bool list (callers wanting ``numpy`` wrap it) with
    one entry per process, each the same verdict :func:`keep` returns.
    """
    return _verdicts(kind, processes, event_id, _threshold(rate))


def rescale(count: float, rate: float) -> float:
    """Estimate a population count from a sampled count.

    Each process is kept independently with probability ``rate``, so
    ``count / rate`` is the unbiased (Horvitz-Thompson) estimator of
    the unsampled count.
    """
    if not 0.0 < rate <= 1.0:
        raise ObservabilityError(f"sampling rate {rate} not in (0, 1]")
    return count / rate


class TraceSampler:
    """A memoizing :func:`keep` for record-at-a-time emitters.

    The scalar engine emits many records per ``(kind, process)`` (one
    ``send`` per envelope per round); the memo turns the repeated
    SHA-256 into one dict hit.  Samplers are cheap value objects — one
    per run keeps the memo bounded by ``processes × kinds``.
    """

    __slots__ = ("rate", "_threshold", "_memo")

    def __init__(self, rate: float):
        self._threshold = _threshold(float(rate))
        self.rate = float(rate)
        self._memo: Dict[Tuple[str, str, int], bool] = {}

    def keep(self, kind: str, process: object, event_id: int = 0) -> bool:
        """The (memoized) sampling verdict for one record key."""
        if self._threshold >= _SCALE:
            return True
        key = (kind, str(process), event_id)
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._memo[key] = _verdicts(
                kind, (key[1],), event_id, self._threshold
            )[0]
        return verdict

    def meta(self) -> Dict[str, object]:
        """The header block ``summarize`` needs to rescale counts."""
        return {"rate": self.rate, "scheme": SAMPLING_SCHEME}

    def __repr__(self) -> str:
        return f"TraceSampler(rate={self.rate})"
