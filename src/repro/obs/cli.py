"""``python -m repro.obs`` — offline trace inspection.

Subcommands:

* ``summarize TRACE`` — per-round timelines, per-kind counts,
  delivery/false-reception ratios (when the trace carries interest
  ground truth in its header — the interested list, or counts alone as
  the sharded kernel writes), delivery-latency histogram, membership
  episode rollup, and any counter snapshot the producer embedded;
  ``.jsonl.gz`` files load transparently.  When the header carries a
  ``sampling`` block, counts and ratios are rescaled by the sampling
  rate (Horvitz–Thompson) and marked ``estimated``; ``fault_*`` kinds
  are never sampled, so their counts stay exact.
* ``diff A B`` — localize where two runs diverge: the first differing
  record, per-kind count deltas, and per-round send deltas.
* ``validate TRACE`` — schema check without materializing the trace
  (exit code 1 on any problem).
* ``render TRACE`` — the human-readable timeline.

Every plane leaves one trace per run — a sharded run included, whose
coordinator merges its shards' records before they reach the
:class:`~repro.obs.probes.Observer` — so every subcommand takes one file.

``--json`` on ``summarize``/``diff`` prints the machine-readable
structure instead of text.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.sampling import is_exact, rescale
from repro.obs.sink import read_trace, validate_trace
from repro.obs.trace import TraceLog

__all__ = ["main", "summarize_trace", "diff_traces"]

#: Delivery-latency buckets, in rounds after publish.
LATENCY_BOUNDS = (1, 2, 4, 8, 16, 32, 64)

_MEMBERSHIP_KINDS = ("join", "leave", "crash", "suspect", "exclude")


def _load(trace: Union[str, TraceLog]) -> TraceLog:
    return trace if isinstance(trace, TraceLog) else read_trace(trace)


def summarize_trace(trace: Union[str, TraceLog]) -> Dict[str, Any]:
    """Roll a trace up into the numbers a report would carry.

    When the producer annotated interest ground truth (the engine
    does), the summary reproduces
    :class:`~repro.sim.metrics.DisseminationReport`'s delivery ratio,
    false-reception ratio and round count from the records alone —
    the trace is the single source of truth.

    A ``sampling`` block in the header (rate < 1) switches the event
    rollup to Horvitz–Thompson estimates: per-kind counts (``fault_*``
    kinds apart: :func:`repro.obs.sampling.is_exact`) and
    delivered/receiver tallies are divided by the keep rate and the
    ratios computed from interest *counts* (sampled traces at scale
    carry counts, not the full interested list); those entries are
    marked ``estimated``.
    """
    log = _load(trace)
    meta = log.meta
    counts = log.counts()

    max_round = 0
    event_records = 0
    timeline: Dict[int, Dict[str, int]] = {}
    publish_round: Dict[int, int] = {}
    publishers: Dict[int, str] = {}
    deliveries: Dict[int, Dict[str, Optional[int]]] = {}
    receivers: Dict[int, set] = {}
    membership: List[Dict[str, Any]] = []
    for record in log:
        if record.round is None:
            # Event-driven records carry time_us instead of a round:
            # they contribute to kind counts and delivery/reception
            # sets, but not to the per-round timeline.
            event_records += 1
        else:
            max_round = max(max_round, record.round)
            per_round = timeline.setdefault(record.round, {})
            per_round[record.kind] = per_round.get(record.kind, 0) + 1
        if record.kind == "publish":
            if record.round is not None:
                publish_round.setdefault(record.event_id, record.round)
            publishers.setdefault(record.event_id, str(record.process))
        elif record.kind == "deliver":
            deliveries.setdefault(record.event_id, {}).setdefault(
                str(record.process), record.round
            )
        elif record.kind == "receive":
            receivers.setdefault(record.event_id, set()).add(
                str(record.process)
            )
        elif record.kind in _MEMBERSHIP_KINDS:
            membership.append(
                {
                    "round": record.round,
                    "kind": record.kind,
                    "process": str(record.process),
                    "peer": None if record.peer is None else str(record.peer),
                }
            )

    rounds = int(meta.get("rounds", max_round))  # type: ignore[arg-type]
    latency_buckets = [0] * (len(LATENCY_BOUNDS) + 1)
    latencies: List[int] = []
    for event_id, per_process in deliveries.items():
        start = publish_round.get(event_id, 0)
        for delivered_round in per_process.values():
            if delivered_round is None:
                continue  # event-driven delivery: no round latency
            latency = delivered_round - start
            latencies.append(latency)
            for index, bound in enumerate(LATENCY_BOUNDS):
                if latency <= bound:
                    latency_buckets[index] += 1
                    break
            else:
                latency_buckets[-1] += 1

    events: Dict[str, Any] = {}
    interested = meta.get("interested")
    interested_set = (
        set(interested) if isinstance(interested, list) else None
    )
    sampling = meta.get("sampling")
    rate = 1.0
    if isinstance(sampling, dict) and sampling.get("rate") is not None:
        rate = float(sampling["rate"])  # type: ignore[arg-type]
    estimated = rate < 1.0
    meta_interested_count = meta.get("interested_count")
    for event_id in sorted(
        set(publish_round) | set(deliveries) | set(receivers)
    ):
        delivered = deliveries.get(event_id, {})
        received = receivers.get(event_id, set())
        publisher = publishers.get(event_id)
        entry: Dict[str, Any] = {
            "publisher": publisher,
            "published_round": publish_round.get(event_id),
            "delivered": len(delivered),
            "distinct_receivers": len(received),
        }
        if (estimated or interested_set is None) and isinstance(
            meta_interested_count, int
        ):
            # Count-based (Horvitz–Thompson) path: sampled traces, and
            # sharded traces whose headers carry counts rather than the
            # full interested list.  Every ``deliver`` record comes
            # from an interested process, so the rescaled deliver tally
            # estimates ``delivered_interested`` directly; non-publisher
            # interested *receivers* are the deliverers minus the
            # publisher (who delivers at round 0 without a reception),
            # so the excess of rescaled receivers estimates the false
            # receptions.  The publisher is excluded from the receiver
            # tally outright — gossip echoed back to it is a duplicate
            # reception, never a false one (mirroring the exact path).
            interested_count = meta_interested_count
            uninterested_count = int(
                meta.get("uninterested_count", 0)  # type: ignore[arg-type]
            )
            delivered_est = rescale(len(delivered), rate)
            publisher_received = publisher is not None and publisher in received
            receivers_est = rescale(
                len(received) - int(publisher_received), rate
            )
            publisher_delivered = (
                publisher is not None and publisher in delivered
            )
            false_est = max(
                receivers_est
                - (delivered_est - rescale(int(publisher_delivered), rate)),
                0.0,
            )
            entry["estimated"] = estimated
            entry["delivered_interested"] = round(delivered_est, 4)
            entry["delivery_ratio"] = (
                min(delivered_est / interested_count, 1.0)
                if interested_count
                else 1.0
            )
            entry["received_uninterested"] = round(false_est, 4)
            entry["false_reception_ratio"] = (
                min(false_est / uninterested_count, 1.0)
                if uninterested_count
                else 0.0
            )
        elif interested_set is not None:
            interested_count = len(interested_set)
            uninterested_count = int(
                meta.get("uninterested_count", 0)  # type: ignore[arg-type]
            )
            false_receivers = {
                process
                for process in received
                if process not in interested_set and process != publisher
            }
            entry["delivered_interested"] = len(
                set(delivered) & interested_set
            )
            entry["delivery_ratio"] = (
                entry["delivered_interested"] / interested_count
                if interested_count
                else 1.0
            )
            entry["received_uninterested"] = len(false_receivers)
            entry["false_reception_ratio"] = (
                len(false_receivers) / uninterested_count
                if uninterested_count
                else 0.0
            )
        events[str(event_id)] = entry

    summary: Dict[str, Any] = {
        "records": len(log),
        "rounds": rounds,
        "kind_counts": counts,
        "events": events,
        "delivery_latency": {
            "bounds": list(LATENCY_BOUNDS),
            "buckets": latency_buckets,
            "count": len(latencies),
            "mean": (
                round(sum(latencies) / len(latencies), 4)
                if latencies
                else 0.0
            ),
        },
        "membership": membership,
        "timeline": {
            str(round_index): timeline[round_index]
            for round_index in sorted(timeline)
        },
        "meta": meta,
    }
    if event_records:
        summary["event_records"] = event_records
    if isinstance(sampling, dict):
        summary["sampling"] = dict(sampling)
        if estimated:
            summary["kind_counts_estimated"] = {
                kind: count
                if is_exact(kind)
                else round(rescale(count, rate), 2)
                for kind, count in counts.items()
            }
    if isinstance(meta.get("counters"), dict):
        summary["counters"] = meta["counters"]
    return summary


def diff_traces(
    left: Union[str, TraceLog], right: Union[str, TraceLog]
) -> Dict[str, Any]:
    """Localize where two traces diverge.

    Returns a dict with ``identical``, the first differing record (with
    its index and both sides), per-kind count deltas and per-round send
    deltas — enough to say *in which round and at which process* two
    runs stopped agreeing.
    """
    a, b = _load(left), _load(right)
    records_a, records_b = list(a), list(b)
    first_divergence: Optional[Dict[str, Any]] = None
    for index, (ra, rb) in enumerate(zip(records_a, records_b)):
        if ra != rb:
            first_divergence = {
                "index": index,
                "round": ra.round,
                "left": ra.to_dict(),
                "right": rb.to_dict(),
            }
            break
    if first_divergence is None and len(records_a) != len(records_b):
        longer, which = (
            (records_a, "left")
            if len(records_a) > len(records_b)
            else (records_b, "right")
        )
        index = min(len(records_a), len(records_b))
        first_divergence = {
            "index": index,
            "round": longer[index].round,
            "only_in": which,
            which: longer[index].to_dict(),
        }

    counts_a, counts_b = a.counts(), b.counts()
    kind_deltas = {
        kind: counts_b.get(kind, 0) - counts_a.get(kind, 0)
        for kind in sorted(set(counts_a) | set(counts_b))
        if counts_b.get(kind, 0) != counts_a.get(kind, 0)
    }

    def sends_per_round(log: TraceLog) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for record in log.filter(kind="send"):
            if record.round is None:
                continue  # event-driven send: counted in kind deltas only
            out[record.round] = out.get(record.round, 0) + 1
        return out

    sends_a, sends_b = sends_per_round(a), sends_per_round(b)
    round_deltas = {
        str(round_index): sends_b.get(round_index, 0)
        - sends_a.get(round_index, 0)
        for round_index in sorted(set(sends_a) | set(sends_b))
        if sends_b.get(round_index, 0) != sends_a.get(round_index, 0)
    }
    return {
        "identical": first_divergence is None and not kind_deltas,
        "records": {"left": len(records_a), "right": len(records_b)},
        "first_divergence": first_divergence,
        "kind_count_deltas": kind_deltas,
        "send_round_deltas": round_deltas,
    }


def _print_summary(summary: Dict[str, Any]) -> None:
    print(f"records: {summary['records']}   rounds: {summary['rounds']}")
    print("kind counts:")
    for kind, count in summary["kind_counts"].items():
        print(f"  {kind:<8} {count}")
    for event_id, entry in summary["events"].items():
        line = (
            f"event {event_id}: publisher={entry['publisher']} "
            f"delivered={entry['delivered']} "
            f"receivers={entry['distinct_receivers']}"
        )
        if "delivery_ratio" in entry:
            line += (
                f" delivery_ratio={entry['delivery_ratio']:.4f}"
                " false_reception_ratio="
                f"{entry['false_reception_ratio']:.4f}"
            )
            if entry.get("estimated"):
                line += " (estimated from sampled records)"
        print(line)
    latency = summary["delivery_latency"]
    if latency["count"]:
        print(
            f"delivery latency: n={latency['count']} "
            f"mean={latency['mean']} rounds"
        )
        labels = [f"<={bound}" for bound in latency["bounds"]] + ["over"]
        print(
            "  "
            + "  ".join(
                f"{label}:{count}"
                for label, count in zip(labels, latency["buckets"])
                if count
            )
        )
    if summary["membership"]:
        print("membership episodes:")
        for entry in summary["membership"]:
            peer = f" <- {entry['peer']}" if entry["peer"] else ""
            print(
                f"  [{entry['round']:>4}] {entry['kind']:<8} "
                f"{entry['process']}{peer}"
            )
    counters = summary.get("counters")
    if counters:
        print("counters:")
        for subsystem, values in sorted(counters.items()):
            rendered = ", ".join(
                f"{name}={value}"
                for name, value in sorted(values.items())
                if not isinstance(value, dict)
            )
            print(f"  {subsystem}: {rendered}")


def _print_diff(diff: Dict[str, Any]) -> None:
    if diff["identical"]:
        print("traces are identical "
              f"({diff['records']['left']} records)")
        return
    print(
        f"traces differ: left={diff['records']['left']} records, "
        f"right={diff['records']['right']} records"
    )
    divergence = diff["first_divergence"]
    if divergence is not None:
        print(
            f"first divergence at record {divergence['index']} "
            f"(round {divergence['round']}):"
        )
        for side in ("left", "right"):
            if side in divergence:
                print(f"  {side}: {divergence[side]}")
    if diff["kind_count_deltas"]:
        print("kind count deltas (right - left): "
              f"{diff['kind_count_deltas']}")
    if diff["send_round_deltas"]:
        print("send deltas by round (right - left): "
              f"{diff['send_round_deltas']}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect repro.obs JSONL traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize", help="roll a trace up into report-level numbers"
    )
    summarize.add_argument("trace", help="trace file (.jsonl.gz works too)")
    summarize.add_argument("--json", action="store_true")

    diff = commands.add_parser(
        "diff", help="localize where two traces diverge"
    )
    diff.add_argument("left")
    diff.add_argument("right")
    diff.add_argument("--json", action="store_true")

    validate = commands.add_parser(
        "validate", help="schema-check a trace file"
    )
    validate.add_argument("trace")

    render = commands.add_parser(
        "render", help="print the human-readable timeline"
    )
    render.add_argument("trace")
    render.add_argument("--limit", type=int, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            summary = summarize_trace(args.trace)
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                _print_summary(summary)
        elif args.command == "diff":
            diff = diff_traces(args.left, args.right)
            if args.json:
                print(json.dumps(diff, indent=2, sort_keys=True))
            else:
                _print_diff(diff)
            return 0 if diff["identical"] else 3
        elif args.command == "validate":
            count, problems = validate_trace(args.trace)
            for problem in problems:
                print(f"error: {problem}")
            if problems:
                return 1
            print(f"{args.trace}: {count} records, schema ok")
        elif args.command == "render":
            print(_load(args.trace).render(limit=args.limit))
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
