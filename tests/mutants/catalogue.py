"""The committed mutant catalogue: one deliberate fault per guarantee or
identity, each with the tests that must catch it.

An entry names a file under ``src/``, the exact text the mutant
replaces (it must occur exactly once in that file), the replacement,
and the pytest node ids that must catch it (the mutant is killed when
one of them fails).
``python tests/mutants/run.py`` applies each entry to a copy of
``src/`` and runs only its killers.  A refactor that rewrites the
mutated text must carry its entry forward: an entry whose old text no
longer matches fails the run.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    """One fault: ``old`` becomes ``new`` in ``src/<path>``."""

    name: str
    path: str
    old: str
    new: str
    killers: Tuple[str, ...]


CATALOGUE: Tuple[Mutant, ...] = (
    Mutant(
        "view refresh replaces a table instead of refreshing it in place",
        "repro/membership/knowledge.py",
        "            if table is None:\n                table = build_view(",
        "            if True:\n                table = build_view(",
        (
            "tests/membership/test_lifecycle.py::TestOneStore",
            "tests/integration/test_pubsub.py::TestRefreshInPlace",
        ),
    ),
    Mutant(
        "line 7's round bound off by one",
        "repro/core/rounds.py",
        "    return round_bound(\n        estimate,",
        "    return 1 + round_bound(\n        estimate,",
        ("tests/core/test_rounds.py::TestDepthRoundBound",),
    ),
    Mutant(
        "transmit ignores the loss verdicts",
        "repro/sim/network.py",
        "return envelopes if flags is None else list(compress(envelopes, flags))",
        "return envelopes",
        ("tests/sim/test_network.py::TestLoss::test_transmit_is_one_flags_batch",),
    ),
    Mutant(
        "trace_arrivals drops the deliver record",
        "repro/sim/vector.py",
        "        if n in delivering:\n",
        "        if n in delivering and False:\n",
        (
            "tests/sim/test_vector.py::TestTracedBitIdentity",
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_traced_scripts",
        ),
    ),
    Mutant(
        "the compat kernel draws one destination fewer",
        "repro/sim/vector.py",
        "count = fanout if fanout < m else m",
        "count = fanout - 1 if fanout < m else m - 1",
        ("tests/sim/test_vector.py::TestCompatBitIdentity",),
    ),
    Mutant(
        "an uninterested receiver delivers on the live round",
        "repro/sim/vector.py",
        "            delivers = node.interest.matches(event)",
        "            delivers = True",
        (
            "tests/sim/test_runtime.py::TestContentBasedRuntime::test_selective_delivery_in_runtime",
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_untraced_scripts",
        ),
    ),
    Mutant(
        "a crashed slot is left receiving",
        "repro/sim/runtime.py",
        "        self._receiving[slot] = False\n        self._active.discard(slot)\n"
        "        self._live_cache = None\n        self._m_crashes.inc()",
        "        self._active.discard(slot)\n"
        "        self._live_cache = None\n        self._m_crashes.inc()",
        (
            "tests/sim/test_runtime.py::TestFailureDetection::test_only_the_victims_leaf_mates_report_it",
            "tests/sim/test_runtime.py::TestActiveSetScheduling::test_both_modes_identical_through_churn",
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_untraced_scripts",
        ),
    ),
    Mutant(
        "hearing from a suspect no longer retracts the accusation",
        "repro/membership/failure_detector.py",
        "        self._near[rows, cols] = now\n        self._accused[rows, cols] = False\n",
        "        self._near[rows, cols] = now\n",
        ("tests/membership/test_failure_detector.py::TestContactTable::test_hearing_from_the_suspect_retracts",),
    ),
    Mutant(
        "_repeats compares adjacent columns only",
        "repro/sim/vector.py",
        "        for left in range(right):\n",
        "        for left in range(right - 1, right):\n",
        ("tests/par/test_tree_round.py::TestHelpers::test_repeats_match_the_sorted_reference",),
    ),
    Mutant(
        "decode_envelope swallows a malformed datagram",
        "repro/net/transport.py",
        '        raise NetError(f"malformed datagram: {exc}") from exc',
        "        return None",
        ("tests/net/test_transport.py::TestWireFormat::test_malformed_datagrams_raise_net_error",),
    ),
    Mutant(
        "the trial pool drops the last chunk",
        "repro/par/executor.py",
        "                 for start in range(0, len(tasks), size)],",
        "                 for start in range(0, len(tasks) - size, size)],",
        ("tests/par/test_executor.py::TestOrdering::test_uneven_chunks_keep_every_task_in_order",),
    ),
    Mutant(
        "a keep verdict that ignores the record kind",
        "repro/obs/sampling.py",
        '    prefix = f"{kind}|".encode("utf-8")',
        '    prefix = b"send|"',
        (
            "tests/obs/test_sampling.py::TestKeep::test_kinds_sample_independently",
            "tests/par/test_subtree.py::TestShardTraces",
        ),
    ),
    Mutant(
        "a sink drops its closing line",
        "repro/obs/sink.py",
        "        elif self._late:",
        "        elif False:",
        (
            "tests/obs/test_observer_matrix.py::test_sink_summarizes_like_the_log",
            "tests/obs/test_sink.py::TestJsonlSink::test_header_waits_for_the_first_record",
        ),
    ),
)
