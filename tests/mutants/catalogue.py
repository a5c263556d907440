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
        "return envelopes if flags is None else list(compress(envelopes, flags.tolist()))",
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
        "the live round draws one destination fewer",
        "repro/sim/vector.py",
        "            columns, self._ctx.rng, self._config.fanout, gossip,",
        "            columns, self._ctx.rng, self._config.fanout - 1, gossip,",
        (
            "tests/sim/test_vector.py::TestCompatBitIdentity",
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_untraced_scripts",
        ),
    ),
    Mutant(
        "the static run's outcome reports no leftover buffer",
        "repro/sim/vector.py",
        "    left[:, rows.slot] = rows.depth, rows.rate, rows.round\n",
        "    left[:, rows.slot] = 0 * rows.depth, rows.rate, rows.round\n",
        ("tests/sim/test_vector.py::TestCompatBitIdentity::test_report_and_node_state_identical",),
    ),
    Mutant(
        "a leaf run starts one member late",
        "repro/sim/group.py",
        "        runs = [np.cumsum(start) - 1 for start in starts]\n",
        "        runs = [np.cumsum(start) - 1 for start in starts]\n"
        "        runs[d - 1] = np.cumsum(np.r_[True, False, starts[d - 1][1:-1]][:n]) - 1\n",
        (
            "tests/sim/test_vector.py::TestGeneratedEquivalence",
            "tests/sim/test_group.py::TestBuiltEqualsPerMemberReference::test_tables_nodes_and_order",
        ),
    ),
    Mutant(
        "the batched draw's set branch accepts a repeat",
        "repro/core/rate.py",
        "                while j >= n or j in selected:\n",
        "                while j >= n:\n",
        ("tests/core/test_rate.py::TestDrawPrimitive::test_each_is_one_random_sample_per_size",),
    ),
    Mutant(
        "the array kernel appends new infections in receiver order, not first-arrival order",
        "repro/sim/vector.py",
        "        fresh = np.sort(unseen[first])\n",
        "        fresh = unseen[first]\n",
        (
            "tests/sim/test_vector.py::TestCompatBitIdentity",
            "tests/sim/test_vector.py::TestGeneratedEquivalence",
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_untraced_scripts",
        ),
    ),
    Mutant(
        "a static run walks a crashed member's row",
        "repro/sim/vector.py",
        "        walk = rows.slot[alive[rows.slot]]\n",
        "        walk = rows.slot\n",
        ("tests/sim/test_vector.py::TestGeneratedEquivalence",),
    ),
    Mutant(
        "the kernel's fault fork writes no dispositions",
        "repro/sim/vector.py",
        "            if emit is not None:\n                emit_dispositions(",
        "            if False:\n                emit_dispositions(",
        (
            "tests/sim/test_vector.py::TestGeneratedEquivalence",
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_traced_scripts",
        ),
    ),
    Mutant(
        "an uninterested receiver delivers on the live round",
        "repro/sim/vector.py",
        "            verdicts[mine] = flats.verdicts(self.events[col])[at[mine]]\n",
        "            verdicts[mine] = True\n",
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
        "a demoted row keeps its old seq",
        "repro/sim/vector.py",
        "            seq[moved] = rows.stamp(len(moved))\n",
        "            rows.stamp(len(moved))\n",
        (
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_untraced_scripts",
        ),
    ),
    Mutant(
        "the live exchange applies an envelope the link dropped",
        "repro/sim/vector.py",
        "        at = np.flatnonzero(kept & receiving[dest])\n",
        "        at = np.flatnonzero(receiving[dest])\n",
        (
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
    Mutant(
        "a reply carries the replier's current versions",
        "repro/membership/gossip_pull.py",
        "    replies = tokens.copy()\n",
        "    replies = tokens\n",
        ("tests/sim/test_runtime_kernel.py::TestPullBatchEqualsThePulls",),
    ),
    Mutant(
        "a pull batch never installs at depth 1",
        "repro/membership/gossip_pull.py",
        "        moved = took > 0\n",
        "        moved = (took > 0) & (depth > 0)\n",
        (
            "tests/sim/test_runtime.py::TestReplicasConverge",
            "tests/membership/test_gossip_pull.py::TestConvergence::test_anti_entropy_converges",
        ),
    ),
    Mutant(
        "the shared stale mask uses <=",
        "repro/membership/failure_detector.py",
        "        return self._near[monitors] < now - self._timeout",
        "        return self._near[monitors] <= now - self._timeout",
        ("tests/sim/test_membership_rounds.py::TestMembershipRounds",),
    ),
    Mutant(
        "the row order outlives a slot doubling",
        "repro/sim/vector.py",
        "        if slots > len(self.sent):\n            self._order = None",
        "        if False:\n            self._order = None",
        (
            "tests/sim/test_runtime.py::TestActiveSetScheduling::"
            "test_a_join_that_doubles_the_slots_keeps_node_reads",
        ),
    ),
    Mutant(
        "a verdict column is not extended for interests compiled after its first pass",
        "repro/sim/vector.py",
        "            fresh = self.interests.evaluate(event, done)\n",
        "            fresh = np.zeros(len(self.interests) - done, bool)\n",
        (
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_untraced_scripts",
            "tests/sim/test_runtime_kernel.py::TestKernelEqualsTheLoop::test_traced_scripts",
        ),
    ),
    Mutant(
        "an open interval end is treated as closed",
        "repro/interests/columns.py",
        "(v == lo) & ~(sure & a[\"lo_closed\"][i0:])",
        "(v == lo) & ~sure",
        (
            "tests/interests/test_columns.py::TestVerdictsAreMatches::test_one_constraint_on_its_ends",
            "tests/interests/test_columns.py::TestVerdictsAreMatches::test_one_pass_is_every_match",
        ),
    ),
)
