"""The whole-tree round against the per-shard waves it replaces.

:class:`~repro.sim.vector.TreeState` plays a round of the sharded
kernel as one pass per depth over every alive buffered member, in
passes of whole shards.  :class:`ShardWave` and :func:`run_waves` keep
the design it replaced as the reference: one state per depth-1 subtree,
one synchronous wave per busy shard per round, cross-shard envelopes
routed to their destination shard's next wave, each shard's records
kept apart and merged by a stable sort on the round.  Both draw from the
same per-``(shard, round)`` streams in the same order, so over drawn
trees, fault rates and protocol switches — at a pass budget of one
member (one shard a pass) and of the whole tree — every report field,
``subtree.*`` counter and trace record must be equal.  The reference's
infection curve books a cross-shard reception in the round after its
send; the kernel's books it in the send's round, which must match the
first-receipt counts of the run's own full trace.  The pass's row
helpers, ``_repeats`` and ``_segments``, are held to the sort- and
``np.diff``-based forms they replaced.
"""

import dataclasses
from collections import Counter
from itertools import accumulate
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PmcastConfig, SimConfig
from repro.obs import MetricsRegistry, Observer, TraceLog, TraceSampler
from repro.obs.sampling import keep, keep_mask
from repro.par import build_regular_spec, run_sharded_dissemination
from repro.sim import vector
from repro.sim.metrics import DisseminationReport
from repro.sim.rng import derive_seed


def _whole_matrix_distinct(gen, rows, n, k):
    """The reference redraw: re-sort the whole matrix after each redraw."""
    draws = gen.integers(0, n, size=(rows, k))
    while True:
        ordered = np.sort(draws, axis=1)
        bad = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if not bad.any():
            return draws
        draws[bad] = gen.integers(0, n, size=(int(bad.sum()), k))


def _sorted_repeats(draws):
    """The reference repeat check: sort each row, compare neighbours."""
    ordered = np.sort(draws, axis=1)
    return np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))


def _diff_segments(keys):
    """The reference segmentation: one numpy scalar read per run."""
    if not keys.size:
        return []
    starts = np.flatnonzero(np.diff(keys)) + 1
    bounds = [0, *starts.tolist(), int(keys.size)]
    return [
        (int(keys[start]), start, stop)
        for start, stop in zip(bounds, bounds[1:])
    ]


@st.composite
def small_matrices(draw):
    """Int draw matrices whose small value range makes repeats common."""
    rows = draw(st.integers(0, 300))
    cols = draw(st.integers(1, 6))
    high = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, high, size=(rows, cols))


@st.composite
def sorted_keys(draw):
    """Sorted non-negative int64 keys in runs of 1-60 equal values."""
    values = sorted(set(draw(st.lists(st.integers(0, 2**63 - 1), max_size=12))))
    lengths = draw(
        st.lists(
            st.integers(1, 60), min_size=len(values), max_size=len(values)
        )
    )
    return np.repeat(np.array(values, dtype=np.int64), lengths)


@dataclasses.dataclass
class ShardWave:
    """One depth-1 subtree's state, advanced one wave at a time."""

    spec: vector.RegularTreeSpec
    shard: int
    base: int
    alive: np.ndarray
    received: np.ndarray
    buf_depth: np.ndarray
    buf_round: np.ndarray
    doomed: np.ndarray
    doom_round: np.ndarray
    crash_cursor: int = 0
    sent: int = 0
    recv: int = 0
    lost: int = 0
    dist: Optional[np.ndarray] = None
    trace: Optional[Dict[str, object]] = None

    @classmethod
    def create(cls, spec, shard, trace_rate):
        size = spec.shard_size
        base = shard * size
        rng = np.random.default_rng(
            derive_seed(spec.seed, "vcrash", spec.event_id, shard)
        )
        if spec.crash_fraction > 0.0:
            doomed = rng.random(size) < spec.crash_fraction
            doom_round = rng.integers(0, spec.max_rounds, size, dtype=np.int32)
        else:
            doomed = np.zeros(size, dtype=bool)
            doom_round = np.zeros(size, dtype=np.int32)
        state = cls(
            spec, shard, base,
            alive=np.ones(size, dtype=bool),
            received=np.zeros(size, dtype=bool),
            buf_depth=np.zeros(size, dtype=np.int8),
            buf_round=np.zeros(size, dtype=np.int16),
            doomed=doomed,
            doom_round=doom_round,
            dist=np.zeros(spec.depth, dtype=np.int64),
        )
        if trace_rate is not None:
            addresses = [spec.address(base + i) for i in range(size)]
            state.trace = {"addresses": addresses, "records": []}
            for kind in ("send", "loss", "receive", "deliver"):
                state.trace[kind] = np.asarray(
                    keep_mask(kind, addresses, spec.event_id, trace_rate)
                )
            state.trace["crash"] = np.asarray(
                keep_mask("crash", addresses, 0, trace_rate)
            )
        publisher = spec.publisher
        if base <= publisher < base + size:
            local = publisher - base
            state.doomed[local] = False
            state.received[local] = True
            state.buf_depth[local] = 1
            if state.trace is not None:
                address = state.trace["addresses"][local]
                records = state.trace["records"]
                if keep("publish", address, spec.event_id, trace_rate):
                    records.append(
                        (0, "publish", address, None, spec.event_id, 0)
                    )
                if spec.own_match[publisher] and state.trace["deliver"][local]:
                    records.append(
                        (0, "deliver", address, None, spec.event_id, 0)
                    )
        return state

    @property
    def busy(self):
        return bool((self.alive & (self.buf_depth > 0)).any())

    def advance_crashes(self, upto):
        if self.crash_cursor >= upto:
            return
        sel = (
            self.doomed
            & (self.doom_round >= self.crash_cursor)
            & (self.doom_round < upto)
        )
        self.alive[sel] = False
        if self.trace is not None:
            kept = np.nonzero(sel & self.trace["crash"])[0]
            order = np.argsort(self.doom_round[kept], kind="stable")
            for local in kept[order]:
                self.trace["records"].append(
                    (
                        int(self.doom_round[local]) + 1, "crash",
                        self.trace["addresses"][local], None, 0, 0,
                    )
                )
        self.crash_cursor = upto

    def receive(self, local, depths, rounds, trace_round):
        ok = self.alive[local]
        local, depths, rounds = local[ok], depths[ok], rounds[ok]
        self.recv += int(local.size)
        trace = self.trace
        event_id = self.spec.event_id
        if trace is not None:
            for position in np.nonzero(trace["receive"][local])[0]:
                trace["records"].append(
                    (
                        trace_round, "receive",
                        trace["addresses"][local[position]], None,
                        event_id, int(depths[position]),
                    )
                )
        fresh = ~self.received[local]
        local, depths, rounds = local[fresh], depths[fresh], rounds[fresh]
        uniq, first = np.unique(local, return_index=True)
        self.received[uniq] = True
        self.buf_depth[uniq] = depths[first]
        self.buf_round[uniq] = rounds[first]
        if trace is not None:
            delivering = trace["deliver"][uniq] & self.spec.own_match[
                uniq + self.base
            ]
            for member in uniq[delivering]:
                trace["records"].append(
                    (
                        trace_round, "deliver", trace["addresses"][member],
                        None, event_id, 0,
                    )
                )

    def wave(self, inbound_dest, inbound_round, round_index):
        """One synchronous round; returns the cross-shard envelopes."""
        spec, base = self.spec, self.base
        self.advance_crashes(round_index)
        if inbound_dest is not None:
            self.receive(
                inbound_dest - base,
                np.ones(inbound_dest.size, dtype=np.int8),
                inbound_round,
                round_index,
            )
        self.advance_crashes(round_index + 1)
        gen = np.random.default_rng(
            derive_seed(spec.seed, "subtree", spec.event_id, self.shard, round_index)
        )
        parts = []
        for depth in range(1, spec.depth + 1):
            table = spec.tables[depth - 1]
            sel = np.nonzero(self.alive & (self.buf_depth == depth))[0]
            if sel.size == 0:
                continue
            sub = (sel + base) // table.block
            if table.flood is not None and table.flood[sub].any():
                flooding = table.flood[sub]
                flooders, sub_f = sel[flooding], sub[flooding]
                mask = table.eff_mask[sub_f].copy()
                mask[np.arange(flooders.size), (flooders + base) % table.block] = False
                row, col = np.nonzero(mask)
                parts.append(
                    (
                        sub_f[row] * table.block + col,
                        np.full(row.size, depth, dtype=np.int8),
                        self.buf_round[flooders][row],
                        flooders[row] + base,
                    )
                )
                self.buf_depth[flooders] = 0
                sel, sub = sel[~flooding], sub[~flooding]
                if sel.size == 0:
                    continue
            live = self.buf_round[sel] < table.bound[sub]
            expired = sel[~live]
            if depth < spec.depth:
                self.buf_depth[expired] = depth + 1
                self.buf_round[expired] = 0
            else:
                self.buf_depth[expired] = 0
            gossipers, sub_g = sel[live], sub[live]
            if gossipers.size == 0:
                continue
            self.buf_round[gossipers] += 1
            rounds_g = self.buf_round[gossipers]
            selfrel = (gossipers + base) % table.block
            if depth < spec.depth:
                remainder = selfrel % table.child
                selfpos = np.where(
                    remainder < spec.redundancy,
                    selfrel // table.child * spec.redundancy + remainder,
                    -1,
                )
            else:
                selfpos = selfrel
            for has_self in (False, True):
                pick = (selfpos >= 0) == has_self
                candidates = table.length - has_self
                if not pick.any() or candidates <= 0:
                    continue
                rows = int(pick.sum())
                count = min(spec.config.fanout, candidates)
                if count == candidates:
                    draws = np.tile(np.arange(candidates), (rows, 1))
                else:
                    draws = _whole_matrix_distinct(gen, rows, candidates, count)
                if has_self:
                    draws = draws + (draws >= selfpos[pick][:, None])
                sub_p = sub_g[pick]
                kept = table.eff_mask[sub_p[:, None], draws]
                shape = (rows, count)
                parts.append(
                    (
                        (sub_p[:, None] * table.block + table.template[draws])[kept],
                        np.full(int(kept.sum()), depth, dtype=np.int8),
                        np.broadcast_to(rounds_g[pick][:, None], shape)[kept],
                        np.broadcast_to((gossipers[pick] + base)[:, None], shape)[kept],
                    )
                )
        if parts:
            dest, depths, rounds, senders = (np.concatenate(c) for c in zip(*parts))
        else:
            dest = senders = np.empty(0, dtype=np.int64)
            depths = np.empty(0, dtype=np.int8)
            rounds = np.empty(0, dtype=np.int16)
        self.sent += int(dest.size)
        common = np.zeros(dest.size, dtype=np.int64)
        for level in range(1, spec.depth + 1):
            block = spec.arity ** (spec.depth - level)
            common += senders // block == dest // block
        np.add.at(self.dist, spec.depth - 1 - common, 1)
        kept = None
        if spec.loss_probability > 0.0 and dest.size:
            kept = gen.random(dest.size) >= spec.loss_probability
            self.lost += int(dest.size - kept.sum())
        if self.trace is not None:
            sender_local = senders - base
            for position in range(dest.size):
                kind = "send" if kept is None or kept[position] else "loss"
                if self.trace[kind][sender_local[position]]:
                    self.trace["records"].append(
                        (
                            round_index + 1, kind,
                            self.trace["addresses"][sender_local[position]],
                            spec.address(int(dest[position])),
                            spec.event_id, int(depths[position]),
                        )
                    )
        if kept is not None:
            dest, depths, rounds = dest[kept], depths[kept], rounds[kept]
        cross = dest // spec.shard_size != self.shard
        self.receive(
            dest[~cross] - base, depths[~cross], rounds[~cross], round_index + 1
        )
        return dest[cross], rounds[cross]


def run_waves(spec, trace_rate=None):
    """The per-shard wave coordinator: ``(report, counters, records)``."""
    states = [
        ShardWave.create(spec, shard, trace_rate)
        for shard in range(spec.num_shards)
    ]
    busy = [state.busy for state in states]
    pending: Dict[int, List] = {}
    curve: List[int] = []
    rounds = waves = crossed = 0
    for round_index in range(spec.max_rounds):
        work = [s for s in range(spec.num_shards) if busy[s] or s in pending]
        if not work:
            break
        rounds = round_index + 1
        waves += len(work)
        routed: Dict[int, List] = {}
        for shard in work:
            inbound = pending.get(shard)
            out_dest, out_round = states[shard].wave(
                None if inbound is None else np.concatenate(inbound[0]),
                None if inbound is None else np.concatenate(inbound[1]),
                round_index,
            )
            busy[shard] = states[shard].busy
            crossed += int(out_dest.size)
            targets = out_dest // spec.shard_size
            for target in np.unique(targets):
                parts = routed.setdefault(int(target), ([], []))
                parts[0].append(out_dest[targets == target])
                parts[1].append(out_round[targets == target])
        pending = routed
        curve.append(sum(int(state.received.sum()) for state in states))
    records = []
    for state in states:
        state.advance_crashes(rounds)
        records.extend(state.trace["records"] if state.trace else ())
    records.sort(key=lambda record: record[0])
    received = np.concatenate([state.received for state in states])
    own = spec.own_match
    interested = int(own.sum())
    received_total = int(received.sum())
    recv = sum(state.recv for state in states)
    report = DisseminationReport(
        group_size=spec.size,
        interested=interested,
        uninterested=spec.size - interested - (0 if own[spec.publisher] else 1),
        delivered_interested=int((received & own).sum()),
        received_uninterested=int((received & ~own).sum())
        - (0 if own[spec.publisher] else 1),
        received_total=received_total,
        crashed=sum(int(state.doomed.sum()) for state in states),
        rounds=rounds,
        messages_sent=sum(state.sent for state in states),
        messages_lost=sum(state.lost for state in states),
        duplicate_receptions=max(recv - (received_total - 1), 0),
        infection_curve=tuple(curve),
        messages_by_distance=tuple(
            int(value) for value in sum(state.dist for state in states)
        ),
    )
    counters = {
        "waves": waves,
        "envelopes_sent": report.messages_sent,
        "envelopes_lost": report.messages_lost,
        "cross_shard_envelopes": crossed,
        "receptions": recv,
    }
    return report, counters, records


def _kernel(spec, trace_rate=None, budget=None):
    """The kernel's ``(report, counters, records)`` for one run."""
    registry = MetricsRegistry()
    trace = None if trace_rate is None else TraceLog()
    observer = Observer(
        registry=registry,
        trace=trace,
        sampler=None if trace_rate is None else TraceSampler(trace_rate),
    )
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(vector, "_PASS_BUDGET", budget)
        report = run_sharded_dissemination(spec, observer=observer)
    records = [
        (
            record.round, record.kind, str(record.process),
            None if record.peer is None else str(record.peer),
            record.event_id, record.depth,
        )
        for record in (trace or ())
    ]
    return report, registry.snapshot()["subtree"], records


def _first_receipts(records, rounds):
    """Cumulative count of members holding the event after each round,
    read off a full trace (the publish counts as the first receipt)."""
    first: Dict[str, int] = {}
    for round_index, kind, process, *_ in records:
        if kind in ("publish", "receive"):
            first.setdefault(process, round_index)
    per_round = Counter(max(round_index, 1) for round_index in first.values())
    return list(accumulate(per_round[r] for r in range(1, rounds + 1)))


specs = st.builds(
    dict,
    arity=st.integers(2, 6),
    depth=st.integers(2, 4),
    eps=st.sampled_from([0.0, 0.05, 0.3]),
    tau=st.sampled_from([0.0, 0.05, 0.3]),
    fanout=st.integers(1, 4),
    redundancy=st.integers(1, 6),
    threshold_h=st.sampled_from([0, 2]),
    flood=st.booleans(),
    min_rounds=st.integers(1, 3),
    rate=st.sampled_from([0.1, 0.4, 0.9]),
    seed=st.integers(0, 10_000),
)


def _build(params):
    arity = params["arity"]
    config = PmcastConfig(
        fanout=params["fanout"],
        redundancy=min(params["redundancy"], arity),
        threshold_h=params["threshold_h"],
        leaf_flood_threshold=0.5 if params["flood"] else 1.5,
        min_rounds_per_depth=params["min_rounds"],
    )
    sim = SimConfig(
        seed=params["seed"],
        loss_probability=params["eps"],
        crash_fraction=params["tau"],
        max_rounds=24,
    )
    return build_regular_spec(
        arity, params["depth"], params["rate"], config=config,
        sim_config=sim, event_id=1,
    )


def _no_curve(report):
    return dataclasses.replace(report, infection_curve=())


class TestTreeRound:
    @settings(max_examples=100, deadline=None)
    @given(params=specs, whole=st.booleans())
    def test_reports_and_counters_match_the_waves(self, params, whole):
        spec = _build(params)
        expected, counters, _ = run_waves(spec)
        budget = spec.size if whole else 1
        report, got, _ = _kernel(spec, budget=budget)
        assert _no_curve(report) == _no_curve(expected)
        assert len(report.infection_curve) == report.rounds
        assert got == counters

    @settings(max_examples=30, deadline=None)
    @given(params=specs, rate=st.sampled_from([1.0, 0.5]), whole=st.booleans())
    def test_traces_match_the_waves(self, params, rate, whole):
        spec = _build(params)
        report, _, expected = run_waves(spec, rate)
        budget = spec.size if whole else 1
        got, _, records = _kernel(spec, rate, budget)
        assert _no_curve(got) == _no_curve(report)
        assert records == expected

    @settings(max_examples=50, deadline=None)
    @given(params=specs)
    def test_curve_is_the_traced_first_receipts(self, params):
        """Each round's curve entry counts the members holding the event
        after it — cross-shard receivers in their send's round."""
        spec = _build(params)
        report, _, records = _kernel(spec, 1.0)
        curve = list(report.infection_curve)
        assert curve == _first_receipts(records, report.rounds)
        assert not curve or curve[-1] == report.received_total

    def test_curve_books_cross_shard_receptions_in_their_round(self):
        spec = build_regular_spec(
            5, 3, 0.25,
            config=PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2),
            sim_config=SimConfig(seed=7, loss_probability=0.05, max_rounds=48),
            event_id=1,
        )
        report, _, records = _kernel(spec, trace_rate=1.0)
        assert list(report.infection_curve[:4]) == [4, 11, 15, 34]
        assert list(report.infection_curve) == _first_receipts(
            records, report.rounds
        )


class TestRedraw:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("extra", [0, 1, "3k"])
    def test_only_repeating_rows_redrawn_same_stream(self, k, extra):
        n = 3 * k if extra == "3k" else k + extra
        for seed in range(5):
            whole = np.random.default_rng(seed)
            expected = _whole_matrix_distinct(whole, 40, n, k)
            gen = np.random.default_rng(seed)
            draws = gen.integers(0, n, size=(40, k))
            vector._redraw(gen, draws, vector._repeats(draws), n)
            assert np.array_equal(draws, expected)
            assert gen.bit_generator.state == whole.bit_generator.state
            assert all(len(set(row)) == k for row in draws.tolist())


class TestPassCuts:
    @pytest.mark.parametrize(
        "bounds, budget, cuts",
        [
            ([0, 3, 3, 7, 9], 1, [0, 3, 7, 9]),
            ([0, 3, 3, 7, 9], 4, [0, 3, 7, 9]),
            ([0, 3, 3, 7, 9], 7, [0, 7, 9]),
            ([0, 3, 3, 7, 9], 9, [0, 9]),
            ([0, 0, 0], 4, [0]),
        ],
    )
    def test_whole_shards_within_budget(self, bounds, budget, cuts):
        assert vector._pass_cuts(np.array(bounds), budget) == cuts


class TestHelpers:
    @settings(max_examples=300, deadline=None)
    @given(draws=small_matrices())
    def test_repeats_match_the_sorted_reference(self, draws):
        got = vector._repeats(draws)
        assert got.tolist() == _sorted_repeats(draws).tolist()

    @settings(max_examples=300, deadline=None)
    @given(keys=sorted_keys())
    def test_segments_match_the_diff_reference(self, keys):
        got = vector._segments(keys)
        assert got == _diff_segments(keys)
        assert all(type(value) is int for segment in got for value in segment)
