"""The struct-of-arrays fast path: bit-identity and invariants.

Two kernels live in :mod:`repro.sim.vector`:

* the **draw-for-draw kernel** (``LiveRound``, driven for a static run
  by ``try_run_vectorized``) replays the scalar reference loop's RNG
  draws position-for-position and is what ``run_dissemination`` runs,
  fault plan or not, so a default-config run must be *bit-identical* to
  the same run under ``SimConfig(vectorized=False)`` — same report, same
  trace records, same per-member outcome.  The suite sweeps the
  protocol switch matrix (loss, crashes, §5.3 tuning, §6 leaf flood,
  §3.2 shortcut), then draws the whole configuration space, fault plans
  included, with Hypothesis; nothing falls back and nothing warns.
* the **regular-tree kernel** (``RegularTreeSpec``/``TreeState``)
  has its own per-``(shard, round)`` seed contract; its round
  invariants are property-tested here (the statistical validation
  lives in the conformance harness's ``scale`` suite).
"""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
import warnings
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.interests.events import Event
from repro.obs import MetricsRegistry, Observer, TraceLog
from repro.obs.sampling import TraceSampler
from repro.obs.timeline import TimelineRecorder
from repro.pubsub import PubSubSystem
from repro.sim import (
    PmcastGroup,
    RegularTreeSpec,
    TreeState,
    VectorUnsupported,
    bernoulli_interests,
    derive_rng,
    run_dissemination,
    run_dissemination_outcome,
)
from repro.sim import vector
from repro.core.rate import sample_positions
from repro.core.rounds import depth_round_bound
from tests.faults import clauses


class TestSamplePositions:
    """The CPython ``random.sample`` mirror, position for position."""

    @pytest.mark.parametrize(
        "n,k",
        [
            (1, 1), (5, 1), (5, 5), (10, 3),          # pool branch
            (100, 2), (1000, 3), (10648, 6),          # selection-set branch
            (50, 20), (64, 8),
        ],
    )
    def test_matches_random_sample(self, n, k):
        for seed in range(5):
            expected = random.Random(seed).sample(range(n), k)
            mirrored = sample_positions(random.Random(seed), n, k)
            assert mirrored == expected

    @pytest.mark.parametrize("n,k", [(2, 3), (0, 1), (5, -1), (30, 31)])
    def test_rejects_impossible_sizes_like_random_sample(self, n, k):
        # A draw below 1 would spin for ever on a real stream
        # (getrandbits(0) is always 0); the stub fails it instead.
        class Stub(random.Random):
            def getrandbits(self, bits):
                assert bits > 0, f"getrandbits({bits})"
                return 0

        with pytest.raises(ValueError):
            random.Random(0).sample(range(n), k)
        with pytest.raises(ValueError):
            sample_positions(Stub(0), n, k)


def _build_group(config, seed=11, arity=4, depth=3):
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.3, derive_rng(seed, "vector-int")
    )
    return PmcastGroup.build(members, config), addresses


def _node_state(outcome, addresses, event):
    """What a run's outcome says of every member: the six fields the
    node objects of a run used to carry."""
    state = {}
    columns = zip(addresses, *(column.tolist() for column in outcome))
    for address, alive, received, delivered, sent, receptions, depth, rate, round_ in columns:
        buffered = ((depth, event.event_id, rate, round_),) if depth else ()
        state[str(address)] = (alive, received, delivered, sent, receptions, buffered)
    return state


def _run_pair(config, sim_kwargs, seed=11, arity=4, depth=3, **run_kwargs):
    """The same dissemination on fresh groups: the reference loop
    (``vectorized=False``), then whatever the default config takes."""
    event = Event({"golden": 1}, event_id=42)
    outcomes = []
    for flag in ({"vectorized": False}, {}):
        group, addresses = _build_group(config, seed, arity, depth)
        report, outcome = run_dissemination_outcome(
            group,
            addresses[0],
            event,
            SimConfig(seed=seed, **flag, **sim_kwargs),
            **run_kwargs,
        )
        outcomes.append((report, _node_state(outcome, addresses, event)))
    return outcomes


MATRIX = [
    ("plain", PmcastConfig(fanout=2, redundancy=2), {}),
    ("lossy", PmcastConfig(fanout=2, redundancy=2),
     {"loss_probability": 0.1}),
    ("crashy", PmcastConfig(fanout=2, redundancy=2),
     {"crash_fraction": 0.05}),
    ("lossy_crashy", PmcastConfig(fanout=3, redundancy=3),
     {"loss_probability": 0.05, "crash_fraction": 0.03}),
    ("tuned_h", PmcastConfig(fanout=2, redundancy=2, threshold_h=2),
     {"loss_probability": 0.05}),
    ("leaf_flood", PmcastConfig(fanout=2, redundancy=2,
                                leaf_flood_threshold=0.2), {}),
    ("shortcut", PmcastConfig(fanout=2, redundancy=2,
                              local_interest_shortcut=True), {}),
    ("min_rounds", PmcastConfig(fanout=3, redundancy=3,
                                min_rounds_per_depth=2),
     {"loss_probability": 0.1, "crash_fraction": 0.02}),
    # Cut off by the round cap: live members are left buffering.
    ("capped", PmcastConfig(fanout=2, redundancy=2),
     {"loss_probability": 0.05, "max_rounds": 3}),
]


class TestCompatBitIdentity:
    @pytest.mark.parametrize(
        "config,sim_kwargs", [m[1:] for m in MATRIX],
        ids=[m[0] for m in MATRIX],
    )
    def test_report_and_node_state_identical(self, config, sim_kwargs):
        (scalar_report, scalar_nodes), (vector_report, vector_nodes) = (
            _run_pair(config, sim_kwargs)
        )
        assert vector_report == scalar_report
        assert vector_nodes == scalar_nodes

    def test_multiple_seeds(self):
        config = PmcastConfig(fanout=2, redundancy=2)
        for seed in range(3):
            scalar, vector = _run_pair(
                config, {"loss_probability": 0.05}, seed=seed
            )
            assert vector == scalar

    @pytest.mark.slow
    def test_paper_scale_identical(self):
        config = PmcastConfig(fanout=3, redundancy=3)
        scalar, vector = _run_pair(config, {}, arity=22, depth=3)
        assert vector == scalar

    def test_faulted_run_takes_the_kernel_and_stays_equal(self):
        # A fault plan's link decides envelope by envelope, and the
        # kernel hands it the round's envelopes as objects: the default
        # config must reproduce the vectorized=False faulted run exactly,
        # and nothing warns.
        config = PmcastConfig(fanout=2, redundancy=2)
        plan = FaultPlan(name="burst").with_loss_burst(2, 4, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar, default = _run_pair(
                config, {"loss_probability": 0.05}, faults=plan
            )
        assert default == scalar

    def test_partition_plan_takes_the_kernel(self):
        # A deterministic cut (no fault draw at all) over a loss-free
        # network: the kernel's, still equal.
        config = PmcastConfig(fanout=2, redundancy=2)
        plan = FaultPlan(name="cut").with_partition(0, 64, "0.0", "0.1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar, default = _run_pair(config, {}, faults=plan)
        assert default == scalar

    def test_hash_seed_independent(self):
        digests = []
        script = textwrap.dedent(
            """
            from repro.addressing import AddressSpace
            from repro.config import PmcastConfig, SimConfig
            from repro.interests.events import Event
            from repro.sim import (
                PmcastGroup, bernoulli_interests, derive_rng,
                run_dissemination,
            )
            space = AddressSpace.regular(4, 3)
            addresses = space.enumerate_regular(4)
            members = bernoulli_interests(
                addresses, 0.3, derive_rng(11, "vector-int")
            )
            group = PmcastGroup.build(
                members, PmcastConfig(fanout=2, redundancy=2)
            )
            report = run_dissemination(
                group, addresses[0], Event({"golden": 1}, event_id=42),
                SimConfig(seed=11, loss_probability=0.05),
            )
            print(report)
            """
        )
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(result.stdout)
        assert digests[0] == digests[1]


class TestFallbackObservability:
    """Nothing falls back: every default-config run, faulted or not, is
    one kernel run, counted in ``vector.runs``, and no ``sim`` counter
    is registered; ``vectorized=False`` is a choice and is not counted."""

    def _run(self, faults=None, **sim_kwargs):
        """One run under ``simplefilter("error")`` -> (registry, outcome)."""
        registry = MetricsRegistry()
        group, addresses = _build_group(PmcastConfig(fanout=2, redundancy=2))
        event = Event({"golden": 1}, event_id=42)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, outcome = run_dissemination_outcome(
                group,
                addresses[0],
                event,
                SimConfig(seed=11, **sim_kwargs),
                faults=faults,
                observer=Observer(registry=registry),
            )
        return registry, (report, _node_state(outcome, addresses, event))

    def _fallbacks(self, registry):
        """The ``sim`` counters the run registered (a fallback's)."""
        return registry.snapshot().get("sim", {})

    def test_eligible_run_is_silent_and_uncounted(self):
        registry, __ = self._run(loss_probability=0.05)
        assert self._fallbacks(registry) == {}
        assert registry.counter("vector", "runs").value == 1

    def test_reference_loop_is_uncounted(self):
        # vectorized=False is a choice, not a fallback.
        registry, __ = self._run(vectorized=False)
        assert self._fallbacks(registry) == {}
        assert registry.counter("vector", "runs").value == 0

    def test_faulted_default_run_is_a_kernel_run(self):
        plan = FaultPlan(name="burst").with_loss_burst(2, 4, 0.5)
        registry, outcome = self._run(faults=plan)
        assert registry.counter("vector", "runs").value == 1
        assert self._fallbacks(registry) == {}
        assert outcome == self._run(faults=plan, vectorized=False)[1]


class TestPubSubPublish:
    """The kernel as ``PubSubSystem.publish`` meets it: several events,
    one after the other, on one system."""

    def _publish_twice(self, monkeypatch, **flag):
        import repro.pubsub

        system = PubSubSystem(
            depth=3,
            config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(seed=5, loss_probability=0.05, **flag),
        )
        space = AddressSpace.regular(4, 3)
        members = bernoulli_interests(
            space.enumerate_regular(4), 0.4, derive_rng(5, "pubsub-int")
        )
        for address, interest in members.items():
            system.subscribe(address, interest)
        addresses = system.members()
        events = [Event({"n": n}, event_id=100 + n) for n in range(2)]
        outcomes = []

        def spy(*args, **kwargs):
            report, outcome = run_dissemination_outcome(*args, **kwargs)
            outcomes.append(outcome)
            return report, outcome

        monkeypatch.setattr(repro.pubsub, "run_dissemination_outcome", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [
                system.publish(addresses[3 * n], event)
                for n, event in enumerate(events)
            ]
        state = [
            (system.delivered_to(event), _node_state(outcome, addresses, event))
            for event, outcome in zip(events, outcomes)
        ]
        return reports, state

    def test_two_publishes_equal_the_reference_loop(self, monkeypatch):
        from repro.sim import engine

        kernel_runs = []

        def spy(*args, **kwargs):
            kernel_runs.append(1)
            return vector.try_run_vectorized(*args, **kwargs)

        monkeypatch.setattr(engine, "try_run_vectorized", spy)
        default = self._publish_twice(monkeypatch)
        # Both publishes took the kernel...
        assert len(kernel_runs) == 2
        # ...and equal the reference loop, which never asks the kernel
        # (publish() must hand the system's whole SimConfig down).
        assert default == self._publish_twice(monkeypatch, vectorized=False)
        assert len(kernel_runs) == 2
        assert all(report.received_total > 1 for report in default[0])


class TestTracedBitIdentity:
    """Sampled or not, both engines must emit the same records."""

    def _traced_run(self, config, sim_kwargs, vectorized, rate=None):
        group, addresses = _build_group(config)
        trace = TraceLog()
        flag = {} if vectorized else {"vectorized": False}
        report = run_dissemination(
            group,
            addresses[0],
            Event({"golden": 1}, event_id=42),
            SimConfig(seed=11, **flag, **sim_kwargs),
            observer=Observer(
                trace=trace,
                sampler=TraceSampler(rate) if rate is not None else None,
            ),
        )
        return report, trace

    @pytest.mark.parametrize(
        "config,sim_kwargs", [m[1:] for m in MATRIX],
        ids=[m[0] for m in MATRIX],
    )
    def test_full_traces_identical(self, config, sim_kwargs):
        __, scalar = self._traced_run(config, sim_kwargs, False)
        __, vector = self._traced_run(config, sim_kwargs, True)
        assert [r.to_dict() for r in vector] == [
            r.to_dict() for r in scalar
        ]

    @pytest.mark.parametrize("rate", [0.25, 0.6])
    def test_sampled_traces_identical_and_subset(self, rate):
        config = PmcastConfig(fanout=2, redundancy=2)
        sim_kwargs = {"loss_probability": 0.05, "crash_fraction": 0.03}
        full_report, full = self._traced_run(config, sim_kwargs, False)
        scalar_report, scalar = self._traced_run(
            config, sim_kwargs, False, rate=rate
        )
        vector_report, vector = self._traced_run(
            config, sim_kwargs, True, rate=rate
        )
        # Sampling is out of band: the report never changes.
        assert scalar_report == full_report
        assert vector_report == full_report
        scalar_records = [r.to_dict() for r in scalar]
        assert [r.to_dict() for r in vector] == scalar_records
        assert vector.meta["sampling"] == scalar.meta["sampling"]
        full_set = {tuple(sorted(r.to_dict().items())) for r in full}
        assert {
            tuple(sorted(r)) for r in (d.items() for d in scalar_records)
        } <= full_set
        assert 0 < len(scalar) < len(full)


@st.composite
def _scenarios(draw):
    """One dissemination drawn from the whole configuration space."""
    arity = draw(st.integers(2, 5))
    depth = draw(st.integers(2, 3))
    min_rounds = draw(st.integers(0, 2))
    victims = AddressSpace.regular(arity, depth).enumerate_regular(arity)
    return {
        "arity": arity,
        "depth": depth,
        # Ragged subgroups, equal address depth.
        "removed": draw(st.sampled_from([0.0, 0.1, 0.4])),
        "matching": draw(st.sampled_from([0.1, 0.3, 0.6, 1.0])),
        "population_seed": draw(st.integers(0, 2 ** 16)),
        "config": PmcastConfig(
            fanout=draw(st.integers(1, 4)),
            redundancy=draw(st.integers(1, 3)),
            threshold_h=draw(st.integers(0, 3)),
            leaf_flood_threshold=draw(st.sampled_from([2.0, 1.0, 0.5, 0.2])),
            local_interest_shortcut=draw(st.booleans()),
            min_rounds_per_depth=min_rounds,
        ),
        "loss": draw(st.floats(0.0, 0.3)),
        "crash": draw(st.floats(0.0, 0.1)),
        "seed": draw(st.integers(0, 2 ** 32)),
        "publisher": draw(st.integers(0, arity ** depth - 1)),
        "second_publisher": draw(
            st.none() | st.integers(0, arity ** depth - 1)
        ),
        "sample_rate": draw(st.sampled_from([0.2, 0.5, 0.9])),
        "plan": draw(st.none() | clauses.plans(victims, depth)),
    }


class TestGeneratedEquivalence:
    """Default dispatch ≡ ``vectorized=False`` on generated runs, under
    no fault plan or a generated one: the kernel carries every figure
    and every conformance band, so its proof cannot be eight hand-picked
    rows."""

    def _play(self, scenario, flag, sampled):
        rng = random.Random(scenario["population_seed"])
        space = AddressSpace.regular(scenario["arity"], scenario["depth"])
        addresses = [
            address
            for address in space.enumerate_regular(scenario["arity"])
            if rng.random() >= scenario["removed"]
        ] or space.enumerate_regular(scenario["arity"])[:1]
        members = bernoulli_interests(addresses, scenario["matching"], rng)
        group = PmcastGroup.build(members, scenario["config"])
        sim = SimConfig(
            loss_probability=scenario["loss"],
            crash_fraction=scenario["crash"],
            seed=scenario["seed"],
            **flag,
        )
        played = []
        for event_id, pick in enumerate(
            (scenario["publisher"], scenario["second_publisher"]), start=1
        ):
            if pick is None:
                continue
            alive = list(compress(group.addresses(), group.alive))
            if not alive:
                continue
            event = Event({"n": event_id}, event_id=event_id)
            trace = TraceLog()
            report, outcome = run_dissemination_outcome(
                group,
                alive[pick % len(alive)],
                event,
                sim,
                faults=scenario["plan"],
                observer=Observer(
                    trace=trace,
                    sampler=(
                        TraceSampler(scenario["sample_rate"])
                        if sampled else None
                    ),
                ),
            )
            played.append(
                (
                    report,
                    dict(trace.meta),
                    [record.to_dict() for record in trace],
                    _node_state(outcome, group.addresses(), event),
                )
            )
            # The next event starts with this one's crashed members down.
            group = PmcastGroup.build(
                members, scenario["config"],
                down=compress(group.addresses(), ~outcome.alive),
            )
        return played

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(scenario=_scenarios())
    def test_default_equals_reference_loop(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sampled in (False, True):
                reference = self._play(
                    scenario, {"vectorized": False}, sampled
                )
                assert self._play(scenario, {}, sampled) == reference


class TestTimelineContract:
    """Both loops time a round under the same names, so a reader of
    ``TimelineRecorder.totals()`` never learns which one ran."""

    def _spans(self, **flag):
        group, addresses = _build_group(PmcastConfig(fanout=2, redundancy=2))
        timeline = TimelineRecorder()
        report = run_dissemination(
            group,
            addresses[0],
            Event({"golden": 1}, event_id=42),
            SimConfig(seed=11, loss_probability=0.05, **flag),
            timeline=timeline,
        )
        return report.rounds, timeline

    def _per_round(self, timeline, phase):
        return [
            span["round"]
            for span in timeline.spans()
            if span["phase"] == phase
        ]

    def test_default_run_keys(self):
        rounds, timeline = self._spans()
        assert set(timeline.totals()) == {
            ("engine", "fan_out"), ("engine", "exchange"),
        }
        every_round = list(range(1, rounds + 1))
        assert self._per_round(timeline, "fan_out") == every_round
        assert self._per_round(timeline, "exchange") == every_round
        # The memory probe moved with the spans.
        assert {entry["subsystem"] for entry in timeline._entries} == {
            "engine"
        }

    def test_reference_loop_keys(self):
        rounds, timeline = self._spans(vectorized=False)
        assert set(timeline.totals()) == {
            ("engine", "fan_out"), ("engine", "exchange"),
        }
        every_round = list(range(1, rounds + 1))
        assert self._per_round(timeline, "fan_out") == every_round
        assert self._per_round(timeline, "exchange") == every_round


class TestRegularTreeSpec:
    def test_rejects_shallow_trees(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                4, 1, np.zeros(4, dtype=bool),
                config=PmcastConfig(fanout=2, redundancy=2),
                sim_config=SimConfig(),
            )

    def test_rejects_redundancy_above_arity(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                2, 2, np.zeros(4, dtype=bool),
                config=PmcastConfig(fanout=2, redundancy=3),
                sim_config=SimConfig(),
            )

    def test_rejects_local_interest_shortcut(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                3, 2, np.ones(9, dtype=bool),
                config=PmcastConfig(
                    fanout=2, redundancy=2, local_interest_shortcut=True
                ),
                sim_config=SimConfig(),
            )

    def test_rejects_wrong_interest_shape(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                3, 2, np.ones(8, dtype=bool),
                config=PmcastConfig(fanout=2, redundancy=2),
                sim_config=SimConfig(),
            )

    def test_shard_geometry(self):
        spec = RegularTreeSpec.build(
            3, 3, np.ones(27, dtype=bool),
            config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(),
        )
        assert spec.size == 27
        assert spec.num_shards == 3
        assert spec.shard_size == 9

    @settings(max_examples=150, deadline=None)
    @given(
        arity=st.integers(2, 9),
        depth=st.integers(2, 3),
        redundancy=st.integers(1, 4),
        fanout=st.integers(1, 4),
        threshold_h=st.sampled_from([0, 1, 3, 12]),
        loss_aware=st.booleans(),
        assumed=st.sampled_from([0.0, 0.1, 0.4]),
        window=st.tuples(st.integers(0, 3), st.integers(1, 64)).filter(
            lambda w: w[0] <= w[1]
        ),
        pittel_c=st.sampled_from([0.0, 1.0, 1.5, 4.0]),
        seed=st.integers(0, 2 ** 16),
        rate=st.sampled_from([0.0, 0.05, 0.3, 0.8, 1.0]),
    )
    def test_bounds_are_line_7s_bound(
        self, arity, depth, redundancy, fanout, threshold_h, loss_aware,
        assumed, window, pittel_c, seed, rate,
    ):
        """Every subgroup's precomputed bound is depth_round_bound of
        its view length and rate — the one line-7 implementation."""
        config = PmcastConfig(
            fanout=fanout,
            redundancy=min(redundancy, arity),
            threshold_h=threshold_h,
            loss_aware_rounds=loss_aware,
            assumed_loss=assumed,
            assumed_crash=assumed / 2,
            min_rounds_per_depth=window[0],
            max_rounds_per_depth=window[1],
            pittel_c=pittel_c,
        )
        own = np.random.default_rng(seed).random(arity ** depth) < rate
        spec = RegularTreeSpec.build(arity, depth, own, config=config)
        for table in spec.tables:
            assert table.bound.dtype == np.int64
            assert table.bound.tolist() == [
                depth_round_bound(table.length, float(r), config)
                for r in table.rate
            ]


class TestTreeRoundInvariants:
    """Hypothesis invariants on the whole-tree round's transitions."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        arity=st.sampled_from([3, 4, 5]),
        fanout=st.integers(min_value=1, max_value=3),
        eps=st.sampled_from([0.0, 0.1, 0.3]),
        tau=st.sampled_from([0.0, 0.1]),
        budget=st.sampled_from([1, 4, 1 << 14]),
    )
    def test_transitions(self, seed, arity, fanout, eps, tau, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vector, "_PASS_BUDGET", budget)
            self._check(seed, arity, fanout, eps, tau)

    def _check(self, seed, arity, fanout, eps, tau):
        config = PmcastConfig(
            fanout=fanout, redundancy=2, min_rounds_per_depth=1
        )
        sim = SimConfig(
            seed=seed, loss_probability=eps, crash_fraction=tau,
            max_rounds=24,
        )
        own = (
            np.random.default_rng(seed).random(arity ** 2) < 0.5
        )
        spec = RegularTreeSpec.build(
            arity, 2, own, config=config, sim_config=sim
        )
        state = TreeState.create(spec)
        prev = state.received.copy()
        for round_index in range(spec.max_rounds):
            sent, crossed = state.sent, state.crossed
            if not state.step(round_index):
                # No work: nobody alive is buffered, nothing in flight.
                assert not (state.alive & (state.buf_depth > 0)).any()
                assert state.inbound.size == 0
                break
            # Received is monotone: nobody forgets an event.
            assert np.all(prev <= state.received)
            prev = state.received.copy()
            # Buffer depths stay inside Figure 3's ladder.
            assert np.all(
                (state.buf_depth >= 0) & (state.buf_depth <= spec.depth)
            )
            # A buffered entry implies a reception (or the publish).
            assert np.all(state.received[state.buf_depth > 0])
            # The active index is exactly the alive buffered members,
            # ascending (crashes of the next round not yet applied).
            assert np.array_equal(
                state.active,
                np.flatnonzero(state.alive & (state.buf_depth > 0)),
            )
            # Crashes reached so far are exactly the plan's.
            reached = state.doomed & (state.doom_round <= round_index)
            assert np.array_equal(~state.alive, reached)
            assert state.curve[-1] <= int(state.received.sum())
            assert state.lost <= state.sent
            assert state.crossed - crossed <= state.sent - sent
            # Cross-shard envelopes land in real shards.
            assert np.all(
                (state.inbound >= 0) & (state.inbound < spec.num_shards)
            )
        # The loop drained (or hit the cap) without losing count.
        assert 1 <= int(state.received.sum()) <= spec.size
        assert state.infected == int(state.received.sum())


class TestVectorizedConfigFlag:
    def test_default_on(self):
        assert SimConfig().vectorized is True

    def test_flag_round_trips(self):
        assert SimConfig(vectorized=True).vectorized is True
        assert SimConfig(vectorized=False).vectorized is False

    def test_same_five_fields(self):
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "loss_probability", "crash_fraction", "seed", "max_rounds",
            "vectorized",
        ]

    def test_invalid_loss_still_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(loss_probability=1.5, vectorized=True)
