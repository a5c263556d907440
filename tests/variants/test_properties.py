"""Property tests for the dissemination variants (docs/VARIANTS.md).

Four invariants pinned here, the first three under Hypothesis:

* **Pull never un-infects** — once a process holds the event it holds
  it forever; the lazy-pull recovery phase only adds members to the
  infected set.
* **Delivered sets are monotone across rounds** — the set of processes
  that delivered grows round over round (equivalently: the infection
  curve of every variant run is non-decreasing).
* **Bounded views stay bounded** — no view ever exceeds ``view_size``
  entries, contains a duplicate, or contains its owner, no matter how
  many shuffles merge into it.
* **Threshold 1.0 degrades lazy pull to pure push** — with
  ``infection_threshold=1.0`` the pull phase can never engage, and the
  run reproduces ``flat_gossip_broadcast`` *bit for bit* (every report
  field, including the infection curve and distance histogram).

Beside them: every variant keeps the per-process contract in every
round (a sender is active when it fires and signs its own envelopes),
and lazy pull switches at a horizon from (n, F, threshold) alone,
which a run that infects nobody by that round still reaches.
"""

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.addressing import AddressSpace
from repro.config import SimConfig
from repro.errors import SimulationError
from repro.interests.events import Event
from repro.baselines import flat_gossip_broadcast
from repro.sim import bernoulli_interests, derive_rng
from repro.variants import (
    BoundedViewVariant,
    FlatPushVariant,
    LazyPullVariant,
    PmcastVariant,
    bounded_view_broadcast,
    lazy_pull_broadcast,
    run_flat_style,
    run_variant,
)
from repro.variants.lazy_pull import pull_horizon


def make_members(arity=4, depth=2, rate=0.4, seed=0):
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, rate, derive_rng(seed, "variant-int")
    )
    return addresses, members


def drive(variant, rounds=64):
    """Step a variant loss- and crash-free, yielding after each round.

    A miniature of ``run_variant``'s round anatomy (each sender fires
    once through the per-process contract, then exchange) without the
    network, so tests can observe the variant's state between rounds.
    """
    round_number = 0
    while variant.is_active() and round_number < rounds:
        round_number += 1
        envelopes = [
            envelope
            for address in variant.senders(round_number)
            for envelope in variant.fan_out_one(address, round_number)
        ]
        for envelope in envelopes:
            variant.receive(envelope, None, round_number)
        yield round_number


class TestPullNeverUninfects:
    @given(
        seed=st.integers(0, 2**16),
        threshold=st.floats(0.0, 1.0),
        pull_fanout=st.integers(1, 4),
        retry_budget=st.integers(0, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_infected_set_grows_monotonically(
        self, seed, threshold, pull_fanout, retry_budget
    ):
        addresses, members = make_members(seed=seed)
        variant = LazyPullVariant(
            members,
            addresses[0],
            Event({}, event_id=1),
            2,
            derive_rng(seed, "flat-gossip", 1),
            seed,
            infection_threshold=threshold,
            pull_fanout=pull_fanout,
            retry_budget=retry_budget,
        )
        previous = set(variant.infected)
        for _ in drive(variant):
            current = set(variant.infected)
            assert current >= previous, "a pull round un-infected a process"
            previous = current

    @given(seed=st.integers(0, 2**16), horizon=st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_store_horizon_only_silences_replies(self, seed, horizon):
        # Garbage-collecting stored events may slow recovery but can
        # never remove an infection that already happened.
        addresses, members = make_members(seed=seed)
        variant = LazyPullVariant(
            members,
            addresses[0],
            Event({}, event_id=2),
            2,
            derive_rng(seed, "flat-gossip", 2),
            seed,
            infection_threshold=0.25,
            store_horizon=horizon,
        )
        previous = set(variant.infected)
        for _ in drive(variant):
            current = set(variant.infected)
            assert current >= previous
            previous = current


class TestDeliveredSetsMonotone:
    @given(
        seed=st.integers(0, 2**16),
        eps=st.sampled_from([0.0, 0.05, 0.2]),
        tau=st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=25, deadline=None)
    def test_lazy_pull_infection_curve_non_decreasing(self, seed, eps, tau):
        addresses, members = make_members(seed=seed)
        report = lazy_pull_broadcast(
            members,
            addresses[0],
            Event({}, event_id=3),
            2,
            SimConfig(seed=seed, loss_probability=eps, crash_fraction=tau),
        )
        curve = list(report.infection_curve)
        assert curve == sorted(curve)
        assert report.control_messages <= report.messages_sent

    @given(
        seed=st.integers(0, 2**16),
        view_size=st.integers(1, 12),
        shuffle_size=st.integers(0, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_bounded_view_infection_curve_non_decreasing(
        self, seed, view_size, shuffle_size
    ):
        addresses, members = make_members(seed=seed)
        report = bounded_view_broadcast(
            members,
            addresses[0],
            Event({}, event_id=4),
            2,
            SimConfig(seed=seed, loss_probability=0.05),
            view_size=view_size,
            shuffle_size=shuffle_size,
        )
        curve = list(report.infection_curve)
        assert curve == sorted(curve)


class TestBoundedViewsStayBounded:
    @given(
        seed=st.integers(0, 2**16),
        view_size=st.integers(1, 10),
        shuffle_size=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_views_never_exceed_bound(self, seed, view_size, shuffle_size):
        addresses, members = make_members(seed=seed)
        variant = BoundedViewVariant(
            members,
            addresses[0],
            Event({}, event_id=5),
            2,
            derive_rng(seed, "flat-gossip", 5),
            seed,
            view_size=view_size,
            shuffle_size=shuffle_size,
            view_rng=derive_rng(seed, "variant-views", 5),
            shuffle_rng=derive_rng(seed, "variant-shuffle", 5),
        )

        def check_views():
            for owner, view in variant.views.items():
                assert len(view) <= view_size, (owner, view)
                assert len(set(view)) == len(view), f"{owner}: duplicate"
                assert owner not in view, f"{owner} knows itself"

        check_views()
        for _ in drive(variant):
            check_views()


class TestThresholdOneIsPurePush:
    @given(
        seed=st.integers(0, 2**16),
        eps=st.sampled_from([0.0, 0.05, 0.2]),
        tau=st.sampled_from([0.0, 0.1]),
        fanout=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_flat_baseline(self, seed, eps, tau, fanout):
        addresses, members = make_members(seed=seed)
        event = Event({}, event_id=6)
        sim_config = SimConfig(
            seed=seed, loss_probability=eps, crash_fraction=tau
        )
        flat = flat_gossip_broadcast(
            members, addresses[0], event, fanout, sim_config
        )
        lazy = lazy_pull_broadcast(
            members,
            addresses[0],
            event,
            fanout,
            sim_config,
            infection_threshold=1.0,
        )
        # Dataclass equality covers every field: counts, curves and
        # the distance histogram — this is the bit-identity contract.
        assert lazy == flat
        assert lazy.control_messages == 0


class TestFaultPlane:
    """The variants gained fault support through the seam; the injector
    must cope with flat-style envelopes (which carry no gossip depth,
    unlike the engine's)."""

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        from repro.faults import FaultPlan

        addresses, members = make_members()
        event = Event({}, event_id=7)
        sim_config = SimConfig(seed=3, loss_probability=0.05)
        bare = lazy_pull_broadcast(
            members, addresses[0], event, 2, sim_config
        )
        empty = lazy_pull_broadcast(
            members, addresses[0], event, 2, sim_config,
            faults=FaultPlan(),
        )
        assert bare == empty

    def test_faulted_traced_run_records_depthless_envelopes(self):
        # Regression: FaultInjector._note_envelope used to pass the
        # message's depth (None for flat-style variants) straight into
        # TraceRecord and crash on the first injected loss.
        from repro.faults import FaultPlan
        from repro.obs import Observer, TraceLog

        addresses, members = make_members()
        event = Event({}, event_id=8)
        plan = (
            FaultPlan(name="variant-faults")
            .with_loss_burst(1, 4, 1.0)
            .with_crash(2, addresses[-1])
        )
        trace = TraceLog()
        report = lazy_pull_broadcast(
            members, addresses[0], event, 2, SimConfig(seed=3),
            faults=plan, observer=Observer(trace=trace),
        )
        fault_records = [
            r for r in iter(trace) if r.kind.startswith("fault_")
        ]
        assert {r.kind for r in fault_records} >= {
            "fault_loss", "fault_crash"
        }
        assert all(r.depth == 0 for r in fault_records)
        assert report.crashed >= 1


def checked(variant):
    """Assert the per-process contract on each fire of ``variant``;
    returns the lists the fired addresses and the addresses crashed
    before the first fan-out are appended to."""
    fired = []
    crashed_first = []
    fanned = []
    fire = variant.fan_out_one
    crash = variant.crash
    senders = variant.senders

    def fan_out_one(address, rounds):
        assert variant.is_process_active(address), (rounds, address)
        envelopes = fire(address, rounds)
        assert all(e.message.sender == address for e in envelopes)
        fired.append(address)
        return envelopes

    def crash_one(address):
        if not fanned:
            crashed_first.append(address)
        return crash(address)

    def senders_of(rounds):
        fanned.append(rounds)
        return senders(rounds)

    variant.fan_out_one = fan_out_one
    variant.crash = crash_one
    variant.senders = senders_of
    return fired, crashed_first


def contract_run(name, seed, sim_config):
    """One run of variant ``name`` through its driver, contract-checked;
    returns the publisher, the fired addresses and those crashed before
    the first fan-out."""
    from repro.config import PmcastConfig
    from repro.sim.group import PmcastGroup
    from repro.variants.pmcast import prepare_pmcast_run

    addresses, members = make_members(depth=3, seed=seed)
    event = Event({}, event_id=11)
    publisher = addresses[0]
    if name == "pmcast":
        group = PmcastGroup.build(
            members, PmcastConfig(fanout=2, redundancy=2)
        )
        link, crash_schedule, ctx = prepare_pmcast_run(
            group, publisher, event, sim_config, None, None, None
        )
        variant = PmcastVariant(group, publisher, event, ctx, sim_config)
        fired, crashed_first = checked(variant)
        run_variant(variant, sim_config, link, crash_schedule)
        return publisher, fired, crashed_first
    gossip_rng = derive_rng(seed, "flat-gossip", 11)
    args = (members, publisher, event, 2, gossip_rng, seed)
    if name == "flat_push":
        variant = FlatPushVariant(*args)
    elif name == "lazy_pull":
        variant = LazyPullVariant(*args)
    else:
        variant = BoundedViewVariant(
            *args,
            view_rng=derive_rng(seed, "variant-views", 11),
            shuffle_rng=derive_rng(seed, "variant-shuffle", 11),
        )
    fired, crashed_first = checked(variant)
    run_flat_style(variant, sim_config)
    return publisher, fired, crashed_first


class TestPerProcessContract:
    @given(
        name=st.sampled_from(
            ["pmcast", "flat_push", "lazy_pull", "bounded_view"]
        ),
        eps=st.sampled_from([0.0, 0.05, 0.2]),
        tau=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**16),
    )
    # Seed 1 at tau 0.1 crashes the publisher in round 0, before its
    # first push: a push-only variant then has nobody to fire.
    @example(name="flat_push", eps=0.0, tau=0.1, seed=1)
    @example(name="lazy_pull", eps=0.0, tau=0.1, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_senders_are_active_and_sign_their_envelopes(
        self, name, eps, tau, seed
    ):
        publisher, fired, crashed_first = contract_run(
            name,
            seed,
            SimConfig(seed=seed, loss_probability=eps, crash_fraction=tau),
        )
        if name == "lazy_pull":
            # The pull phase starts on schedule whoever crashed.
            assert fired, "no process ever fired"
        else:
            # A push-only run fires nobody only if its publisher, the
            # one process that can fire in round 1, crashed before the
            # first fan-out.
            assert fired or publisher in crashed_first, "no process ever fired"


class TestPullHorizon:
    @pytest.mark.parametrize("arity, horizon", [(5, 5), (10, 6)])
    def test_horizon_follows_the_flat_chain(self, arity, horizon):
        from repro.analysis.markov import expected_infected

        n = arity ** 3
        first = 0
        while expected_infected(n, 3, first) < n / 2:
            first += 1
        assert pull_horizon(n, 3, 0.5) == first + 1 == horizon

    def test_degenerate_thresholds(self):
        assert pull_horizon(125, 3, 1.0) is None
        assert pull_horizon(125, 3, 0.0) == 1

    def test_total_loss_until_the_horizon_still_recovers(self):
        # Every envelope of rounds 1-6 is lost: push dies with the
        # publisher's budget, and the pull phase, which starts on
        # schedule at round 5, recovers the event.
        from repro.faults import FaultPlan
        from repro.obs import Observer, TraceLog

        addresses, members = make_members(arity=5, depth=3, seed=0)
        event = Event({}, event_id=1)
        plan = FaultPlan(name="blackout").with_loss_burst(0, 6, 1.0)
        trace = TraceLog()
        lazy = lazy_pull_broadcast(
            members, addresses[0], event, 3, SimConfig(seed=0),
            faults=plan, observer=Observer(trace=trace),
        )
        flat = flat_gossip_broadcast(
            members, addresses[0], event, 3, SimConfig(seed=0), faults=plan
        )
        assert flat.delivery_ratio == 0.0
        assert lazy.delivery_ratio >= 0.9
        assert trace.counts().get("pull_request", 0) > 0


class TestParameterValidation:
    def test_rejects_bad_knobs(self):
        addresses, members = make_members()
        args = (members, addresses[0], Event({}), 2,
                derive_rng(0, "flat-gossip", 0), 0)
        with pytest.raises(SimulationError):
            LazyPullVariant(*args, infection_threshold=1.5)
        with pytest.raises(SimulationError):
            LazyPullVariant(*args, pull_fanout=0)
        with pytest.raises(SimulationError):
            LazyPullVariant(*args, retry_budget=-1)
        with pytest.raises(SimulationError):
            LazyPullVariant(*args, store_horizon=-2)
        with pytest.raises(SimulationError):
            BoundedViewVariant(*args, view_size=0)
        with pytest.raises(SimulationError):
            BoundedViewVariant(*args, shuffle_size=-1)
