"""Property-based invariants of the whole dissemination engine.

Random small groups, interest assignments and environments — every run
must satisfy the structural invariants regardless of outcome quality:

* delivery happens exactly at interested receivers;
* nobody receives without a chain of sends (conservation);
* uninterested non-delegate leaf processes are never even targeted in
  a failure-free run without tuning;
* reports are internally consistent with the trace.
"""

from itertools import compress

from hypothesis import given, settings, strategies as st

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event
from repro.sim import (
    PmcastGroup,
    TraceLog,
    bernoulli_interests,
    derive_rng,
    run_dissemination_outcome,
)
from repro.obs import Observer


@st.composite
def scenarios(draw):
    arity = draw(st.integers(2, 4))
    depth = draw(st.integers(2, 3))
    rate = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    loss = draw(st.sampled_from([0.0, 0.1, 0.3]))
    crash = draw(st.sampled_from([0.0, 0.1]))
    fanout = draw(st.integers(1, 3))
    redundancy = draw(st.integers(1, 2))
    threshold = draw(st.sampled_from([0, 3]))
    seed = draw(st.integers(0, 10_000))
    return dict(
        arity=arity, depth=depth, rate=rate, loss=loss, crash=crash,
        fanout=fanout, redundancy=redundancy, threshold=threshold,
        seed=seed,
    )


def run_scenario(params):
    space = AddressSpace.regular(params["arity"], params["depth"])
    addresses = space.enumerate_regular(params["arity"])
    members = bernoulli_interests(
        addresses, params["rate"], derive_rng(params["seed"], "prop")
    )
    group = PmcastGroup.build(
        members,
        PmcastConfig(
            fanout=params["fanout"],
            redundancy=params["redundancy"],
            threshold_h=params["threshold"],
            min_rounds_per_depth=1,
        ),
    )
    trace = TraceLog()
    event = Event({}, event_id=params["seed"])
    publisher = addresses[params["seed"] % len(addresses)]
    report, outcome = run_dissemination_outcome(
        group,
        publisher,
        event,
        SimConfig(
            seed=params["seed"],
            loss_probability=params["loss"],
            crash_fraction=params["crash"],
        ),
        observer=Observer(trace=trace),
    )
    return group, report, trace, event, publisher, outcome


class TestEngineInvariants:
    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_delivery_exactly_at_interested_receivers(self, params):
        group, report, trace, event, publisher, outcome = run_scenario(params)
        interested = set(group.interested_members(event))
        for address, received, delivered in zip(
            group.addresses(), outcome.received, outcome.delivered
        ):
            if delivered:
                assert received
                assert address in interested
            if received and address in interested:
                assert delivered

    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_report_consistent_with_nodes(self, params):
        group, report, trace, event, publisher, outcome = run_scenario(params)
        interested = set(group.interested_members(event))
        delivered = len(
            interested & set(compress(group.addresses(), outcome.delivered))
        )
        assert report.delivered_interested == delivered
        assert report.interested == len(interested)
        assert 0.0 <= report.delivery_ratio <= 1.0
        assert 0.0 <= report.false_reception_ratio <= 1.0
        assert sum(report.messages_by_distance) == report.messages_sent

    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_trace_conservation(self, params):
        group, report, trace, event, publisher, outcome = run_scenario(params)
        # Every receive pairs with a send that survived the network,
        # except dead letters: a crashed receiver performs no protocol
        # action, so envelopes arriving from its crash round onward get
        # no receive record.
        crashed_at = {
            record.process: record.round
            for record in trace.filter(kind="crash")
        }
        sends = trace.filter(kind="send")
        receives = trace.filter(kind="receive")
        dead_letters = sum(
            1
            for record in sends
            if crashed_at.get(record.peer, record.round + 1) <= record.round
        )
        assert len(receives) == len(sends) - dead_letters
        if not crashed_at:
            assert len(receives) == len(sends)
        assert (
            len(sends) + len(trace.filter(kind="loss")) == report.messages_sent
        )
        # Every receiver in the trace was somebody's destination.
        receivers = {record.process for record in receives}
        targets = {record.peer for record in sends}
        assert receivers <= targets

    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_untuned_failure_free_spares_uninterested_leaves(self, params):
        if params["threshold"] != 0:
            return  # tuning deliberately contacts uninterested processes
        params = dict(params, loss=0.0, crash=0.0)
        group, report, trace, event, publisher, outcome = run_scenario(params)
        interested = set(group.interested_members(event))
        depth = group.tree.depth
        for address, received in zip(group.addresses(), outcome.received):
            if address in interested or address == publisher:
                continue
            if group.tree.is_delegate(address, depth):
                continue  # a delegate: susceptible on others' behalf
            # A plain uninterested leaf process must never be touched.
            assert not received

    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_termination_and_idle(self, params):
        group, report, trace, event, publisher, outcome = run_scenario(params)
        assert report.rounds < SimConfig().max_rounds
        assert not outcome.buf_depth[outcome.alive].any()
