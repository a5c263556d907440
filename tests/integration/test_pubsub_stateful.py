"""Stateful property testing of PubSubSystem under churn + publishes."""

import hypothesis
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
)

from repro.addressing import Address
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event, parse_subscription
from repro.pubsub import PubSubSystem

DEPTH = 2
CONFIG = PmcastConfig(fanout=3, redundancy=2, min_rounds_per_depth=2)

addresses = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(Address)


class PubSubMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.system = PubSubSystem(
            depth=DEPTH, config=CONFIG, sim_config=SimConfig(seed=77)
        )
        # model: address -> minimum topic value the member wants
        self.model = {}
        self.event_counter = 90_000

    @rule(address=addresses, threshold=st.integers(0, 10))
    def subscribe(self, address, threshold):
        self.system.subscribe(
            address, parse_subscription(f"topic >= {threshold}")
        )
        self.model[address] = threshold

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unsubscribe(self, data):
        address = data.draw(st.sampled_from(sorted(self.model)))
        self.system.unsubscribe(address)
        del self.model[address]

    @precondition(lambda self: len(self.model) >= 2)
    @rule(data=st.data(), topic=st.integers(0, 10))
    def publish(self, data, topic):
        publisher = data.draw(st.sampled_from(sorted(self.model)))
        self.event_counter += 1
        event = Event({"topic": topic}, event_id=self.event_counter)
        report = self.system.publish(publisher, event)

        interested = {
            address
            for address, threshold in self.model.items()
            if topic >= threshold
        }
        delivered = set(self.system.delivered_to(event))
        # Soundness: only interested members deliver, never others.
        assert delivered <= interested
        # Completeness of accounting: the report agrees with delivered_to.
        assert report.interested == len(interested)
        assert report.delivered_interested == len(delivered)
        # Anyone interested who received must have delivered: the
        # receivers are the deliverers, the uninterested receivers and
        # the publisher when it is not interested.
        assert report.received_total == (
            len(delivered)
            + report.received_uninterested
            + (publisher not in interested)
        )

    @rule()
    def membership_is_consistent(self):
        assert self.system.size == len(self.model)
        assert set(self.system.members()) == set(self.model)


TestPubSubMachine = PubSubMachine.TestCase
TestPubSubMachine.settings = hypothesis.settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
