"""Tests for the lossy network (§4.1)."""

import random
from itertools import compress

import pytest

from repro.addressing import Address
from repro.core.messages import Envelope, GossipMessage
from repro.errors import SimulationError
from repro.interests import Event
from repro.sim import LossyNetwork


def envelope(src, dst, eid=1):
    return Envelope(
        Address(dst),
        GossipMessage(Event({}, event_id=eid), 0.5, 0, 1, Address(src)),
    )


class TestLoss:
    def test_zero_loss_delivers_everything(self):
        network = LossyNetwork(0.0, random.Random(0))
        envelopes = [envelope((0, 0), (0, i)) for i in range(1, 10)]
        assert network.transmit(envelopes) == envelopes
        assert network.messages_sent == 9
        assert network.messages_lost == 0

    def test_loss_rate_approximates_epsilon(self):
        network = LossyNetwork(0.3, random.Random(42))
        envelopes = [envelope((0, 0), (0, 1)) for __ in range(5000)]
        delivered = network.transmit(envelopes)
        observed = 1 - len(delivered) / 5000
        assert observed == pytest.approx(0.3, abs=0.03)
        assert network.messages_lost == 5000 - len(delivered)

    def test_order_preserved(self):
        network = LossyNetwork(0.5, random.Random(1))
        envelopes = [envelope((0, 0), (0, 1), eid=i) for i in range(100)]
        delivered = network.transmit(envelopes)
        ids = [e.message.event.event_id for e in delivered]
        assert ids == sorted(ids)

    def test_invalid_probability(self):
        with pytest.raises(SimulationError):
            LossyNetwork(1.0, random.Random(0))
        with pytest.raises(SimulationError):
            LossyNetwork(-0.1, random.Random(0))

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_transmit_is_one_flags_batch(self, epsilon, count):
        """transmit(envelopes) is compress(envelopes, transmit_flags(n)):
        the same survivors, draws and counters."""
        envelopes = [envelope((0, 0), (0, 1), eid=i) for i in range(count)]
        whole = LossyNetwork(epsilon, random.Random(11))
        split = LossyNetwork(epsilon, random.Random(11))
        for __ in range(3):
            delivered = whole.transmit(iter(envelopes))
            flags = split.transmit_flags(count)
            expected = (
                envelopes if flags is None else list(compress(envelopes, flags))
            )
            assert delivered == expected
            assert whole._rng.getstate() == split._rng.getstate()
            assert whole.messages_sent == split.messages_sent
            assert whole.messages_lost == split.messages_lost

    def test_deterministic_under_seed(self):
        envelopes = [envelope((0, 0), (0, 1), eid=i) for i in range(50)]
        a = LossyNetwork(0.4, random.Random(7)).transmit(list(envelopes))
        b = LossyNetwork(0.4, random.Random(7)).transmit(list(envelopes))
        assert [e.message.event.event_id for e in a] == [
            e.message.event.event_id for e in b
        ]
