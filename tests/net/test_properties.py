"""Property suite for the network plane (ISSUE 9 satellite).

Four laws, each over randomized inputs:

* **fair loss** — the transport delivers-or-drops per the seeded ε
  model: every sent envelope is either handed over exactly once or
  counted lost, in send order;
* **no creation, no duplication** — delivered envelopes are a
  subsequence of the sent ones, by object identity;
* **timer monotonicity** — a virtual clock pops events in
  nondecreasing ``(time, priority, seq)`` order, whatever the schedule
  interleaving;
* **jitter = 0 ≡ round-synchronous** — the zero-jitter
  :class:`JitteredSchedule` is indistinguishable from
  :class:`RoundSchedule` at every observable: fire times, next-fire
  queries and per-round fire counts.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.addressing import Address
from repro.core.messages import Envelope, GossipMessage
from repro.interests.events import Event
from repro.net.clock import VirtualClock
from repro.net.scheduler import (
    JitteredSchedule,
    RoundSchedule,
    StragglerSchedule,
)
from repro.net.transport import SimTransport
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng


def make_envelope(index):
    return Envelope(
        destination=Address.parse(f"0.1.{index % 4}"),
        message=GossipMessage(
            event=Event({"n": index}, event_id=index),
            rate=0.5,
            round=0,
            depth=1,
            sender=Address.parse("0.0.1"),
        ),
    )


def flush(transport, network, batch):
    """Send ``batch`` at t=0 and do what the runtime does with the
    flush: hand the taken batch to the link."""
    for envelope in batch:
        transport.send(envelope)
    taken = transport.take(transport._latency_us) if batch else []
    return network.transmit(taken)


class TestFairLoss:
    @given(
        epsilon=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
        count=st.integers(0, 60),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_delivers_or_drops_exactly_once(self, epsilon, count, seed):
        network = LossyNetwork(epsilon, derive_rng(seed, "prop-net"))
        transport = SimTransport(VirtualClock(), network, latency_us=50)
        batch = [make_envelope(i) for i in range(count)]
        delivered = flush(transport, network, batch)
        # Conservation: each envelope is delivered once or counted lost.
        assert len(delivered) + network.messages_lost == count
        assert transport._network.messages_lost == network.messages_lost
        # No creation, no duplication: delivered is a subsequence of
        # sent, by identity.
        sent_ids = [id(envelope) for envelope in batch]
        delivered_ids = [id(envelope) for envelope in delivered]
        assert len(set(delivered_ids)) == len(delivered_ids)
        it = iter(sent_ids)
        assert all(any(s == d for s in it) for d in delivered_ids)

    @given(count=st.integers(1, 40), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_zero_loss_delivers_everything_in_order(self, count, seed):
        network = LossyNetwork(0.0, derive_rng(seed, "prop-net"))
        transport = SimTransport(VirtualClock(), network, latency_us=50)
        batch = [make_envelope(i) for i in range(count)]
        assert flush(transport, network, batch) == batch

    @given(
        epsilon=st.sampled_from([0.0, 0.3, 0.7]),
        count=st.integers(0, 40),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_loss_draws_are_reproducible(self, epsilon, count, seed):
        batch = [make_envelope(i) for i in range(count)]

        def run():
            network = LossyNetwork(epsilon, derive_rng(seed, "prop-net"))
            transport = SimTransport(VirtualClock(), network, 50)
            return [id(e) for e in flush(transport, network, batch)]

        assert run() == run()


class TestTimerMonotonicity:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 500),  # relative delay from now
                st.integers(0, 2),  # priority
            ),
            max_size=60,
        ),
        interleave=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_pops_never_go_backwards(self, ops, interleave):
        clock = VirtualClock()
        popped = []
        pending = list(ops)
        while pending or clock:
            # Schedule a few (always at/after now — the clock forbids
            # the past), then pop one: an arbitrary interleaving.
            for __ in range(interleave + 1):
                if not pending:
                    break
                delay, priority = pending.pop()
                clock.schedule(clock.now_us + delay, priority, None)
            if clock:
                when, priority, seq, __ = clock.pop()
                popped.append((when, priority, seq))
        # Time is monotone under *any* interleaving.  The full
        # (time, priority, seq) order only binds events that coexist
        # in the queue (test_matches_reference_heap): scheduling at
        # the current instant after a pop may legally trail a
        # higher-priority event popped at that same instant.
        times = [when for when, __, __ in popped]
        assert times == sorted(times)
        assert len(popped) == len(ops)

    @given(times=st.lists(st.integers(0, 100), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_heap(self, times):
        clock = VirtualClock()
        reference = []
        for seq, when in enumerate(times):
            clock.schedule(when, 1, seq)
            heapq.heappush(reference, (when, 1, seq))
        drained = [clock.pop()[3] for __ in range(len(times))]
        expected = [
            heapq.heappop(reference)[2] for __ in range(len(times))
        ]
        assert drained == expected


class TestZeroJitterEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        period=st.integers(1, 1_000_000),
        key=st.text(
            alphabet="0123456789.", min_size=1, max_size=12
        ),
        fire_index=st.integers(1, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_fire_times_match_round_schedule(
        self, seed, period, key, fire_index
    ):
        jittered = JitteredSchedule(jitter=0.0, seed=seed, period_us=period)
        plain = RoundSchedule(period_us=period)
        assert jittered.round_synchronous
        assert jittered.fire_time_us(key, fire_index) == plain.fire_time_us(
            key, fire_index
        )

    @given(
        seed=st.integers(0, 10_000),
        period=st.integers(1, 1_000_000),
        key=st.text(alphabet="0123456789.", min_size=1, max_size=12),
        after=st.integers(0, 5_000_000),
        round_index=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_queries_match_round_schedule(
        self, seed, period, key, after, round_index
    ):
        jittered = JitteredSchedule(jitter=0.0, seed=seed, period_us=period)
        plain = RoundSchedule(period_us=period)
        assert jittered.next_fire(key, after) == plain.next_fire(key, after)
        assert jittered.fires_in_round(key, round_index) == (
            plain.fires_in_round(key, round_index)
        )

    @given(
        jitter=st.sampled_from([0.25, 0.5, 1.0, 1.5]),
        seed=st.integers(0, 1000),
        key=st.text(alphabet="0123456789.", min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_next_fire_walks_every_fire_exactly_once(
        self, jitter, seed, key
    ):
        # next_fire from one fire instant to the next must enumerate
        # fire indexes without skips or repeats — the re-arming loop of
        # the event runtime depends on it.
        schedule = JitteredSchedule(jitter=jitter, seed=seed, period_us=100)
        indexes = []
        now = 0
        for __ in range(30):
            fire_index, when = schedule.next_fire(key, now)
            assert when > now
            indexes.append(fire_index)
            now = when
        assert indexes == sorted(set(indexes))

    @given(
        fraction=st.sampled_from([0.0, 0.3, 1.0]),
        factor=st.integers(1, 4),
        seed=st.integers(0, 1000),
        key=st.text(alphabet="0123456789.", min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_straggler_cadence_is_its_multiplier(
        self, fraction, factor, seed, key
    ):
        schedule = StragglerSchedule(
            fraction=fraction, factor=factor, seed=seed, period_us=100
        )
        stride = schedule.period_multiplier(key)
        assert stride == (
            factor if schedule.is_straggler(key) else 1
        )
        fires = sum(
            schedule.fires_in_round(key, r) for r in range(1, 1 + 4 * stride)
        )
        assert fires == 4
