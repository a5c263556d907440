"""Transport seam: deterministic flush batching and the UDP endpoint."""

import asyncio
import json
import socket

import pytest
from hypothesis import given, strategies as st

from repro.addressing import Address
from repro.core.codec import encode_message
from repro.core.messages import Envelope, GossipMessage
from repro.errors import NetError
from repro.interests.events import Event
from repro.net.clock import VirtualClock
from repro.net.transport import (
    FairLossUdpTransport,
    SimTransport,
    UdpEndpointRegistry,
    decode_envelope,
    encode_envelope,
)
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng


def make_envelope(sender="0.0.1", dest="0.0.2", event_id=7, depth=1):
    return Envelope(
        destination=Address.parse(dest),
        message=GossipMessage(
            event=Event({"k": 1}, event_id=event_id),
            rate=0.5,
            round=0,
            depth=depth,
            sender=Address.parse(sender),
        ),
    )


class TestSimTransport:
    def test_send_batches_by_flush_instant(self):
        clock = VirtualClock()
        transport = SimTransport(clock, LossyNetwork(0.0, derive_rng(1, "net")), latency_us=50)
        first = make_envelope(dest="0.0.2")
        second = make_envelope(dest="0.0.3")
        transport.send(first)
        transport.send(second)
        assert transport.in_flight
        # One flush event for both sends at the same instant.
        assert clock.pending == 1
        when, __, __, payload = clock.pop()
        assert when == 50
        assert payload == ("flush", 50)
        assert transport.take(50) == [first, second]
        assert not transport.in_flight

    def test_take_without_batch_raises(self):
        transport = SimTransport(
            VirtualClock(), LossyNetwork(0.0, derive_rng(1, "net")), latency_us=50
        )
        with pytest.raises(NetError):
            transport.take(50)

    def test_sends_at_different_instants_get_different_batches(self):
        clock = VirtualClock()
        transport = SimTransport(clock, LossyNetwork(0.0, derive_rng(1, "net")), latency_us=50)
        early = make_envelope(dest="0.0.2")
        transport.send(early)
        clock.schedule(100, 1, "advance")
        clock.pop()  # flush(50)
        assert transport.take(50) == [early]
        clock.pop()  # advance to t=100
        late = make_envelope(dest="0.0.3")
        transport.send(late)
        clock.pop()
        assert transport.take(150) == [late]

    def test_transmit_runs_the_loss_model_in_send_order(self):
        # The runtime's flush: the taken batch goes to the link, whose
        # tallies the transport reports.
        network = LossyNetwork(0.0, derive_rng(1, "net"))
        transport = SimTransport(VirtualClock(), network, 50)
        batch = [make_envelope(dest=f"0.1.{i}") for i in range(3)]
        for envelope in batch:
            transport.send(envelope)
        assert network.transmit(transport.take(50)) == batch
        assert (transport.messages_sent, transport.messages_lost) == (3, 0)

    def test_ensure_flush_is_idempotent(self):
        clock = VirtualClock()
        transport = SimTransport(clock, LossyNetwork(0.0, derive_rng(1, "net")), latency_us=50)
        batch = transport.ensure_flush(80)
        assert transport.ensure_flush(80) is batch
        assert clock.pending == 1

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(NetError):
            SimTransport(VirtualClock(), LossyNetwork(0.0, derive_rng(1, "net")), latency_us=0)


class TestWireFormat:
    def test_envelope_round_trips(self):
        envelope = make_envelope(
            sender="1.2.3", dest="2.3.1", event_id=99, depth=2
        )
        decoded = decode_envelope(encode_envelope(envelope))
        assert decoded.destination == envelope.destination
        assert decoded.message.sender == envelope.message.sender
        assert decoded.message.depth == envelope.message.depth
        assert (
            decoded.message.event.event_id
            == envelope.message.event.event_id
        )

    @pytest.mark.parametrize(
        "data", [b"", b"not json", b"[]", b'{"to": "0.1"}']
    )
    def test_malformed_datagrams_raise_net_error(self, data):
        with pytest.raises(NetError):
            decode_envelope(data)

    @given(
        attributes=st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.one_of(
                st.integers(-(2 ** 70), 2 ** 70),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1e-7, -0.0, 1e22, 5e-324]),
                st.text(max_size=8),
            ),
            max_size=4,
        ),
        rate=st.one_of(
            st.floats(0.0, 1.0), st.sampled_from([0, 1, 1e-7, 1 / 3])
        ),
        round_index=st.integers(0, 10 ** 6),
        depth=st.integers(1, 9),
    )
    def test_one_pass_encoder_is_the_json_dumps_bytes(
        self, attributes, rate, round_index, depth
    ):
        """The format-string encoder against the encoder it replaced."""
        envelope = Envelope(
            destination=Address.parse("10.0.21"),
            message=GossipMessage(
                event=Event(attributes, event_id=round_index),
                rate=rate, round=round_index, depth=depth,
                sender=Address.parse("3.14.15"),
            ),
        )
        reference = json.dumps(
            {
                "to": str(envelope.destination),
                "msg": encode_message(envelope.message),
            },
            sort_keys=True,
        ).encode("utf-8")
        assert encode_envelope(envelope) == reference
        assert UdpEndpointRegistry().encode(envelope) == reference
        decoded = decode_envelope(reference)
        assert decoded == envelope
        assert decoded.message.event.attributes == attributes
        assert str(decoded.message.rate) == str(rate)


class TestUdpEndpointRegistry:
    def test_register_and_resolve(self):
        registry = UdpEndpointRegistry()
        registry.register(Address.parse("0.0.1"), "127.0.0.1", 9000)
        assert registry.resolve(Address.parse("0.0.1")) == (
            "127.0.0.1", 9000,
        )
        assert len(registry) == 1

    def test_unknown_address_raises(self):
        with pytest.raises(NetError):
            UdpEndpointRegistry().resolve(Address.parse("0.0.1"))

    def test_event_memo_dies_with_the_run(self):
        """``Event`` equality is by id: a reused id must never be served
        another run's payload, and never by the memo-less function."""
        first, second = (
            Envelope(
                Address.parse("0.0.2"),
                GossipMessage(
                    Event({"k": value}, event_id=7), 0.5, 0, 1,
                    Address.parse("0.0.1"),
                ),
            )
            for value in ("first", "second")
        )
        assert first.message.event == second.message.event
        for encode in (
            encode_envelope,
            lambda envelope: UdpEndpointRegistry().encode(envelope),
        ):
            values = [
                decode_envelope(encode(envelope)).message.event["k"]
                for envelope in (first, second)
            ]
            assert values == ["first", "second"]
        # Within one run the id *is* the event, serialised once.
        run = UdpEndpointRegistry()
        assert run.encode(first) == encode_envelope(first)
        assert run.encode(first) == encode_envelope(first)


async def _udp_pair(loss_probability=0.0, rng=None):
    registry = UdpEndpointRegistry()
    received = []
    sender = await FairLossUdpTransport.create(
        Address.parse("0.0.1"), registry, lambda e: None,
        loss_probability=loss_probability, rng=rng,
    )
    receiver = await FairLossUdpTransport.create(
        Address.parse("0.0.2"), registry, received.append,
    )
    return sender, receiver, received


class TestFairLossUdpTransport:
    def test_delivers_datagrams_on_localhost(self):
        async def scenario():
            try:
                sender, receiver, received = await _udp_pair()
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            try:
                envelope = make_envelope(dest="0.0.2")
                sender.send(envelope)
                for __ in range(100):
                    if received:
                        break
                    await asyncio.sleep(0.01)
                assert received, "datagram never arrived"
                assert received[0].destination == envelope.destination
                assert sender.messages_sent == 1
                assert receiver.messages_received == 1
            finally:
                sender.close()
                receiver.close()

        asyncio.run(scenario())

    def test_software_loss_drops_at_send(self):
        async def scenario():
            try:
                sender, receiver, received = await _udp_pair(
                    loss_probability=0.999999,
                    rng=derive_rng(3, "loss"),
                )
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            try:
                for __ in range(20):
                    sender.send(make_envelope(dest="0.0.2"))
                await asyncio.sleep(0.05)
                assert sender.messages_lost == 20
                assert not received
            finally:
                sender.close()
                receiver.close()

        asyncio.run(scenario())

    def test_lossy_endpoint_without_a_stream_raises_at_first_send(self):
        """No shared ``random.Random(0)`` behind the caller's back."""
        async def scenario():
            try:
                sender, receiver, received = await _udp_pair(
                    loss_probability=0.5
                )
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            try:
                with pytest.raises(NetError, match="no loss stream"):
                    sender.send(make_envelope(dest="0.0.2"))
                assert sender.rng is None
                assert (sender.messages_sent, sender.messages_lost) == (0, 0)
                # Assigning the stream late is the supported order.
                sender.rng = derive_rng(3, "loss")
                sender.send(make_envelope(dest="0.0.2"))
                assert sender.messages_sent == 1
            finally:
                sender.close()
                receiver.close()

        asyncio.run(scenario())

    def test_malformed_datagram_is_counted_not_raised(self):
        async def scenario():
            try:
                sender, receiver, received = await _udp_pair()
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            try:
                loop = asyncio.get_running_loop()
                endpoint = sender._sock
                endpoint.sendto(
                    b"garbage",
                    sender._registry.resolve(Address.parse("0.0.2")),
                )
                for __ in range(100):
                    if receiver.malformed_datagrams:
                        break
                    await asyncio.sleep(0.01)
                assert receiver.malformed_datagrams == 1
                assert not received
                assert loop.is_running()
            finally:
                sender.close()
                receiver.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "payload, disposition",
        [
            (b"garbage", "malformed_datagrams"),
            (encode_envelope(make_envelope(dest="0.0.2"))[:-9],
             "malformed_datagrams"),
            (b'{"to": "0.0.2", "msg": {"event": 7}}', "malformed_datagrams"),
            (b'{"to": [0, 0, 2], "msg": null}', "malformed_datagrams"),
            (encode_envelope(make_envelope(dest="0.0.3")),
             "misrouted_datagrams"),
            (b"\x00" * 60_000, "malformed_datagrams"),
        ],
        ids=["garbage", "truncated-json", "wrong-schema", "unhashable-to",
             "another-member", "60KB"],
    )
    def test_hostile_datagram_ends_in_one_counted_disposition(
        self, payload, disposition
    ):
        """Off a raw socket, past the sender's own encoder: each hostile
        datagram is counted once, never applied, never raised."""

        async def scenario():
            try:
                sender, receiver, received = await _udp_pair()
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                loop = asyncio.get_running_loop()
                raw.sendto(
                    payload, sender._registry.resolve(Address.parse("0.0.2"))
                )
                for __ in range(100):
                    if getattr(receiver, disposition):
                        break
                    await asyncio.sleep(0.01)
                counted = {
                    name: getattr(receiver, name)
                    for name in ("malformed_datagrams", "misrouted_datagrams",
                                 "messages_received", "wire_drops")
                }
                assert counted.pop(disposition) == 1
                assert not any(counted.values())
                assert not received
                assert loop.is_running()
                # The endpoint still works afterwards.
                sender.send(make_envelope(dest="0.0.2"))
                for __ in range(100):
                    if received:
                        break
                    await asyncio.sleep(0.01)
                assert len(received) == 1
            finally:
                raw.close()
                sender.close()
                receiver.close()

        asyncio.run(scenario())

    def test_full_send_buffer_is_a_counted_wire_drop(self):
        class FullBuffer:
            def __init__(self, sock):
                self._sock = sock

            def sendto(self, data, addr):
                raise BlockingIOError(11, "send buffer full")

            def __getattr__(self, name):
                return getattr(self._sock, name)

        async def scenario():
            try:
                sender, receiver, received = await _udp_pair()
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            try:
                sender._sock = FullBuffer(sender._sock)
                sender.send(make_envelope(dest="0.0.2"))
                await asyncio.sleep(0.05)
                assert sender.wire_drops == 1
                assert sender.messages_sent == 1
                # Not the model's ε: the loss stream never saw it.
                assert sender.messages_lost == 0
                assert not received
            finally:
                sender.close()
                receiver.close()

        asyncio.run(scenario())

    def test_close_is_idempotent_and_removes_the_reader(self):
        async def scenario():
            try:
                sender, receiver, __ = await _udp_pair()
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            loop = asyncio.get_running_loop()
            descriptors = [sender._sock.fileno(), receiver._sock.fileno()]
            for transport in (sender, receiver, sender, receiver):
                transport.close()
            # remove_reader reports whether a reader was registered.
            assert not any(loop.remove_reader(fd) for fd in descriptors)

        asyncio.run(scenario())

    def test_send_after_close_raises(self):
        async def scenario():
            try:
                sender, receiver, __ = await _udp_pair()
            except OSError as exc:
                pytest.skip(f"UDP sockets unavailable: {exc}")
            sender.close()
            receiver.close()
            with pytest.raises(NetError):
                sender.send(make_envelope(dest="0.0.2"))

        asyncio.run(scenario())

    def test_rejects_loss_probability_of_one(self):
        with pytest.raises(NetError):
            FairLossUdpTransport(
                Address.parse("0.0.1"),
                UdpEndpointRegistry(),
                lambda e: None,
                loss_probability=1.0,
            )
