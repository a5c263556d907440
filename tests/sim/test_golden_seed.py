"""Golden-seed regression tests: fixed seeds must give fixed outcomes.

Two guarantees are pinned here:

* **Continuity across the performance overhaul** — the ``runtime``
  golden values were captured on the code base *before* active-set
  scheduling, keyed match caching and incremental view refresh were
  introduced.  The optimized runtime must reproduce them bit for bit.
* **Cross-process determinism** — ``Address``/``Prefix`` hash only
  integers (string hashes are randomized per process via
  ``PYTHONHASHSEED``, and historically leaked into set iteration order
  inside the engine), and the engine walks its active set in insertion
  order.  The ``engine`` goldens below therefore hold in *any* Python
  process, not just one with a lucky hash seed.
"""

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests.events import Event
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests, random_subscriptions


class TestEngineGolden:
    def test_lossy_bernoulli_run(self):
        space = AddressSpace.regular(4, 3)
        addresses = space.enumerate_regular(4)
        members = bernoulli_interests(
            addresses, 0.3, derive_rng(11, "golden-int")
        )
        group = PmcastGroup.build(members, PmcastConfig(fanout=2, redundancy=2))
        event = Event({"golden": 1}, event_id=42)
        report = run_dissemination(
            group,
            addresses[0],
            event,
            SimConfig(seed=11, loss_probability=0.05),
        )
        assert report.interested == 20
        assert report.delivered_interested == 13
        assert report.received_uninterested == 23
        assert report.received_total == 37
        assert report.rounds == 10
        assert report.messages_sent == 167
        assert report.messages_lost == 11
        assert report.duplicate_receptions == 120
        assert list(report.infection_curve) == [
            3, 6, 8, 20, 28, 30, 35, 37, 37, 37,
        ]
        assert list(report.messages_by_distance) == [49, 101, 17]
        delivered = sorted(
            str(a) for a in addresses if group.node(a).has_delivered(event)
        )
        assert delivered == [
            "0.2.0", "0.2.3", "0.3.0", "0.3.2", "1.2.0", "1.3.2", "1.3.3",
            "2.0.0", "2.0.3", "2.3.0", "3.0.1", "3.3.2", "3.3.3",
        ]

    def test_subscription_run(self):
        space = AddressSpace.regular(3, 3)
        addresses = space.enumerate_regular(3)
        members = random_subscriptions(addresses, derive_rng(7, "golden-subs"))
        group = PmcastGroup.build(members, PmcastConfig(fanout=2, redundancy=2))
        event = Event({"b": 3, "c": 26.0, "z": 500}, event_id=43)
        report = run_dissemination(
            group, addresses[4], event, SimConfig(seed=7)
        )
        assert report.interested == 3
        assert report.delivered_interested == 3
        assert report.received_uninterested == 12
        assert report.rounds == 7
        assert report.messages_sent == 74
        delivered = sorted(
            str(a) for a in addresses if group.node(a).has_delivered(event)
        )
        assert delivered == ["1.0.0", "1.1.0", "2.1.0"]


class TestRuntimeGolden:
    """Publish + join + crash/exclusion + leave, pinned pre-overhaul."""

    def test_churn_scenario(self):
        space = AddressSpace.regular(3, 2)
        addresses = space.enumerate_regular(3)
        members = bernoulli_interests(
            addresses, 0.6, derive_rng(5, "golden-rt")
        )
        joiner = addresses[-1]
        initial = {a: i for a, i in members.items() if a != joiner}
        runtime = GroupRuntime(
            initial,
            config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(seed=5, loss_probability=0.02),
            detector_timeout=4,
        )
        event_a = Event({"golden": 1}, event_id=201)
        runtime.publish(addresses[0], event_a)
        for __ in range(2):
            runtime.step()
        runtime.join(joiner, members[joiner])
        for __ in range(2):
            runtime.step()
        crashed = addresses[1]
        runtime.crash(crashed)
        event_b = Event({"golden": 2}, event_id=202)
        runtime.publish(addresses[2], event_b)
        for __ in range(16):
            runtime.step()
        runtime.leave(addresses[3])
        for __ in range(4):
            runtime.step()
        assert runtime.round == 24
        assert runtime.size == 7
        assert [str(a) for a in runtime.delivered_to(event_a)] == ["0.1", "0.2"]
        assert [str(a) for a in runtime.delivered_to(event_b)] == ["0.2"]
        assert runtime.exclusion_round(crashed) == 9
        sent = sum(
            runtime.node(a).messages_sent for a in runtime.tree.members()
        )
        assert sent == 31
        assert len(runtime._active) == 0
