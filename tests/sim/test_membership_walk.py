"""The membership round's draws against the per-member walk they replace.

``GroupRuntime._membership_round`` draws every near and far peer of a
round with one ``map(randbelow, sizes)`` and one gather over a round
array of pools.  :class:`WalkRuntime` keeps the walk it replaced as the
reference: one Python loop over the live members in member order, a
near list from the tree, a far list rebuilt every round from
``replica.peers()`` less the crashed and the replica-less, and a
per-member memo of the tables' structure that only counts reuse.  Under
drawn join / leave / crash / re-join / publish / step scripts, every
round must produce the same gossiper and peer slots, leave the
membership RNG in the same state and count the same far-listing hits
and misses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event, StaticInterest
from repro.obs import MetricsRegistry, Observer
from repro.sim.runtime import GroupRuntime

ARITY, DEPTH = 5, 3
CONFIG = PmcastConfig(fanout=2, redundancy=3, min_rounds_per_depth=2)
ADDRESSES = sorted(AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY))
HELD_BACK = (ADDRESSES[7], ADDRESSES[60], ADDRESSES[124], ADDRESSES[31])


class WalkRuntime(GroupRuntime):
    """The membership round as one walk over the live members."""

    def __init__(self, *args, **kwargs):
        self._walk_structure = {}
        super().__init__(*args, **kwargs)

    def _membership_round(self, heard):
        randbelow = self._membership_rng._randbelow
        crashed = self._crashed
        slot_of = self._contacts.slot_of.__getitem__
        replica_of = self._replica
        depth = self._tree.depth
        gossipers, peers = [], []
        hits = misses = 0
        for address in [a for a in self._tree.members() if a not in crashed]:
            slot = slot_of(address)
            replica = replica_of(address)
            near = [
                mate
                for mate in self._tree.subtree_members(address.prefix(depth))
                if mate != address and mate not in crashed
            ]
            if near:
                gossipers.append(slot)
                peers.append(near[randbelow(len(near))])
            structure = tuple(table.addresses_token for table in replica.tables.values())
            if self._walk_structure.get(address) == structure:
                hits += 1
            else:
                self._walk_structure[address] = structure
                misses += 1
            far = [
                peer
                for peer in replica.peers()
                if peer not in crashed and replica_of(peer) is not None
            ]
            if far:
                gossipers.append(slot)
                peers.append(far[randbelow(len(far))])
        self._m_far_hits.inc(hits)
        self._m_far_misses.inc(misses)
        g = np.array(gossipers, np.int64)
        p = np.fromiter(map(slot_of, peers), np.int64, len(peers))
        if len(g):
            self._pull_batch(g, p)
            self._m_pulls.inc(len(g))
        r, s = heard
        self._contacts.contact(
            np.concatenate((g, p, r)), np.concatenate((p, g, s)), now=self._round
        )


def recording(cls):
    """``cls`` noting every pull batch's (gossipers, peers) slot lists."""

    class Recording(cls):
        def _pull_batch(self, g, p):
            self.pulls.append((g.tolist(), p.tolist()))
            return super()._pull_batch(g, p)

    return Recording


def make(cls, seed, piggyback):
    registry = MetricsRegistry()
    runtime = recording(cls)(
        {a: StaticInterest(True) for a in ADDRESSES if a not in HELD_BACK},
        config=CONFIG,
        sim_config=SimConfig(seed=seed, loss_probability=0.05),
        detector_timeout=2,
        exclusion_quorum=1,
        piggyback_membership=piggyback,
        observer=Observer(registry=registry),
    )
    runtime.pulls = []
    return runtime, registry


# One scripted operation: (kind, index); the index picks, modulo the
# candidates' count, among the addresses the operation applies to.
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["step", "step", "step", "crash", "leave", "join", "rejoin", "publish"]
        ),
        st.integers(min_value=0, max_value=len(ADDRESSES) - 1),
    ),
    min_size=1,
    max_size=24,
)


def candidates(runtime, kind, departed):
    tree = runtime.tree
    members = sorted(tree.members())
    if kind == "publish":
        return [a for a in members if runtime.node(a).alive]
    if kind == "crash":
        return [a for a in members if runtime.node(a).alive]
    if kind == "leave":
        return members if len(members) > 1 else []
    if kind == "join":
        # Never-members, and excluded processes whose replica stayed.
        return [a for a in HELD_BACK if a not in tree and a not in departed] + [
            a
            for a in ADDRESSES
            if a not in tree
            and a not in departed
            and runtime.exclusion_round(a) is not None
        ]
    return [a for a in departed if a not in tree]


def far_counts(registry):
    membership = registry.snapshot()["membership"]
    return membership["far_cache_hits"], membership["far_cache_misses"]


class TestMembershipWalk:
    @given(
        operations=OPERATIONS,
        seed=st.integers(min_value=0, max_value=3),
        piggyback=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_round_draws_what_the_walk_draws(
        self, operations, seed, piggyback
    ):
        arrays, arrays_registry = make(GroupRuntime, seed, piggyback)
        walk, walk_registry = make(WalkRuntime, seed, piggyback)
        departed = []
        for number, (kind, index) in enumerate([("step", 0)] + operations):
            if kind != "step":
                chosen = candidates(walk, kind, departed)
                assert chosen == candidates(arrays, kind, departed)
                if not chosen:
                    continue
                target = chosen[index % len(chosen)]
                for runtime in (arrays, walk):
                    if kind == "publish":
                        runtime.publish(target, Event({}, event_id=number))
                    elif kind in ("crash", "leave"):
                        getattr(runtime, kind)(target)
                    else:
                        runtime.join(target, StaticInterest(True))
                if kind == "leave":
                    departed.append(target)
                elif kind == "rejoin":
                    departed.remove(target)
                continue
            arrays.step()
            walk.step()
            where = f"round {arrays.round}"
            assert arrays.pulls == walk.pulls, where
            assert (
                arrays._membership_rng.getstate()
                == walk._membership_rng.getstate()
            ), where
            assert far_counts(arrays_registry) == far_counts(walk_registry), where
