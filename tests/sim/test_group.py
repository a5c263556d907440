"""Tests for PmcastGroup wiring."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing import Address, AddressSpace, Prefix
from repro.config import PmcastConfig, SimConfig
from repro.core.node import PmcastNode
from repro.errors import SimulationError
from repro.interests import (
    Event,
    RegroupPolicy,
    StaticInterest,
    Subscription,
    between,
    gt,
    lt,
    regroup,
)
from repro.membership import MembershipTree
from repro.membership.knowledge import build_all_views
from repro.membership.views import ViewRow, ViewTable
from repro.sim import PmcastGroup, bernoulli_interests, derive_rng, run_dissemination
from repro.sim.crashes import CrashSchedule


def make_members(arity=3, depth=2, interested=True):
    space = AddressSpace.regular(arity, depth)
    return {
        address: StaticInterest(interested)
        for address in space.enumerate_regular(arity)
    }


class TestBuild:
    def test_size_and_nodes(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        assert group.size == 9
        assert len(list(group.nodes())) == 9
        assert group.addresses() == sorted(group.addresses())

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            PmcastGroup.build({})

    def test_nodes_share_prefix_tables(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        a = group.node(Address((0, 0)))
        b = group.node(Address((0, 1)))
        assert a._views[1] is b._views[1]
        assert a._views[2] is b._views[2]
        c = group.node(Address((1, 0)))
        assert a._views[1] is c._views[1]
        assert a._views[2] is not c._views[2]

    def test_ragged_subgroups_are_wired_per_leaf(self):
        members = make_members(arity=3, depth=3)
        for gone in (Address((0, 0, 1)), Address((0, 0, 2)), Address((2, 1, 0))):
            del members[gone]
        group = PmcastGroup.build(members, PmcastConfig(redundancy=2))
        for address in group.addresses():
            node = group.node(address)
            for prefix in address.prefixes():
                assert node._views[prefix.depth] is group._tables[prefix]
        # Siblings share tables but not the mapping that holds them.
        a, b = group.node(Address((1, 1, 0))), group.node(Address((1, 1, 1)))
        a.replace_view(3, group._tables[Prefix((1, 0))])
        assert b._views[3] is group._tables[Prefix((1, 1))]

    def test_addresses_is_a_fresh_sorted_list(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        first = group.addresses()
        first.reverse()
        first.pop()
        assert group.addresses() == sorted(node.address for node in group.nodes())
        assert group.interested_members(Event({})) == group.addresses()

    def test_unknown_node_rejected(self):
        group = PmcastGroup.build(make_members())
        with pytest.raises(SimulationError):
            group.node(Address((9, 9)))

    def test_redundancy_comes_from_config(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=3))
        assert group.tree.redundancy == 3
        root = group._tables[Prefix(())]
        assert sum(len(row.delegates) for row in root.rows()) == 9


class TestInterestedMembers:
    def test_static_ground_truth(self):
        members = make_members(interested=False)
        some = Address((1, 1))
        members[some] = StaticInterest(True)
        group = PmcastGroup.build(members)
        assert group.interested_members(Event({})) == [some]

    def test_content_based_ground_truth(self):
        space = AddressSpace.regular(2, 2)
        members = {
            address: Subscription({"b": gt(index)})
            for index, address in enumerate(space.enumerate_regular(2))
        }
        group = PmcastGroup.build(members, PmcastConfig(redundancy=1))
        interested = group.interested_members(Event({"b": 2}))
        assert len(interested) == 2   # b > 0 and b > 1 match b = 2

    def test_bernoulli_workload_integration(self):
        space = AddressSpace.regular(3, 2)
        addresses = space.enumerate_regular(3)
        members = bernoulli_interests(addresses, 0.5, derive_rng(1, "w"))
        group = PmcastGroup.build(members)
        interested = group.interested_members(Event({}))
        assert 0 <= len(interested) <= len(addresses)


def reference_build(members, config, policy=None):
    """The per-member builder: a tree grown by one ``add`` per member,
    one table per prefix in the order the members first reach it, one
    checked node per member."""
    depth = next(iter(members)).depth
    tree = MembershipTree(depth, config.redundancy)
    for address, interest in members.items():
        tree.add(address, interest)
    tables = {}
    for address in members:
        for prefix in address.prefixes():
            if prefix not in tables:
                rows = reference_rows(tree, prefix, policy)
                tables[prefix] = ViewTable(prefix, depth, rows)
    nodes = {
        address: PmcastNode(
            address,
            interest,
            {prefix.depth: tables[prefix] for prefix in address.prefixes()},
            config,
        )
        for address, interest in members.items()
    }
    return tables, nodes


def reference_rows(tree, prefix, policy):
    members = tree.subtree_members(prefix)
    if prefix.depth == tree.depth:
        return [
            ViewRow(a.components[-1], (a,), tree.interest_of(a), 1, 0)
            for a in members
        ]
    position = len(prefix.components)
    rows = []
    for child in sorted({a.components[position] for a in members}):
        subtree = [a for a in members if a.components[position] == child]
        summary = regroup((tree.interest_of(a) for a in subtree), policy)
        rows.append(
            ViewRow(
                child,
                tuple(subtree[: tree.redundancy]),
                summary,
                len(subtree),
                0,
            )
        )
    return rows


def node_fields(node):
    """Every slot of a node, its views as rows and its buffers as
    ``(depth, entries)``."""
    fields = {}
    for name in PmcastNode.__slots__:
        value = getattr(node, name)
        if name == "_views":
            value = {depth: table.rows() for depth, table in value.items()}
        elif name == "_buffers":
            value = [
                (depth, [(e.event.event_id, e.rate, e.round) for e in entries])
                for depth in range(1, len(value._buffers) + 1)
                for entries in [list(value._buffers[depth - 1].values())]
            ]
        fields[name] = value
    return fields


SUBSCRIPTIONS = [
    Subscription({"b": gt(3)}),
    Subscription({"b": lt(2)}),
    Subscription({"b": between(1, 5), "c": gt(0.5)}),
    Subscription({"c": lt(10.0)}),
]


@st.composite
def member_maps(draw):
    """An irregular member map of a drawn depth in a drawn order, with
    static or content-based interests."""
    depth = draw(st.integers(1, 3))
    components = st.tuples(*[st.integers(0, 3)] * depth)
    addresses = draw(st.lists(components, min_size=1, max_size=30, unique=True))
    addresses = draw(st.permutations([Address(a) for a in addresses]))
    if draw(st.booleans()):
        interest = st.booleans().map(StaticInterest)
    else:
        interest = st.sampled_from(SUBSCRIPTIONS)
    return {address: draw(interest) for address in addresses}


class TestBuiltEqualsPerMemberReference:
    @given(
        member_maps(),
        st.integers(1, 3),
        st.sampled_from([None, RegroupPolicy.near_root()]),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_nodes_and_order(self, members, redundancy, policy):
        config = PmcastConfig(redundancy=redundancy)
        group = PmcastGroup.build(members, config, regroup_policy=policy)
        tables, nodes = reference_build(members, config, policy)
        built = build_all_views(group.tree, policy=policy)
        assert list(built) == list(tables)
        for prefix, table in tables.items():
            assert built[prefix].rows() == table.rows()
            assert group._tables[prefix].rows() == table.rows()
        for address in members:
            node = group.node(address)
            assert node_fields(node) == node_fields(nodes[address])
            for prefix in address.prefixes():
                assert node._views[prefix.depth] is group._tables[prefix]
        assert [node.address for node in group.nodes()] == list(members)
        assert group.addresses() == sorted(members)
        assert [node.address for node in group.ordered_nodes()] == sorted(
            members
        )


@st.composite
def crash_runs(draw):
    """Two publishes over one 4^3 group under drawn crash schedules;
    the first schedule crashes a node at round 0, before anyone sends."""
    addresses = AddressSpace.regular(4, 3).enumerate_regular(4)
    publishers = draw(
        st.lists(st.sampled_from(addresses), min_size=2, max_size=2, unique=True)
    )
    schedules = []
    for publisher in publishers:
        victims = draw(
            st.lists(
                st.sampled_from([a for a in addresses if a not in publishers]),
                max_size=12,
                unique=True,
            )
        )
        rounds = draw(
            st.lists(st.integers(0, 8), min_size=len(victims), max_size=len(victims))
        )
        schedules.append(dict(zip(victims, rounds)))
    silent = draw(
        st.sampled_from([a for a in addresses if a not in publishers])
    )
    schedules[0][silent] = 0
    return draw(st.integers(0, 2**16)), publishers, schedules, silent


class TestTouchedOnlyWriteBack:
    @given(crash_runs())
    @settings(max_examples=25, deadline=None)
    def test_kernel_state_equals_reference_loop(self, run):
        seed, publishers, schedules, silent = run
        addresses = AddressSpace.regular(4, 3).enumerate_regular(4)
        members = bernoulli_interests(addresses, 0.4, derive_rng(seed, "w"))
        config = PmcastConfig(fanout=3, redundancy=2)
        groups = {
            flag: PmcastGroup.build(members, config) for flag in (True, False)
        }
        for index, (publisher, schedule) in enumerate(
            zip(publishers, schedules)
        ):
            event = Event({}, event_id=index + 1)
            reports = {
                flag: run_dissemination(
                    group,
                    publisher,
                    event,
                    SimConfig(
                        seed=seed, loss_probability=0.1, vectorized=flag
                    ),
                    crash_schedule=CrashSchedule(schedule),
                )
                for flag, group in groups.items()
            }
            assert reports[True] == reports[False]
            for address in addresses:
                assert node_fields(groups[True].node(address)) == node_fields(
                    groups[False].node(address)
                )
        for group in groups.values():
            node = group.node(silent)
            assert not node.alive
            assert not node.has_received(Event({}, event_id=1))
