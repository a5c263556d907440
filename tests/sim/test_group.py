"""Tests for PmcastGroup wiring."""

import dataclasses
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing import Address, AddressSpace, Prefix
from repro.baselines.genuine import build_genuine_group
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
from repro.pubsub import PubSubSystem
from repro.sim import (
    PmcastGroup,
    bernoulli_interests,
    derive_rng,
    run_dissemination_outcome,
)
from repro.sim import vector
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
        assert len(group.addresses()) == 9
        assert group.addresses() == sorted(group.addresses())

    def test_build_wires_no_node(self, monkeypatch):
        # The group is wiring: a node exists only where a driver asks
        # for one, and each ask wires a fresh, idle one.
        built = []
        wired = PmcastNode.wired.__func__

        def counting(cls, *args):
            built.append(args[0])
            return wired(cls, *args)

        monkeypatch.setattr(PmcastNode, "wired", classmethod(counting))
        monkeypatch.setattr(
            PmcastNode, "__init__", lambda *a: pytest.fail("built a node")
        )
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        assert built == []
        first = group.node(Address((0, 0)))
        assert group.node(Address((0, 0))) is not first
        assert built == [Address((0, 0))] * 2
        assert first.alive and first.is_idle

    def test_down_members_are_wired_dead(self):
        down = Address((1, 2))
        group = PmcastGroup.build(
            make_members(), PmcastConfig(redundancy=2), down=[down]
        )
        assert not group.node(down).alive
        assert group.alive.tolist() == [
            address != down for address in group.addresses()
        ]
        with pytest.raises(SimulationError, match="has crashed"):
            group.check_publisher(down)
        with pytest.raises(SimulationError, match="not in the group"):
            PmcastGroup.build(make_members(), down=[Address((9, 9))])

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
        a._views[3] = group._tables[Prefix((1, 0))]
        assert b._views[3] is group._tables[Prefix((1, 1))]

    def test_addresses_is_a_fresh_sorted_list(self):
        group = PmcastGroup.build(make_members(), PmcastConfig(redundancy=2))
        first = group.addresses()
        first.reverse()
        first.pop()
        assert group.addresses() == sorted(make_members())
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


def assert_columns_are_tables(group):
    """Per table id, the wiring a static run reads off the group's
    columns equals what the runtime's kernel reads off the table's rows
    (entries, each entry's and each row's interest position, the flood
    order), and every member's own entry position and interest position
    are the table's."""
    bounds = group.entry_bounds.tolist(), group.row_bounds.tolist()
    for table_id, depth in enumerate(group.table_depth):
        columns = vector._Wiring.of_group(group, table_id, bounds)
        rows = vector._Wiring.of_table(group.table(table_id), group.verdicts, group.index_of)
        for name in ("rows", "interest", "slots"):
            assert getattr(columns, name).tolist() == getattr(rows, name).tolist()
        assert columns.leaf == rows.leaf
        assert columns.targets(columns.slots).tolist() == rows.targets(rows.slots).tolist()
        members = np.flatnonzero(group.table_ids[:, depth - 1] == table_id)
        own = group.own[members, depth - 1].tolist()
        assert own == [rows.pos.get(i, -1) for i in members.tolist()]
    assert group.interest_at.tolist() == group.verdicts.positions(group.interests)


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
        tree_depth = group.tree.depth
        # No leaf table exists before something asks for one.
        assert all(prefix.depth < tree_depth for prefix in group._tables)
        tables, nodes = reference_build(members, config, policy)
        built = build_all_views(group.tree, policy=policy)
        assert list(built) == list(tables)
        for prefix, table in tables.items():
            assert built[prefix].rows() == table.rows()
        # Table ids follow the order the sorted members first reach a prefix.
        by_id = [group.table(table_id) for table_id in range(len(group.table_depth))]
        first_seen = dict.fromkeys(p for a in sorted(members) for p in a.prefixes())
        assert [table.prefix for table in by_id] == list(first_seen)
        assert [table.depth for table in by_id] == group.table_depth
        for table_id, table in enumerate(by_id):
            assert group.table(table_id) is table
            reference = tables[table.prefix].rows()
            assert table.rows() == reference
            assert all(row.timestamp == 0 for row in table.rows())
            if table.depth == tree_depth:
                assert all(
                    row.interest is mine.interest for row, mine in zip(table.rows(), reference)
                )
        for index, address in enumerate(group.addresses()):
            views = group.views(index)
            assert group.views(index) is views
            assert [views[depth] for depth in sorted(views)] == [
                by_id[table_id] for table_id in group.table_ids[index].tolist()
            ]
            node = group.node(address)
            assert node_fields(node) == node_fields(nodes[address])
            for prefix in address.prefixes():
                assert node._views[prefix.depth] is views[prefix.depth]
        assert group.addresses() == sorted(members)
        assert list(group.index_of) == sorted(members)
        assert_columns_are_tables(group)

    @given(member_maps(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_leaves_built_on_first_ask(self, members, redundancy):
        # Each leaf table is built once, by whichever ask comes first.
        group = PmcastGroup.build(members, PmcastConfig(redundancy=redundancy))
        leaf = group.tree.depth
        index = len(members) // 2
        views = group.views(index)
        asked = {prefix for prefix in group._tables if prefix.depth == leaf}
        assert asked == {views[leaf].prefix}
        assert group.table(int(group.table_ids[index, -1])) is views[leaf]
        assert group.node(group.addresses()[index])._views[leaf] is views[leaf]


class TestExplicitTables:
    def test_pubsub_group_keeps_its_directory_tables(self):
        system = PubSubSystem(depth=3, config=PmcastConfig(fanout=2, redundancy=2))
        space = AddressSpace.regular(3, 3)
        for index, address in enumerate(space.enumerate_regular(3)):
            system.subscribe(address, StaticInterest(index % 2 == 0))
        system.subscribe(Address((0, 0, 3)), StaticInterest(True))
        system.unsubscribe(Address((1, 1, 1)))
        directory = system._directory.tables
        group = system._as_group()
        by_id = [group.table(table_id) for table_id in range(len(group.table_depth))]
        assert len(by_id) == len(directory)
        assert all(directory[table.prefix] is table for table in by_id)
        assert any(row.timestamp > 0 for table in by_id for row in table.rows())
        assert_columns_are_tables(group)

    def test_genuine_group_keeps_its_tables(self):
        members = bernoulli_interests(
            AddressSpace.regular(3, 3).enumerate_regular(3), 0.5, derive_rng(3, "w")
        )
        group = build_genuine_group(members, PmcastConfig(redundancy=2))
        real = PmcastGroup.build(members, PmcastConfig(redundancy=2))
        for table_id, depth in enumerate(group.table_depth):
            table = group.table(table_id)
            assert table is group._tables[table.prefix]
            if depth == group.tree.depth:
                assert table.rows() == real.table(table_id).rows()
        assert_columns_are_tables(group)

    @pytest.mark.parametrize("defect", ["row dropped", "row added", "foreign interest"])
    def test_leaf_tables_that_are_not_the_runs_raise(self, defect):
        tree = PmcastGroup.build(make_members(depth=3), PmcastConfig(redundancy=2)).tree
        tables = build_all_views(tree)
        prefix = Prefix((1, 2))
        rows = tables[prefix].rows()
        if defect == "row dropped":
            rows = rows[1:]
        elif defect == "row added":
            rows = rows + [ViewRow(9, (Address((1, 2, 9)),), StaticInterest(True), 1)]
        else:
            rows = [dataclasses.replace(rows[0], interest=StaticInterest(False))] + rows[1:]
        tables[prefix] = ViewTable(prefix, tree.depth, rows)
        with pytest.raises(SimulationError, match=str(prefix)):
            PmcastGroup(tree, tables, PmcastConfig(redundancy=2))

    def test_a_missing_inner_table_raises(self):
        tree = PmcastGroup.build(make_members(depth=3), PmcastConfig(redundancy=2)).tree
        tables = build_all_views(tree)
        del tables[Prefix((2,))]
        with pytest.raises(SimulationError, match="no view table"):
            PmcastGroup(tree, tables, PmcastConfig(redundancy=2))


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
        # Two publishes, the second on a group built with the first
        # one's crashed members down: outcomes equal on both paths.
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
            runs = {
                flag: run_dissemination_outcome(
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
            assert runs[True][0] == runs[False][0]
            for column, reference in zip(runs[True][1], runs[False][1]):
                assert column.tolist() == reference.tolist()
            outcome = runs[True][1]
            groups = {
                flag: PmcastGroup.build(
                    members, config, down=compress(addresses, ~outcome.alive)
                )
                for flag in groups
            }
            if index == 0:
                i = addresses.index(silent)
                assert not outcome.alive[i]
                assert not outcome.received[i]
        for group in groups.values():
            assert not group.alive[addresses.index(silent)]
