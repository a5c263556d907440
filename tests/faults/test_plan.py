"""FaultPlan: clause validation, builders, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import Address, Prefix
from repro.errors import FaultError
from repro.faults import (
    FAULT_SCHEMA,
    DelayWindow,
    DelegateCrash,
    DepthCrash,
    FaultPlan,
    LossBurst,
    Partition,
    TargetedCrash,
)
from tests.faults.clauses import with_crash, with_depth_crash

#: JSON-shaped values, biased toward what a clause field could hold.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["0", "1.2", "3.1", "x.y", ""]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
FIELDS = [
    "start", "end", "probability", "delay", "round", "count", "depth",
    "prefix", "side_a", "side_b", "sender_prefix", "dest_prefix", "address",
]
TAGS = [
    "loss_burst", "partition", "delay", "targeted_crash", "delegate_crash",
    "depth_crash",
]
CLAUSES = st.builds(
    lambda tag, rest: {**rest, "type": tag},
    st.sampled_from(TAGS) | JSON,
    st.dictionaries(st.sampled_from(FIELDS), JSON, max_size=5),
)
PLANS = JSON | st.builds(
    lambda clauses, rest: {**rest, "clauses": clauses},
    st.lists(CLAUSES | JSON, max_size=3) | JSON,
    st.dictionaries(
        st.sampled_from(["schema", "name"]), st.just(FAULT_SCHEMA) | JSON
    ),
)


def episode():
    return with_depth_crash(
        with_crash(
            FaultPlan(name="episode")
            .with_partition(1, 5, "0", "1")
            .with_delegate_crash(2, "2", count=2)
            .with_loss_burst(3, 8, 0.5, dest_prefix="1")
            .with_delay(1, 3, 2, probability=0.5),
            4, "3.1",
        ),
        5, 2, count=2,
    )


class TestClauses:
    def test_builders_coerce_strings(self):
        plan = episode()
        partition = plan.clauses[0]
        assert isinstance(partition, Partition)
        assert partition.side_a == Prefix((0,))
        crash = plan.clauses[4]
        assert isinstance(crash, TargetedCrash)
        assert crash.address == Address((3, 1))

    def test_empty_or_inverted_windows_rejected(self):
        with pytest.raises(FaultError):
            LossBurst(3, 3, 0.5)
        with pytest.raises(FaultError):
            Partition(5, 2, Prefix((0,)), Prefix((1,)))
        with pytest.raises(FaultError):
            DelayWindow(-1, 3, 1)

    def test_probability_bounds(self):
        with pytest.raises(FaultError):
            LossBurst(0, 1, 0.0)
        with pytest.raises(FaultError):
            LossBurst(0, 1, 1.5)
        with pytest.raises(FaultError):
            DelayWindow(0, 1, 1, probability=0.0)

    def test_partition_sides_must_be_disjoint_subtrees(self):
        with pytest.raises(FaultError):
            Partition(0, 4, Prefix((0,)), Prefix((0, 1)))
        with pytest.raises(FaultError):
            Partition(0, 4, Prefix(()), Prefix((2,)))

    def test_negative_rounds_and_counts_rejected(self):
        with pytest.raises(FaultError):
            TargetedCrash(-1, Address((0, 0)))
        with pytest.raises(FaultError):
            DelegateCrash(0, Prefix((1,)), count=0)
        with pytest.raises(FaultError):
            DepthCrash(0, 0, count=1)
        with pytest.raises(FaultError):
            DelayWindow(0, 2, 0)

    def test_partition_crosses_both_directions_only(self):
        clause = Partition(0, 4, Prefix((0,)), Prefix((1,)))
        a, b, c = Address((0, 3)), Address((1, 2)), Address((2, 0))
        assert clause.crosses(a, b) and clause.crosses(b, a)
        assert not clause.crosses(a, c) and not clause.crosses(c, b)

    def test_burst_scoping(self):
        clause = LossBurst(
            0, 4, 0.5,
            sender_prefix=Prefix((0,)), dest_prefix=Prefix((1,)),
        )
        assert clause.matches(Address((0, 1)), Address((1, 1)))
        assert not clause.matches(Address((1, 1)), Address((0, 1)))
        assert not clause.matches(Address((0, 1)), Address((2, 1)))


class TestPlan:
    def test_builders_do_not_mutate(self):
        base = FaultPlan(name="base")
        extended = base.with_delay(0, 1, 1)
        assert not base.clauses and extended.clauses
        assert len(extended.clauses) == 1

    def test_json_round_trip(self):
        plan = episode()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dict_round_trip_preserves_optional_fields(self):
        plan = FaultPlan().with_loss_burst(
            0, 2, 0.25, sender_prefix="1.2"
        )
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        clause = rebuilt.clauses[0]
        assert clause.sender_prefix == Prefix((1, 2))
        assert clause.dest_prefix is None

    def test_schema_tag_present_and_enforced(self):
        data = episode().to_dict()
        assert data["schema"] == FAULT_SCHEMA
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"schema": "repro.faults/v999"})

    def test_malformed_clauses_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict(
                {"clauses": [{"type": "meteor_strike"}]}
            )
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"clauses": [{"type": "partition"}]})
        with pytest.raises(FaultError):
            FaultPlan.from_json("not json")
        with pytest.raises(FaultError):
            FaultPlan.from_json("[1, 2]")

    def test_non_object_and_unparseable_clauses_raise_fault_error(self):
        for clause in (
            5,
            ["partition"],
            {"type": ["partition"]},
            {"type": "targeted_crash", "round": 1, "address": "x.y"},
            {"type": "delegate_crash", "round": 1, "prefix": "a"},
        ):
            with pytest.raises(FaultError):
                FaultPlan.from_dict({"clauses": [clause]})
        with pytest.raises(FaultError):
            FaultPlan.from_dict([])

    @given(data=PLANS)
    @settings(max_examples=300, deadline=None)
    def test_from_dict_returns_a_plan_or_raises_fault_error(self, data):
        try:
            plan = FaultPlan.from_dict(data)
        except FaultError:
            return
        assert isinstance(plan, FaultPlan)
