"""Stateful property testing of MembershipTree under random churn.

A hypothesis rule machine performs arbitrary interleavings of add,
remove, re-subscribe and a bulk rebuild from the model, checking after every step that the tree's
derived structure stays consistent with a naive model:

* subtree members/sizes match brute-force filtering by prefix;
* populated children match the distinct next components;
* delegates are exactly the R smallest subtree members;
* a delegate at depth i is a delegate at every deeper depth.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.addressing import Address, Prefix
from repro.interests import StaticInterest
from repro.membership import MembershipTree

DEPTH = 3
REDUNDANCY = 2

components = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


class TreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = MembershipTree(DEPTH, REDUNDANCY)
        self.model = {}

    @rule(address=components, interested=st.booleans())
    def add(self, address, interested):
        address = Address(address)
        if address in self.model:
            return
        self.tree.add(address, StaticInterest(interested))
        self.model[address] = interested

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        address = data.draw(st.sampled_from(sorted(self.model)))
        self.tree.remove(address)
        del self.model[address]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), interested=st.booleans())
    def resubscribe(self, data, interested):
        address = data.draw(st.sampled_from(sorted(self.model)))
        self.tree.update_interest(address, StaticInterest(interested))
        self.model[address] = interested

    @precondition(lambda self: self.model)
    @rule()
    def rebuild(self):
        # Churn goes on against a bulk-built tree.
        self.tree = MembershipTree.build(
            {
                address: StaticInterest(interested)
                for address, interested in self.model.items()
            },
            REDUNDANCY,
        )

    @invariant()
    def size_matches(self):
        assert self.tree.size == len(self.model)

    @invariant()
    def subtrees_match_brute_force(self):
        for depth in range(1, DEPTH + 1):
            prefixes = {
                address.prefix(depth) for address in self.model
            }
            for prefix in prefixes:
                expected = sorted(
                    address
                    for address in self.model
                    if prefix.is_prefix_of(address)
                )
                assert list(self.tree.subtree_members(prefix)) == expected
                assert self.tree.subtree_size(prefix) == len(expected)

    @invariant()
    def delegates_are_r_smallest(self):
        for depth in range(1, DEPTH + 1):
            for prefix in {a.prefix(depth) for a in self.model}:
                expected = tuple(
                    sorted(
                        address
                        for address in self.model
                        if prefix.is_prefix_of(address)
                    )[:REDUNDANCY]
                )
                assert self.tree.delegates(prefix) == expected

    @invariant()
    def delegacy_is_downward_closed(self):
        for address in self.model:
            for depth in range(2, DEPTH):
                if self.tree.is_delegate(address, depth):
                    assert self.tree.is_delegate(address, depth + 1)

    @invariant()
    def populated_children_match(self):
        if not self.model:
            return
        root_children = sorted(
            {address.components[0] for address in self.model}
        )
        assert self.tree.populated_children(Prefix(())) == root_children

    @invariant()
    def interests_match(self):
        for address, interested in self.model.items():
            assert self.tree.interest_of(address).interested == interested


TestTreeMachine = TreeMachine.TestCase
TestTreeMachine.settings = __import__("hypothesis").settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
