"""The membership plane, pinned round by round.

``data/membership_rounds.json`` holds, for every round of a scripted
5^3 run, the ``membership`` / ``gossip_pull`` / ``detector`` counters,
the processes excluded in that round and a hash of the membership RNG
state — over seeds 0-3 and every combination of ``detector_timeout``
in {2, 4, 12}, ``exclusion_quorum`` in {None, 1} and
``piggyback_membership`` in {False, True}.  The script publishes,
joins fresh processes, leaves, crashes, re-joins departed processes
and re-joins excluded ones, so suspicion, accusation, conviction and
retraction all happen on the way; a quorum of one with a timeout of
two wrongly convicts live processes too.

A change to the membership or detection round must reproduce every
line: a difference names the first run and round that moved, not only
that some end-of-run digest did.

Regenerate (only for a change that is *meant* to move the plane, with
the reason stated in CHANGES.md)::

    PYTHONPATH=src python tests/sim/test_membership_rounds.py
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests import Event
from repro.obs import MetricsRegistry, Observer, TraceLog
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests

DATA = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "membership_rounds.json"
)
ARITY, DEPTH = 5, 3
ADDRESSES = sorted(AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY))
CONFIG = PmcastConfig(fanout=2, redundancy=3, min_rounds_per_depth=2)
SEEDS = (0, 1, 2, 3)
ROUNDS = 20
TIMEOUTS = (2, 4, 12)
QUORUMS = (None, 1)
PIGGYBACK = (False, True)
#: The registry subsystems a round record reads.
SUBSYSTEMS = ("membership", "gossip_pull", "detector")
#: One operation per round, cycling; a round whose operation has no
#: candidate just steps.
OPERATIONS = (
    "publish", "join", "crash", "leave", "rejoin", "publish",
    "rejoin-excluded", "leave", "join", "crash",
)


def configurations():
    return list(itertools.product(TIMEOUTS, QUORUMS, PIGGYBACK))


def run_id(timeout, quorum, piggyback, seed):
    return f"timeout={timeout},quorum={quorum},piggyback={piggyback},seed={seed}"


def flatten(snapshot):
    """``{"subsystem.name": value}``; a histogram reads as [count, sum]."""
    flat = {}
    for subsystem in SUBSYSTEMS:
        for name, value in snapshot.get(subsystem, {}).items():
            if isinstance(value, dict):
                value = [value["count"], value["sum"]]
            flat[f"{subsystem}.{name}"] = value
    return flat


def play(timeout, quorum, piggyback, seed, trace=None):
    """Run the script; one ``(counters, excluded, rng)`` per round."""
    rng = derive_rng(seed, "membership-rounds")
    held_back = rng.sample(ADDRESSES, 6)
    interests = bernoulli_interests(
        ADDRESSES, 0.5, derive_rng(seed, "membership-rounds", "interests")
    )
    members = {a: i for a, i in interests.items() if a not in held_back}
    registry = MetricsRegistry()
    runtime = GroupRuntime(
        members,
        config=CONFIG,
        sim_config=SimConfig(seed=seed, loss_probability=0.05),
        detector_timeout=timeout,
        exclusion_quorum=quorum,
        piggyback_membership=piggyback,
        observer=Observer(registry=registry, trace=trace),
    )
    departed = []
    rounds = []
    for round_index in range(1, ROUNDS + 1):
        op = OPERATIONS[round_index % len(OPERATIONS)]
        tree = runtime.tree
        inside = sorted(tree.members())
        if op == "publish":
            candidates = [a for a in inside if runtime.node(a).alive]
        elif op == "join":
            candidates = [a for a in held_back if a not in tree and a not in departed]
        elif op == "crash":
            candidates = [a for a in inside if runtime.node(a).alive]
        elif op == "leave":
            candidates = inside if len(inside) > 1 else []
        elif op == "rejoin":
            candidates = [a for a in departed if a not in tree]
        else:
            candidates = [
                a
                for a in ADDRESSES
                if a not in tree
                and a not in departed
                and runtime.exclusion_round(a) is not None
            ]
        if candidates:
            target = candidates[rng.randrange(len(candidates))]
            if op == "publish":
                runtime.publish(
                    target, Event({"r": round_index}, event_id=round_index)
                )
            elif op == "crash":
                runtime.crash(target)
            elif op == "leave":
                runtime.leave(target)
                departed.append(target)
            else:
                runtime.join(target, interests[target])
                if target in departed:
                    departed.remove(target)
        runtime.step()
        excluded = [
            str(a) for a in ADDRESSES if runtime.exclusion_round(a) == runtime.round
        ]
        state = hashlib.sha1(
            repr(runtime._membership_rng.getstate()).encode("ascii")
        ).hexdigest()[:16]
        rounds.append((flatten(registry.snapshot()), excluded, state))
    return rounds


def encode(rounds, keys):
    """Rounds as JSON-ready rows: counter values in ``keys`` order
    (``None`` = the counter does not exist yet), excluded, rng hash."""
    return [
        [[counters.get(key) for key in keys], excluded, state]
        for counters, excluded, state in rounds
    ]


def record():
    runs = {}
    keys = set()
    for timeout, quorum, piggyback in configurations():
        for seed in SEEDS:
            rounds = play(timeout, quorum, piggyback, seed)
            runs[run_id(timeout, quorum, piggyback, seed)] = rounds
            for counters, __, ___ in rounds:
                keys.update(counters)
    keys = sorted(keys)
    return {
        "keys": keys,
        "runs": {name: encode(rounds, keys) for name, rounds in runs.items()},
    }


@pytest.fixture(scope="module")
def golden():
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


def assert_rounds_match(golden, name, rounds):
    keys = golden["keys"]
    expected = golden["runs"][name]
    assert len(rounds) == len(expected)
    for index, ((counters, excluded, state), want) in enumerate(
        zip(rounds, expected), start=1
    ):
        assert set(counters) <= set(keys), f"{name} round {index}: new counter"
        got = [[counters.get(key) for key in keys], excluded, state]
        if got != want:
            moved = {
                key: (want[0][i], got[0][i])
                for i, key in enumerate(keys)
                if want[0][i] != got[0][i]
            }
            pytest.fail(
                f"{name} round {index}: counters (pinned, now) {moved}, "
                f"excluded {want[1]} -> {got[1]}, rng {want[2]} -> {got[2]}"
            )


class TestMembershipRounds:
    def test_every_run_is_pinned(self, golden):
        assert sorted(golden["runs"]) == sorted(
            run_id(*config, seed)
            for config in configurations()
            for seed in SEEDS
        )

    @pytest.mark.parametrize(
        "timeout,quorum,piggyback",
        configurations(),
        ids=lambda value: str(value),
    )
    def test_rounds_match_the_pin(self, golden, timeout, quorum, piggyback):
        for seed in SEEDS:
            name = run_id(timeout, quorum, piggyback, seed)
            assert_rounds_match(
                golden, name, play(timeout, quorum, piggyback, seed)
            )

    @pytest.mark.parametrize("quorum", QUORUMS)
    def test_a_traced_run_plays_the_same_rounds(self, golden, quorum):
        # Tracing emits a record per pull and per accusation; the rounds
        # it plays must be the untraced ones.
        trace = TraceLog()
        name = run_id(4, quorum, True, 0)
        assert_rounds_match(golden, name, play(4, quorum, True, 0, trace=trace))
        counts = trace.counts()
        assert counts["pull"] > 0 and counts["suspect"] > 0


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, separators=(",", ":"))
        handle.write("\n")
