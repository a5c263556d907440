"""Golden-seed digests for the ``GroupRuntime`` scenarios (PR 5 pins).

The membership-plane overhaul promises *bit-identical observable
behavior*: same deliveries, same exclusion rounds, same counter values,
same RNG streams.  These tests pin the quick-scale (5^3 members, seed
0) digest of every scenario to the value recorded on the pre-overhaul
tree, so any future change to caching, iteration order, or RNG call
sequence that perturbs observable behavior fails loudly here instead
of silently re-randomizing recorded figures.

The scenarios are the ones the ledger (``benchmarks/ledger/``) does not
pin: it times the same paths at paper scale, these hold their outcomes
still.  Each builds its group, drives it and returns the sha1 of what
an observer could see; nothing is timed.

``GOLDEN_TABLES`` does the same for every table of
``python -m repro.bench``: each ``--experiment NAME`` at its default
configuration, each figure at the quick pass ``--arity 5 --trials 2``
(the paper-scale figures are CI's ``paper-scale`` job, diffed against
``figures_full.txt``): the cells EXPERIMENTS.md quotes cannot drift
unnoticed.

A subprocess check re-derives two digests of each kind under different
``PYTHONHASHSEED`` values: digests must never depend on Python's
per-process string-hash randomization (the determinism contract of
docs/VALIDATION.md).
"""

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.addressing import AddressSpace
from repro.bench.cli import FIGURES, REGISTRY
from repro.config import PmcastConfig, SimConfig
from repro.interests.events import Event
from repro.obs import MetricsRegistry, Observer
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests, random_subscriptions

#: Quick-scale (arity=5, depth=3, seed=0) digests recorded on the tree
#: *before* the membership-plane hot-path overhaul.  MUST NOT change:
#: equality here is the proof that the caching layers are observably
#: invisible.
GOLDEN_QUICK = {
    "round_loop": "f163b585c718e995eb1c4feb0f5ef6195d92ae2e",
    "churn_refresh": "4a78d816d5c0657e7c683312b54f543bd9e59bc4",
    "match_cache": "c5e2263cb011949d4fbdc68e95ef16f428803ba9",
    "membership_plane": "4b750e389544ebb2afb123da7b82376b955058c0",
}

#: ``ExperimentResult.digest()`` of every registry entry: the figures at
#: :data:`FIGURE_PASS`, every experiment at its defaults (``variants``
#: is the former ``variant_compare`` pin).  Re-record one only with the
#: old and new rows stated in CHANGES.md.
GOLDEN_TABLES = {
    "figure4": "ac42d82c46187e92033b969c8f351cd2472988be",
    "figure5": "9ae00cf967de5d46e11c686d5683c4faedb9cc18",
    "figure6": "8bc631b8b179e211e8367f397050b8ab00a53efc",
    "figure7": "7e49c710d50934fa19a8f5eb7836552496441e96",
    "locality": "0a8fccd498e131c09f57c8afd3ac6bdaef7a3c65",
    "baselines": "303c0ba60147062073102b720223f3623218c5ae",
    "variants": "899e86e0a56f1d7b93f8224b2776a7d7555adcdc",
    "rounds_model": "0b4fc7ca5d1a02e5288cfc3d375a8d10fae3c4c3",
    "markov_chain": "29034cce28c1181dd0db26137c35de88d4566494",
    "view_sizes": "4d83bea2063af5d5c174c7c707317b4f3d4ba80e",
    "throughput": "3a7fc24bc1fc3e47eff6b31009ee9fb215fb4fcf",
    "latency": "732490b8e3de1548c4de670df514402ecdbd589b",
    "churn": "46650d5e0499b847075991d8a1f620d12ca4c7c2",
    "fault_sensitivity": "56b5ce0860c5012d6f3852ec6899f8a013d2525e",
    "membership_convergence": "e35b1123d5991baa1569e8231ac5a11fa83d6a0f",
    "ablations": "92f8a7f47b3d5a1756e73637f098228bf2d64a2e",
}

#: The reduced configuration the figures are pinned at (they default to
#: paper scale, minutes a figure).
FIGURE_PASS = {"arity": 5, "trials": 2}

#: What the PYTHONHASHSEED subprocess leg re-derives: two runtime
#: scenarios and three tables (B3 drives ``GroupRuntime``'s event
#: rounds, M1 its pull batches until every replica converges, Figure 4
#: the reliability sweep, whose output once moved with the hash seed;
#: all cheap enough for the 5 s durations gate).
HASH_SEED_LEG = (
    ["churn_refresh", "membership_plane"],
    ["throughput", "membership_convergence", "figure4"],
)

ARITY, DEPTH, SEED = 5, 3, 0


def _sha1(parts):
    digest = hashlib.sha1()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _addresses():
    return AddressSpace.regular(ARITY, DEPTH).enumerate_regular(ARITY)


def _population():
    """The regular space, every member interested with probability 1/4."""
    addresses = _addresses()
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(SEED, "perf-interests")
    )
    return addresses, members


def _runtime(members, config, observer=None):
    return GroupRuntime(
        members,
        config=config,
        sim_config=SimConfig(seed=SEED),
        observer=observer,
    )


def round_loop():
    """One live-runtime dissemination: the §2.3 round loop."""
    addresses, members = _population()
    runtime = _runtime(
        members, PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)
    )
    event = Event({"perf": 1}, event_id=1)
    runtime.publish(addresses[0], event)
    rounds = runtime.run_until_idle(max_rounds=96)
    return _sha1(
        [str(a) for a in runtime.delivered_to(event)] + [str(rounds)]
    )


def churn_refresh(churn_events=8):
    """A join burst then a leave burst: view maintenance."""
    addresses, members = _population()
    # Hold some addresses back so there is room to join.
    joiners = addresses[-churn_events:]
    initial = {a: i for a, i in members.items() if a not in joiners}
    runtime = _runtime(initial, PmcastConfig(fanout=3, redundancy=3))
    for address in joiners:
        runtime.join(address, members[address])
    for address in joiners:
        runtime.leave(address)
    # The digest pins the maintenance *outcome*: the surviving member
    # set plus the timestamped view tables along a stable path (the
    # table digests carry the logical clock, so a refresh that stamps
    # differently — or skips a restamp — changes the digest).
    witness = runtime.node(addresses[0])
    view_lines = [
        f"{d}:{sorted(witness.view(d).digest().items())}"
        for d in range(1, DEPTH + 1)
    ]
    return _sha1(
        sorted(str(a) for a in runtime.tree.members())
        + [str(runtime.size)]
        + view_lines
    )


def match_cache(events=4):
    """Content-based workload with churn mid-dissemination: joins and
    leaves land while events are still in flight, which is what
    per-table cache invalidation exists for."""
    addresses = _addresses()
    members = random_subscriptions(
        addresses, derive_rng(SEED, "perf-subscriptions")
    )
    churners = addresses[-4:]
    initial = {a: i for a, i in members.items() if a not in churners}
    runtime = _runtime(initial, PmcastConfig(fanout=3, redundancy=3))
    delivered = []
    for index in range(events):
        event = Event(
            {"b": index % 7, "c": 25.0 + index, "z": 1000 * index},
            event_id=100 + index,
        )
        runtime.publish(addresses[0], event)
        runtime.run(2)
        churner = churners[index % len(churners)]
        if churner in runtime.tree:
            runtime.leave(churner)
        else:
            runtime.join(churner, members[churner])
        runtime.run_until_idle(max_rounds=64)
        delivered.append(
            ",".join(str(a) for a in runtime.delivered_to(event))
        )
    return _sha1(delivered)


def membership_plane(rounds=32):
    """Membership + detection rounds with zero events in flight; a
    crash burst after a warmup drives suspicion, accusation and
    exclusion end to end.

    The digest folds in the victims' exclusion rounds, the final live
    size and the membership-plane counters, so a caching change that
    alters *any* observable membership behavior breaks it.
    """
    addresses, members = _population()
    registry = MetricsRegistry()
    runtime = _runtime(
        members,
        PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2),
        observer=Observer(registry=registry),
    )
    warmup = max(2, rounds // 8)
    victims = [addresses[1], addresses[len(addresses) // 2], addresses[-2]]
    runtime.run(warmup)
    for victim in victims:
        runtime.crash(victim)
    runtime.run(rounds - warmup)

    snapshot = registry.snapshot()
    membership = snapshot.get("membership", {})
    detector = snapshot.get("detector", {})
    gossip = snapshot.get("gossip_pull", {})
    exclusions = {str(v): runtime.exclusion_round(v) for v in victims}
    # Counters default to 0: a counter nobody incremented may simply
    # not exist in the snapshot, and whether a driver pre-registers it
    # is an implementation detail the digest must not observe.
    counter_lines = [
        f"pulls={membership.get('pulls', 0)}",
        f"exclusions={membership.get('exclusions', 0)}",
        f"suspicion_reports={detector.get('suspicion_reports', 0)}",
        f"accusations={detector.get('accusations', 0)}",
        f"convictions={detector.get('convictions', 0)}",
        f"exchanges={gossip.get('exchanges', 0)}",
        f"synced_exchanges={gossip.get('synced_exchanges', 0)}",
        f"lines_updated={gossip.get('lines_updated', 0)}",
    ]
    return _sha1(
        [f"{k}={exclusions[k]}" for k in sorted(exclusions)]
        + [str(runtime.size)]
        + counter_lines
    )


SCENARIOS = {
    "round_loop": round_loop,
    "churn_refresh": churn_refresh,
    "match_cache": match_cache,
    "membership_plane": membership_plane,
}


def run_scenarios(names):
    """``{name: digest}``; a scenario that raises propagates."""
    return {name: SCENARIOS[name]() for name in names}


@functools.lru_cache(maxsize=None)
def table(name):
    """Registry entry ``name`` at its pinned configuration, run once a
    process (``test_extras.py`` asserts the claims on these same rows)."""
    return REGISTRY[name].run(**(FIGURE_PASS if name in FIGURES else {}))


class TestGoldenQuickDigests:
    def test_every_scenario_matches_its_pin(self):
        assert run_scenarios(sorted(GOLDEN_QUICK)) == GOLDEN_QUICK

    def test_rerun_is_deterministic(self):
        # Same seed, same process: a second run must reproduce the
        # pins too (no hidden state leaks between runs).
        names = ["churn_refresh", "membership_plane"]
        assert run_scenarios(names) == {n: GOLDEN_QUICK[n] for n in names}

    def test_raising_scenario_fails_the_run(self, monkeypatch):
        # A scenario whose runtime constructor raises must fail the
        # run — never yield a digest table that silently lacks a row.
        def broken(*args, **kwargs):
            raise TypeError("constructor bug")

        monkeypatch.setattr(sys.modules[__name__], "GroupRuntime", broken)
        with pytest.raises(TypeError, match="constructor bug"):
            run_scenarios(["round_loop"])


class TestGoldenTables:
    def test_every_experiment_has_a_pin(self):
        assert list(GOLDEN_TABLES) == list(REGISTRY)

    @pytest.mark.parametrize("name", GOLDEN_TABLES)
    def test_table_matches_its_pin(self, name):
        assert table(name).digest() == GOLDEN_TABLES[name], table(name).render()


class TestHashSeedIndependence:
    def test_digests_survive_hash_randomization(self):
        # Two interpreters with different fixed string-hash seeds must
        # produce the pinned digests: nothing observable may iterate a
        # str-keyed structure in hash order.
        import repro

        src = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            scenarios, tables = HASH_SEED_LEG
            assert json.loads(result.stdout.strip()) == {
                **{name: GOLDEN_QUICK[name] for name in scenarios},
                **{name: GOLDEN_TABLES[name] for name in tables},
            }, f"digest drift under PYTHONHASHSEED={hash_seed}"


if __name__ == "__main__":
    # The subprocess leg of TestHashSeedIndependence.
    scenarios, tables = HASH_SEED_LEG
    print(json.dumps({
        **run_scenarios(scenarios),
        **{name: table(name).digest() for name in tables},
    }))
