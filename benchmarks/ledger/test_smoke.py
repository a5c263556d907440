"""Smoke test of the ledger at toy scale (5^3 = 125 members).

    python -m pytest benchmarks/ledger -q

Not part of tier-1 (``testpaths = ["tests"]``).  Toy scale only checks
that the machinery works: its numbers never reach BENCHMARK.json.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Same seed, same counts.  udp_live's outcomes depend on the kernel's
#: datagram scheduling, so it is not in this list.
SIMULATED = ["static_tree", "live_group", "scale_1m"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = ("rounds_per_event", "delivery_ratio", "false_reception_ratio",
          "msgs_per_delivery", "ok_share")


def run_toy(workload, seed=0, trace=0):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "toy",
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["counts_digest"] = lines[-2].split()[-1]
    return result


@pytest.fixture(scope="module")
def untraced():
    return {name: run_toy(name) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: run_toy(name, trace=1) for name in WORKLOADS}


def test_spec_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in names and len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("kind,trace", [("end_to_end", 0), ("per_layer", 1)])
def test_every_declared_metric_is_reported_with_its_unit(
    kind, trace, untraced, traced
):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, result in (traced if trace else untraced).items():
        assert set(result) >= {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        assert reported == declared, name
        assert all(
            isinstance(v["value"], float) for v in result["metrics"].values()
        )


def test_end_to_end_metrics_are_never_zero(untraced):
    for name, result in untraced.items():
        for metric, entry in result["metrics"].items():
            assert entry["value"] > 0, (name, metric)


def test_each_workload_fills_its_own_layers(traced):
    home = {
        "static_tree": ["sim.dissem_s", "core.fan_out_s", "net.sim_event_s",
                        "variants.lazy_pull_event_s", "faults.dispositions"],
        "live_group": ["membership.round_s", "membership.exclusion_rounds",
                       "interests.match_us", "sim.runtime_build_s"],
        "udp_live": ["core.codec_encode_us", "net.msgs_per_event",
                     "net.deliver_latency_ms_p50", "pubsub.publish_s"],
        "scale_1m": ["par.fan_out_s", "par.jobs2_event_s"],
    }
    for name, metrics in home.items():
        values = traced[name]["metrics"]
        for metric in metrics + ["obs.span_us", "host.ref_spin_s_p50"]:
            assert values[metric]["value"] > 0, (name, metric)
    # ... and a layer a workload never enters reads 0 there.
    assert traced["static_tree"]["metrics"]["membership.round_s"]["value"] == 0
    assert traced["scale_1m"]["metrics"]["sim.dissem_s"]["value"] == 0
    assert traced["static_tree"]["metrics"]["sim.vector_fallbacks"]["value"] == 0


def test_counts_repeat_on_a_seed_and_change_with_it(untraced, traced):
    for name in SIMULATED:
        again = traced[name]  # same seed, other process, hooks attached
        assert again["counts_digest"] == untraced[name]["counts_digest"], name
        other = run_toy(name, seed=1)
        assert other["counts_digest"] != untraced[name]["counts_digest"], name
        ours = untraced[name]["metrics"]
        assert any(
            other["metrics"][m]["value"] != ours[m]["value"] for m in COUNTS
        ), name
    rounds = untraced["static_tree"]["metrics"]["rounds_per_event"]["value"]
    assert traced["static_tree"]["metrics"]["sim.rounds_per_event"]["value"] == rounds


def test_a_broken_outcome_is_a_failed_event():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    import params
    import workloads

    run = params.Run(
        seed=0, seconds=1,
        scale=dataclasses.replace(params.TOY, max_rounds=1),
        traced=False, clock=harness.RefClock(),
        allowed_cpus=tuple(sorted(os.sched_getaffinity(0))),
    )
    outcome = workloads.static_tree(run)
    assert len(outcome.events) == 3
    assert all("max_rounds" in record.failure for record in outcome.events)
    assert all(record.event_s is None for record in outcome.events)


def test_run_refuses_to_start_without_the_repo(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero,
    print no result line."""
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes()
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "static_tree", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
