"""Golden-seed determinism for the dissemination variants.

Three guarantees, mirroring ``tests/sim/test_golden_seed.py``:

* **Pinned digests** — each variant's full report (every count, the
  infection curve, the distance histogram) is hashed and pinned at two
  scales: the CI quick scale (5³ = 125) and the paper scale
  (22³ = 10648, marked ``slow``), across a 3-point (ε, τ) grid.  Any
  change to a variant's draw order or accounting moves a digest.
* **Hash-seed independence** — the variants walk insertion-ordered
  dicts and sorted address lists only, so their outcomes are identical
  in any Python process regardless of ``PYTHONHASHSEED`` (checked by
  actually spawning two interpreters with different seeds).
* **Worker-count independence** — the ``variants`` conformance suite
  produces a byte-identical report at ``--jobs 1`` and ``--jobs 4``
  through :mod:`repro.par` (docs/VALIDATION.md, "Parallel execution").
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.addressing import AddressSpace
from repro.config import SimConfig
from repro.interests.events import Event
from repro.baselines import flat_gossip_broadcast
from repro.sim import bernoulli_interests, derive_rng
from repro.validate.harness import run_conformance
from repro.variants import bounded_view_broadcast, lazy_pull_broadcast

GRID = ((0.0, 0.0), (0.05, 0.0), (0.1, 0.05))

#: (scale, (eps, tau), variant) -> sha1 of the full report dict.
GOLDEN = {
    ((0.0, 0.0), "flat_push"): "9dbad23ed3d3aa3ecf645e1fe77a01548ed93188",
    ((0.0, 0.0), "lazy_pull"): "db56463d5120659219ecaea0d216ff03d4425ac2",
    ((0.0, 0.0), "bounded_view"): "bb1773ca22052cf7bb82269b9f6c7fa7eead559c",
    ((0.05, 0.0), "flat_push"): "317e936da79cc1cc1c77ced848790cac6d27a623",
    ((0.05, 0.0), "lazy_pull"): "cb158b2a7eed04d5873f31f3da784a4918ff0dd9",
    ((0.05, 0.0), "bounded_view"): "a8219c1c035a4ffd637c0ed6b6055cef2c47992f",
    ((0.1, 0.05), "flat_push"): "b0cd1c6762a60a15465c2e26a61b7b4e8a69c6cd",
    ((0.1, 0.05), "lazy_pull"): "07906241cbdc3fd46107fd97b9acfdde7213546a",
    ((0.1, 0.05), "bounded_view"): "44428f807b0f66e3e229b164e8eb1a2dbd4e7c88",
}

#: Paper scale (22³ = 10648) — the ISSUE's n=10648 pin.
GOLDEN_PAPER = {
    ((0.0, 0.0), "flat_push"): "4bd109ffe6716cc5838af4bb0ef46a4128aad83c",
    ((0.0, 0.0), "lazy_pull"): "3a3f7f59e0703b122b432894655dc3a489ed4e76",
    ((0.0, 0.0), "bounded_view"): "19ee28eab3bcf475f3fd21571328b1d8000a42d1",
    ((0.05, 0.0), "flat_push"): "cf606d5a9c206318a0f7967cb92c4e76b3664d91",
    ((0.05, 0.0), "lazy_pull"): "1e3be06af315b26579fad4cf5a0db73f7e4f8845",
    ((0.05, 0.0), "bounded_view"): "8090376fc224f3735852cd08d08f036bf7584a0f",
    ((0.1, 0.05), "flat_push"): "7e40b824d1645821be2f51dcd008503302d288e2",
    ((0.1, 0.05), "lazy_pull"): "2f94fa7dbb1b7f5109905d87c723be29abcdda4f",
    ((0.1, 0.05), "bounded_view"): "3e77d51c96795705cfd1a68213ac738e18e28608",
}


def report_digest(report):
    payload = json.dumps(
        dataclasses.asdict(report), sort_keys=True, default=list
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def run_grid(arity):
    space = AddressSpace.regular(arity, 3)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.3, derive_rng(2002, "interests")
    )
    publisher = addresses[0]
    digests = {}
    for eps, tau in GRID:
        sim_config = SimConfig(
            seed=2002, loss_probability=eps, crash_fraction=tau
        )
        event = Event({"g": 1}, event_id=9)
        digests[((eps, tau), "flat_push")] = report_digest(
            flat_gossip_broadcast(members, publisher, event, 3, sim_config)
        )
        digests[((eps, tau), "lazy_pull")] = report_digest(
            lazy_pull_broadcast(
                members, publisher, event, 3, sim_config,
                infection_threshold=0.5, pull_fanout=2, retry_budget=8,
            )
        )
        digests[((eps, tau), "bounded_view")] = report_digest(
            bounded_view_broadcast(
                members, publisher, event, 3, sim_config,
                view_size=8, shuffle_size=2,
            )
        )
    return digests


class TestGoldenDigests:
    def test_quick_scale_grid(self):
        assert run_grid(5) == GOLDEN

    @pytest.mark.slow
    def test_paper_scale_grid(self):
        # n = 22³ = 10648, the paper's evaluation size (~20 s serial).
        assert run_grid(22) == GOLDEN_PAPER


class TestHashSeedIndependence:
    def test_reports_identical_across_hash_seeds(self):
        script = textwrap.dedent(
            """
            from repro.addressing import AddressSpace
            from repro.config import SimConfig
            from repro.interests.events import Event
            from repro.baselines import flat_gossip_broadcast
            from repro.sim import bernoulli_interests, derive_rng
            from repro.variants import (
                bounded_view_broadcast, lazy_pull_broadcast,
            )
            space = AddressSpace.regular(5, 3)
            addresses = space.enumerate_regular(5)
            members = bernoulli_interests(
                addresses, 0.3, derive_rng(2002, "interests")
            )
            sim_config = SimConfig(seed=2002, loss_probability=0.05)
            event = Event({"g": 1}, event_id=9)
            print(flat_gossip_broadcast(
                members, addresses[0], event, 3, sim_config
            ))
            print(lazy_pull_broadcast(
                members, addresses[0], event, 3, sim_config
            ))
            print(bounded_view_broadcast(
                members, addresses[0], event, 3, sim_config
            ))
            """
        )
        outputs = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestWorkerCountIndependence:
    @pytest.mark.slow
    def test_conformance_report_byte_identical_at_any_jobs(self):
        serial = run_conformance(suites=["variants"], quick=True, jobs=1)
        parallel = run_conformance(suites=["variants"], quick=True, jobs=4)
        assert json.dumps(
            serial.to_dict(), sort_keys=True
        ) == json.dumps(parallel.to_dict(), sort_keys=True)
        assert serial.passed
