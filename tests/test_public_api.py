"""Packaging guards: every advertised export exists and imports cleanly."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.addressing",
    "repro.interests",
    "repro.membership",
    "repro.core",
    "repro.sim",
    "repro.faults",
    "repro.analysis",
    "repro.validate",
    "repro.baselines",
    "repro.bench",
    "repro.par",
    "repro.net",
]


class TestPublicApi:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} lacks __all__"
        for export in module.__all__:
            assert hasattr(module, export), f"{name}.{export} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_has_no_duplicates(self, name):
        module = importlib.import_module(name)
        assert len(module.__all__) == len(set(module.__all__))

    def test_version_is_set(self):
        import repro

        assert repro.__version__

    def test_top_level_exports_cover_the_quickstart(self):
        # The README quickstart must keep working against the
        # top-level namespace alone.
        from repro import (
            AddressSpace,
            Event,
            PmcastConfig,
            PmcastGroup,
            PubSubSystem,
            SimConfig,
            parse_subscription,
            run_dissemination,
        )

        assert all(
            item is not None
            for item in (
                AddressSpace,
                Event,
                PmcastConfig,
                PmcastGroup,
                PubSubSystem,
                SimConfig,
                parse_subscription,
                run_dissemination,
            )
        )

    def test_exceptions_share_the_root(self):
        from repro import ReproError
        from repro.errors import (
            AddressError,
            AnalysisError,
            ConfigError,
            MembershipError,
            NetError,
            ParseError,
            PredicateError,
            ProtocolError,
            SimulationError,
        )

        for exc in (
            AddressError,
            AnalysisError,
            ConfigError,
            MembershipError,
            NetError,
            ParseError,
            PredicateError,
            ProtocolError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)


class TestRemovedTwins:
    """One path per mechanism: the ablation options must stay gone."""

    def test_ablation_keywords_are_not_accepted(self):
        import inspect

        from repro.core import GossipContext
        from repro.sim import GroupRuntime

        assert "keyed_cache" not in inspect.signature(GossipContext).parameters
        assert not hasattr(GossipContext, "keyed_cache")
        assert (
            "active_scheduling"
            not in inspect.signature(GroupRuntime).parameters
        )

    def test_trace_shim_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.trace")
        # The two names stay re-exported from the package itself.
        from repro.obs.trace import TraceLog, TraceRecord
        from repro import sim

        assert sim.TraceLog is TraceLog
        assert sim.TraceRecord is TraceRecord

    def test_one_way_to_observe_a_run(self):
        """Drivers take ``observer=``; ``trace=`` / ``timeline=`` live on
        only as the four shorthands the frozen ledger passes, and
        ``sampler`` is the Observer's alone."""
        import ast
        import inspect
        import pathlib

        import repro
        from repro.net import run_sim_dissemination
        from repro.obs import sampling
        from repro.sim import try_run_vectorized

        assert not hasattr(sampling, "SampledTrace")
        assert not hasattr(sampling, "emitter")
        assert not hasattr(repro.obs, "SampledTrace")
        assert "event_records" not in inspect.signature(
            run_sim_dissemination
        ).parameters
        assert "registry" not in inspect.signature(
            try_run_vectorized
        ).parameters

        root = pathlib.Path(repro.__file__).parent
        found = set()
        for path in root.rglob("*.py"):
            if path.parent.name == "obs":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                arguments = node.args
                for arg in (
                    arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                ):
                    if arg.arg in ("trace", "timeline", "sampler"):
                        found.add((node.name, arg.arg))
        assert found == {
            ("run_dissemination", "trace"),
            ("run_dissemination", "timeline"),
            ("run_udp_dissemination", "trace"),
            ("run_sharded_dissemination", "timeline"),
        }

    def test_nothing_imports_scipy(self):
        """numpy is the one dependency: the package, its analysis and
        both CLIs' modules load in a fresh interpreter without scipy."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        result = subprocess.run(
            [
                sys.executable, "-c",
                "import sys, repro, repro.analysis, repro.validate, "
                "repro.bench, repro.net, repro.obs; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))",
            ],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"
