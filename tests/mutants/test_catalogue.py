"""The mutant gate's own contract, cheaply: every catalogue entry
applies at HEAD, and a stale entry fails the gate without running any
test.  The killing itself is ``python tests/mutants/run.py`` (its own
CI job)."""

import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"mutants_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load("run")


@pytest.mark.parametrize("mutant", runner.CATALOGUE, ids=lambda m: m.name)
def test_every_entry_applies_once_and_changes_its_file(mutant):
    text = (SRC / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert mutant.killers and all("::" in killer for killer in mutant.killers)


def test_names_are_unique():
    names = [mutant.name for mutant in runner.CATALOGUE]
    assert len(names) == len(set(names))


def test_a_stale_entry_fails_the_gate(monkeypatch, capsys):
    stale = runner.Mutant(
        "stale entry", "repro/sim/network.py", "text no file holds", "x",
        ("tests/sim/test_network.py",),
    )
    monkeypatch.setattr(runner, "CATALOGUE", (stale,))
    assert runner.main([]) == 1
    assert "stale" in capsys.readouterr().out
