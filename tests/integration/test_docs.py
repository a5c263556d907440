"""Documentation guards: the README quickstart runs; DESIGN targets exist."""

import pathlib
import re

from repro.bench.cli import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestReadmeQuickstart:
    def test_quickstart_block_executes(self, capsys):
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README lost its quickstart code block"
        exec(compile(blocks[0], "<README quickstart>", "exec"), {})
        out = capsys.readouterr().out
        # The quickstart prints the two headline ratios.
        numbers = [float(line) for line in out.split() if line]
        assert len(numbers) == 2
        delivery, false_reception = numbers
        assert delivery > 0.9
        assert false_reception < 0.5


class TestDesignDocConsistency:
    def test_bench_targets_exist(self):
        # Every `--experiment name` / `--figure n` the docs write is a
        # registry key, and EXPERIMENTS.md gives the command of every
        # registry key: a table cannot be cited from, or lost to, a
        # runner that does not exist.
        cited = {}
        for name in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
            text = (ROOT / name).read_text()
            cited[name] = set(re.findall(r"--experiment ([a-z_]+)", text))
            cited[name].update(
                f"figure{n}" for n in re.findall(r"--figure (\d+)", text)
            )
            assert cited[name], f"{name} cites no bench command"
            assert cited[name] <= set(REGISTRY), name
        assert cited["EXPERIMENTS.md"] == set(REGISTRY)

    def test_module_inventory_exists(self):
        text = (ROOT / "DESIGN.md").read_text()
        listed = re.findall(r"^\s{4}(\w+\.py)\s", text, re.MULTILINE)
        package_dirs = {
            "addressing", "interests", "membership", "core", "sim",
            "analysis", "baselines", "bench", "obs", "faults",
        }
        missing = []
        for name in listed:
            hits = list((ROOT / "src" / "repro").rglob(name))
            hits = [
                h for h in hits
                if h.parent.name in package_dirs or h.parent.name == "repro"
            ]
            if not hits:
                missing.append(name)
        assert not missing, f"DESIGN.md lists unknown modules: {missing}"

    def test_experiments_doc_mentions_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Figure 4", "Figure 5", "Figure 6", "Figure 7"):
            assert figure in text

    def test_protocol_doc_covers_every_figure3_line(self):
        text = (ROOT / "docs" / "PROTOCOL.md").read_text()
        for token in ("GOSSIP", "RECEIVE", "PMCAST", "GETRATE",
                      "HPDELIVER"):
            assert token in text
