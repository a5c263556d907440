"""Documentation guards: the README quickstart runs; DESIGN targets exist."""

import pathlib
import re

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
        text = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
        assert targets, "DESIGN.md lists no bench targets"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

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
