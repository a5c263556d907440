"""Documentation guards: the README quickstart runs; DESIGN targets exist."""

import ast
import pathlib
import re
from decimal import ROUND_HALF_UP, Decimal

from repro.bench.cli import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: EXPERIMENTS.md figure table: measured column -> figures_full.txt column.
MEASURED_COLUMNS = {
    "Figure 4": {"measured (simulated)": "simulated",
                 "measured (analysis, Eq 18)": "analysis"},
    "Figure 5": {"measured (simulated)": "simulated",
                 "measured (analysis)": "analysis"},
    "Figure 6": {"measured 0.5": "Matching Rate 0.5",
                 "measured 0.2": "Matching Rate 0.2"},
    "Figure 7": {"Original measured": "Original",
                 "Improved measured": "Improved"},
}


def _raw_figures(text):
    """``{"Figure N": {x: {column: cell}}}`` of ``python -m repro.bench``
    output: a caption line, a parameter line, the column names, a rule,
    then one row per x value until the notes."""
    figures = {}
    for block in text.split("\n\n"):
        lines = block.strip().splitlines()
        if not lines or not lines[0].startswith("Figure "):
            continue
        split = [[cell.strip() for cell in line.split("|")] for line in lines[2:]]
        header, rows = split[0], [row for row in split[2:] if len(row) > 1]
        figures[lines[0].split(":")[0]] = {
            row[0]: dict(zip(header, row)) for row in rows
        }
    return figures


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


def _definitions(path):
    """Names a module defines: functions, classes and methods, each both
    qualified (``Class.method``) and bare (docs cite ``space.py::
    enumerate_regular``), and its module-level assignment targets."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.update((prefix + child.name, child.name))
                walk(child, f"{prefix}{child.name}.")

    tree = ast.parse(path.read_text(encoding="utf-8"))
    walk(tree, "")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


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

    def test_code_references_resolve(self):
        # Every `path.py::name` the docs cite names a definition (a
        # function, class, method or module-level assignment) in a file
        # under src/, tests/ or benchmarks/ whose path ends in ``path``:
        # deleting the code cannot strand the reference.
        texts = [(ROOT / name).read_text() for name in ("README.md", "DESIGN.md")]
        texts += [path.read_text() for path in sorted((ROOT / "docs").glob("*.md"))]
        cited = {
            ref
            for text in texts
            for span in re.findall(r"`([^`]+)`", text)
            for ref in re.findall(r"([\w./-]+\.py)::([\w.]+)", span)
        }
        assert cited, "no doc cites a path::name"
        sources = [
            path
            for top in ("src", "tests", "benchmarks")
            for path in (ROOT / top).rglob("*.py")
        ]
        stranded = []
        for path, name in sorted(cited):
            files = [s for s in sources if s.as_posix().endswith("/" + path)]
            if not any(name in _definitions(source) for source in files):
                stranded.append(f"{path}::{name}")
        assert stranded == []

    def test_module_inventory_exists(self):
        # §3 "Package layout" lists every module of every subpackage,
        # under its package, and nothing that does not exist.
        text = (ROOT / "DESIGN.md").read_text()
        layout = text.split("## 3. Package layout", 1)[1].split("```")[1]
        listed, package = set(), None
        for line in layout.splitlines():
            heading = re.match(r"^  (\w+)/$", line)
            if heading:
                package = heading.group(1)
            module = re.match(r"^    (\w+\.py)\s", line)
            if module:
                listed.add(f"{package}/{module.group(1)}")
        modules = {
            f"{path.parent.name}/{path.name}"
            for path in (ROOT / "src" / "repro").glob("*/*.py")
            if not path.name.startswith("__")
        }
        assert sorted(listed - modules) == [], "listed but missing"
        assert sorted(modules - listed) == [], "not listed"

    def test_experiments_doc_mentions_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Figure 4", "Figure 5", "Figure 6", "Figure 7"):
            assert figure in text

    def test_figure_tables_quote_the_raw_output(self):
        # Every measured cell of EXPERIMENTS.md's Figure 4-7 tables is
        # the figures_full.txt cell (which CI's paper-scale job
        # regenerates) at the precision quoted.
        raw = _raw_figures((ROOT / "figures_full.txt").read_text())
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure, measured in MEASURED_COLUMNS.items():
            section = text.split(f"## {figure} ")[1].split("\n## ")[0]
            header, *rows = [
                [cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines()
                if line.startswith("|") and not line.startswith("|--")
            ]
            assert set(measured) <= set(header), figure
            for row in rows:
                x = f"{float(row[0]):g}"
                for column, raw_column in measured.items():
                    quoted = Decimal(row[header.index(column)])
                    cell = raw[figure][x][raw_column]
                    assert quoted == Decimal(cell).quantize(
                        quoted, rounding=ROUND_HALF_UP
                    ), (figure, x, column, cell)

    def test_protocol_doc_covers_every_figure3_line(self):
        text = (ROOT / "docs" / "PROTOCOL.md").read_text()
        for token in ("GOSSIP", "RECEIVE", "PMCAST", "GETRATE",
                      "HPDELIVER"):
            assert token in text
