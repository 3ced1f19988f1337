"""The evaluation is stated once: one figure table, one crossover
search, one tuned machine — and the table is what the export writes
and what the docs list."""

import ast
import re
from pathlib import Path

import pytest

from repro.config import (
    HOST_P4,
    NIC_INTEL82540EM,
    MachineConfig,
    NodeConfig,
    cluster_machine,
    full_machine,
    single_node_machine,
)
from repro.figures import FIGURES, rows
from repro.perfmodel import MachineModel, crossover, crossover_table
from repro.perfmodel.report import build_report
from repro.perfmodel.sensitivity import crossover_sensitivity

REPO = Path(__file__).parents[2]

#: figure key -> (fast column, slow column, the model's own crossover N)
CROSSOVERS = {
    "fig15_const": ("gflops_2node", "gflops_1node", 2_513),
    "fig15_4overN": ("gflops_2node", "gflops_1node", 18_402),
    "fig17": ("tflops_16node", "tflops_4node", 187_360),
}


class TestCrossover:
    @pytest.mark.parametrize("key", CROSSOVERS)
    def test_first_integer_at_which_fast_leads(self, key):
        fast_column, slow_column, expected = CROSSOVERS[key]
        figure = FIGURES[key]
        fast, slow = figure.model(fast_column), figure.model(slow_column)
        n = crossover(fast, slow, figure.lo, figure.hi)
        assert n == expected
        assert fast.speed_gflops(n) > slow.speed_gflops(n)
        assert not fast.speed_gflops(n - 1) > slow.speed_gflops(n - 1)

    def test_every_site_reports_the_same_number(self):
        in_report = [a.reproduced for a in build_report() if "crossover" in a.statement]
        assert in_report == [n for _, _, n in CROSSOVERS.values()]
        two_node = CROSSOVERS["fig15_const"][2]
        assert dict(crossover_table())["2 nodes > 1 node"] == two_node
        assert {row.baseline for row in crossover_sensitivity()} == {two_node}

    def test_range_edges(self):
        figure = FIGURES["fig15_const"]
        fast, slow = figure.model("gflops_2node"), figure.model("gflops_1node")
        assert crossover(fast, slow, 300, 2_000) is None  # still behind at hi
        assert crossover(fast, slow, 5_000, 1.0e6) == 5_000  # ahead from lo on
        with pytest.raises(ValueError):  # beyond the j-memory, said up front
            crossover(fast, slow, 300, 3.0e6)


def _python_files():
    for top in ("src", "examples", "benchmarks", "tests"):
        for path in sorted((REPO / top).rglob("*.py")):
            if "e2e" not in path.parts:
                yield path


def _compares_two_speeds(node: ast.AST) -> bool:
    calls = [
        c for c in ast.walk(node)
        if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
        and c.func.attr == "speed_gflops"
    ]
    return isinstance(node, ast.Compare) and len(calls) >= 2


class TestStatedOnce:
    def test_no_second_crossover_scan(self):
        """No loop anywhere branches on one model's speed against
        another's: that is a crossover scan, and there is one
        (``repro.perfmodel.crossover``, which loops on a predicate)."""
        scans = []
        for path in _python_files():
            for loop in ast.walk(ast.parse(path.read_text())):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if isinstance(node, (ast.If, ast.While, ast.IfExp)) and (
                        _compares_two_speeds(node.test)
                    ):
                        scans.append(f"{path.relative_to(REPO)}:{node.lineno}")
        assert scans == []

    def test_tuned_machine_is_spelled_once(self):
        spelling = ".with_nic(NIC_" + "INTEL82540EM).with_host(HOST_P4)"
        hits = [
            str(path.relative_to(REPO))
            for path in _python_files()
            if spelling in re.sub(r"\s+", "", path.read_text())
        ]
        assert hits == ["src/repro/config.py"]

    def test_doc_lists_exactly_the_table_keys(self):
        doc = (REPO / "docs" / "paper_mapping.md").read_text()
        assert re.findall(r'FIGURES\["(\w+)"\]', doc) == list(FIGURES)


#: one series per figure, rebuilt by hand: (column, model, quantity)
_TUNED = MachineConfig(
    node=NodeConfig(host=HOST_P4), nodes_per_cluster=4, clusters=4,
    nic=NIC_INTEL82540EM,
)
SPOT_CHECKS = {
    "fig13": ("gflops_eps_n13", MachineModel(single_node_machine(), softening="n13"),
              lambda m, n: m.speed_gflops(n)),
    "fig14": ("us_const_host_fit", MachineModel(single_node_machine()),
              lambda m, n: m.time_per_step_constant_host_us(n)),
    "fig15_const": ("gflops_2node", MachineModel(cluster_machine(2)),
                    lambda m, n: m.speed_gflops(n)),
    "fig15_4overN": ("gflops_4node", MachineModel(cluster_machine(4), softening="4overN"),
                     lambda m, n: m.speed_gflops(n)),
    "fig16": ("us_sync", MachineModel(cluster_machine(4)),
              lambda m, n: m.step_time_breakdown(n).sync_us),
    "fig17": ("tflops_8node", MachineModel(full_machine(2)),
              lambda m, n: m.speed_gflops(n) / 1e3),
    "fig18": ("us_sync_plus_exchange", MachineModel(full_machine(4)),
              lambda m, n: m.step_time_breakdown(n).sync_us
              + m.step_time_breakdown(n).exchange_us),
    "fig19": ("tflops_intel82540em_p4", MachineModel(_TUNED),
              lambda m, n: m.speed_gflops(n) / 1e3),
}


class TestTableIsTheExport:
    def test_every_figure_is_spot_checked(self):
        assert list(SPOT_CHECKS) == list(FIGURES)

    @pytest.mark.parametrize("key", SPOT_CHECKS)
    def test_rows_equal_direct_model_calls(self, key):
        column, model, quantity = SPOT_CHECKS[key]
        figure = FIGURES[key]
        index = 1 + [s.column for s in figure.series].index(column)
        table = rows(figure, 25)
        assert len(table) == 25
        assert (table[0][0], table[-1][0]) == (int(figure.lo), int(figure.hi))
        for row in table:
            assert row[index] == quantity(model, row[0])  # exact, not approx
