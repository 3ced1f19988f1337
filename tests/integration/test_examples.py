"""Every example script must run end to end (at reduced scale).

The examples are deliverables, not decoration; these smoke tests
execute them in-process (runpy) with small arguments so a refactor that
breaks an example fails the suite, not the user.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *argv: str, capsys=None) -> str:
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


class TestExamplesRun:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", "64", capsys=capsys)
        assert "energy error" in out
        assert "mean block size" in out

    def test_hardware_emulation(self, capsys):
        out = run_example("hardware_emulation.py", "32", capsys=capsys)
        assert "bit-identical across board counts: True" in out

    def test_tuning_advisor(self, capsys):
        out = run_example("tuning_advisor.py", "50000", capsys=capsys)
        assert "tuning ladder" in out
        assert "Tflops" in out

    def test_figure_sweep(self, capsys):
        out = run_example("figure_sweep.py", capsys=capsys)
        for marker in ("Figure 13", "Figure 17", "Figure 19", "treecode comparison"):
            assert marker in out
        # the anchors beside their figures, crossovers as the model's own N
        for anchor in ("2513", "18402", "187360", "33.4"):
            assert anchor in out

    def test_kuiper_belt(self, capsys):
        out = run_example("kuiper_belt.py", "60", capsys=capsys)
        assert "33.4 Tflops" in out

    def test_binary_black_hole(self, capsys):
        out = run_example("binary_black_hole.py", "48", capsys=capsys)
        assert "35.3" in out

    def test_parallel_scaling(self, capsys):
        out = run_example("parallel_scaling.py", capsys=capsys)
        assert "crossover" in out
        # the same numbers the report and figure_sweep print
        for n in ("2513", "18402", "187360"):
            assert n in out

    def test_telemetry_demo(self, capsys):
        out = run_example("telemetry_demo.py", "24", capsys=capsys)
        # the paper's phase taxonomy, both clock domains, and metrics
        assert "T_host" in out and "T_pipe" in out
        assert "T_comm" in out and "T_barrier" in out
        assert "virtual [ms]" in out
        assert "core.block_size" in out
        assert "net.messages" in out

    def test_telemetry_demo_writes_a_trace(self, capsys, tmp_path):
        import json

        from repro.telemetry import validate_timeline

        trace = tmp_path / "trace.json"
        out = run_example("telemetry_demo.py", "24", str(trace), capsys=capsys)
        assert "emulated single host" in out
        assert f"wrote {trace}" in out
        doc = validate_timeline(json.loads(trace.read_text()))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {"blockstep", "grape.force"} <= {e["name"] for e in spans}
        assert doc["otherData"] == {"workload": "plummer", "n": 24}

    def test_service_demo(self, capsys):
        out = run_example("service_demo.py", "24", capsys=capsys)
        assert "bit-identical after resume: True" in out
        assert "discontinuity records in the archive: 1" in out

    def test_efficiency_waterfall_demo(self, capsys):
        out = run_example("efficiency_waterfall_demo.py", "24", capsys=capsys)
        assert "measured flops waterfall" in out
        assert "of peak" in out
        assert "= real flops" in out
        assert "modelled fraction of peak vs N" in out

    def test_phase_observatory_demo(self, capsys):
        out = run_example("phase_observatory_demo.py", "32", capsys=capsys)
        assert "regimes discovered" in out
        assert "regime lane" in out
        assert "sampled-run estimate" in out

    def test_rank_observatory_demo(self, capsys, tmp_path):
        import json

        from repro.telemetry import RANK_PID, validate_timeline

        trace = tmp_path / "ranks.json"
        out = run_example(
            "rank_observatory_demo.py", "24", str(trace), capsys=capsys
        )
        assert "bit-identical with observer attached: True" in out
        assert "per-rank real-execution account" in out
        assert "placement gap" in out
        doc = validate_timeline(json.loads(trace.read_text()))
        assert any(
            e.get("pid") == RANK_PID and e["ph"] == "X"
            for e in doc["traceEvents"]
        )

    @pytest.mark.parametrize(
        "name,args",
        [("star_cluster.py", ("64",)), ("planetesimal_accretion.py", ("40",))],
    )
    def test_remaining_examples(self, name, args, capsys):
        out = run_example(name, *args, capsys=capsys)
        assert out.strip()
