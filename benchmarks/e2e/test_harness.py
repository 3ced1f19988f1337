"""The harness checked against itself, in ``--quick`` mode.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run_quick(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    """In a session of its own, so that whatever it leaves running is
    found afterwards: ``.left`` lists the session's remaining members."""
    args = [sys.executable, str(HERE / "run.py"), "--quick", *extra]
    with subprocess.Popen(args, cwd=cwd, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as p:
        out, err = p.communicate(timeout=180)
    done = subprocess.CompletedProcess(args, p.returncode, out, err)
    done.left = session_members(p.pid)
    return done


def session_members(sid: int) -> list[str]:
    """``pid comm state`` of every process in session ``sid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        head, _, tail = stat.rpartition(")")
        fields = tail.split()  # state ppid pgrp session ...
        if int(fields[3]) == sid:
            out.append(f"{head}) {fields[0]}")
    return out


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("quick")
    shm_before = set(os.listdir("/dev/shm"))
    proc = run_quick(cwd, "--out", "BENCH_e2e.json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((cwd / "BENCH_e2e.json").read_text())
    spans = [json.loads(line)
             for line in (cwd / "BENCH_e2e.spans.jsonl").read_text().splitlines()]
    return cwd, proc, doc, spans, shm_before


def test_every_declared_metric_is_reported_with_a_unit(quick):
    _, proc, doc, *_ = quick
    assert [w["name"] for w in DECLARED["workloads"]] == list(doc["workloads"])
    for name, result in doc["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in DECLARED[section]:
                assert metric["name"] in result[section], (name, metric["name"])
                assert doc["units"][metric["name"]] == metric["unit"]
        for metric in DECLARED["end_to_end"]:
            assert result["end_to_end"][metric["name"]] > 0
            assert metric["name"] in proc.stdout


def test_no_check_failed(quick):
    _, _, doc, *_ = quick
    assert doc["failed"] == 0 and doc["fail_ratio"] == 0
    assert doc["attempted"] >= 10 * len(doc["workloads"])


def test_span_tree_is_well_formed_and_self_times_sum_to_the_roots(quick):
    _, _, _, spans, *_ = quick
    assert tracing.tree_problems(spans) == []
    own = tracing.own_times(spans)
    assert min(own) >= -1e-6
    roots = sum(tracing.duration(s) for s in spans if s[tracing.PARENT] < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    tags = {s[tracing.TAG].split("#")[0] for s in spans}
    assert tags == {w["name"] for w in DECLARED["workloads"]}
    for s in spans:
        if s[tracing.PARENT] >= 0:
            assert spans[s[tracing.PARENT]][tracing.TAG] == s[tracing.TAG]


def test_nothing_is_left_behind(quick):
    cwd, proc, _, _, shm_before = quick
    assert sorted(p.name for p in cwd.iterdir()) == [
        "BENCH_e2e.json", "BENCH_e2e.spans.jsonl"]
    assert set(os.listdir("/dev/shm")) <= shm_before
    # pool workers and multiprocessing's resource_tracker included
    assert proc.left == []


def test_a_corrupted_expected_count_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected_counts.json").read_text())
    expected["quick"]["cluster_latency"]["messages"] += 1
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(expected))
    proc = run_quick(tmp_path, "--expected", str(bad))
    assert proc.returncode != 0
    assert "counts equal expected_counts.json" in proc.stderr
