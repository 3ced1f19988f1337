"""Job specs and the on-disk job directory (repro.service.jobs).

Properties pinned here: strict ``repro.job/1`` validation (the one
kind, name syntax, cadences, budgets, run params), spec round-trips through
``as_dict``/``from_dict``, deterministic checkpoint naming with
newest-wins resolution, atomic state rewrites, and workload
construction (model sampling, softening resolution, backend choice).
"""

import json
import re
import shlex

import numpy as np
import pytest

from repro.core.softening import constant_softening
from repro.forces.direct import DirectSummation
from repro.hardware.system import Grape6Emulator
from repro.service.jobs import (
    JOB_SCHEMA,
    STATE_SCHEMA,
    JobError,
    JobPaths,
    JobSpec,
    build_backend,
    build_system,
    load_job,
    read_state,
    resolve_eps2,
    write_state,
)

RUN_DOC = {
    "schema": JOB_SCHEMA,
    "kind": "run",
    "name": "demo",
    "params": {"model": "plummer", "n": 16, "seed": 3, "t_end": 0.5},
}


def make_doc(**overrides):
    doc = {**RUN_DOC, "params": dict(RUN_DOC["params"])}
    params = overrides.pop("params", None)
    if params:
        doc["params"].update(params)
    doc.update(overrides)
    return doc


class TestSpecValidation:
    def test_round_trip(self):
        spec = JobSpec.from_dict(make_doc(max_blocksteps=100, notes="hi"))
        clone = JobSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert clone.notes == "hi" and clone.max_blocksteps == 100

    def test_kinds(self):
        assert JobSpec.from_dict(make_doc()).kind == "run"
        with pytest.raises(JobError, match="only job kind"):
            JobSpec.from_dict(make_doc(kind="dance"))

    def test_foreign_schema(self):
        with pytest.raises(JobError):
            JobSpec.from_dict(make_doc(schema="other/1"))

    @pytest.mark.parametrize("name", ["", "a b", "x" * 65, "a/b"])
    def test_bad_names(self, name):
        with pytest.raises(JobError):
            JobSpec.from_dict(make_doc(name=name))

    @pytest.mark.parametrize("field,value", [
        ("checkpoint_every", 0),
        ("sample_every", -1),
        ("checkpoint_every_s", 0),
        ("max_wall_s", -2.0),
        ("max_blocksteps", 0),
        ("max_blocksteps", True),
        ("notes", 7),
    ])
    def test_bad_scalars(self, field, value):
        with pytest.raises(JobError):
            JobSpec.from_dict(make_doc(**{field: value}))

    @pytest.mark.parametrize("field", ["checkpoint_every", "sample_every"])
    @pytest.mark.parametrize("value", [2.7, True, "8", "x", None, 0])
    def test_cadence_is_a_positive_integer(self, field, value):
        """A cadence is taken as written or refused naming its key: never
        truncated (2.7), coerced (true, "8") or a raw traceback ("x",
        null)."""
        with pytest.raises(JobError, match=field):
            JobSpec.from_dict(make_doc(**{field: value}))

    @pytest.mark.parametrize("params", [
        {"model": "spiral"},
        {"n": 1},
        {"n": "many"},
        {"t_end": 0},
        {"backend": "fpga"},
        {"backend": "grape", "emulation_mode": "psychic"},
    ])
    def test_bad_run_params(self, params):
        with pytest.raises(JobError):
            JobSpec.from_dict(make_doc(params=params))

    def test_sweep_and_calibrate(self):
        """The retired kinds are refused, naming the bench command that
        runs sweeps; every command the message names parses."""
        from repro.bench.cli import build_parser

        for kind in ("sweep", "calibrate"):
            with pytest.raises(JobError, match="python -m repro.bench run") as info:
                JobSpec.from_dict({
                    "schema": JOB_SCHEMA, "kind": kind, "name": "s",
                    "params": {"suite": "smoke"},
                })
            named = re.findall(r"`python -m repro\.bench ([^`]+)`",
                               str(info.value))
            assert named
            for line in named:
                build_parser().parse_args(shlex.split(line))

    def test_load_job(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(make_doc()))
        assert load_job(path).name == "demo"
        path.write_text("{broken")
        with pytest.raises(JobError):
            load_job(path)


class TestJobPaths:
    def test_layout(self, tmp_path):
        paths = JobPaths(tmp_path)
        assert paths.spec.name == "job.json"
        assert paths.archive.name == "bus.jsonl"
        assert paths.checkpoint_path(7).name == "ckpt_0000000007.npz"

    def test_latest_checkpoint_newest_wins(self, tmp_path):
        paths = JobPaths(tmp_path)
        assert paths.latest_checkpoint() is None
        paths.checkpoints.mkdir(parents=True)
        for step in (8, 64, 512):  # name padding keeps sort numeric
            paths.checkpoint_path(step).touch()
        assert paths.latest_checkpoint() == paths.checkpoint_path(512)


class TestState:
    def test_atomic_round_trip(self, tmp_path):
        paths = JobPaths(tmp_path)
        write_state(paths, "running", t=0.5, blocksteps=12)
        state = read_state(paths)
        assert state["schema"] == STATE_SCHEMA
        assert state["status"] == "running" and state["blocksteps"] == 12
        assert not list(tmp_path.glob("*.tmp"))

    def test_unknown_status_rejected(self, tmp_path):
        with pytest.raises(JobError):
            write_state(JobPaths(tmp_path), "zombie")

    def test_missing_state_raises(self, tmp_path):
        with pytest.raises(JobError):
            read_state(JobPaths(tmp_path))


class TestWorkloadConstruction:
    def test_build_system_seeded(self):
        a = build_system({"model": "plummer", "n": 16, "seed": 5})
        b = build_system({"model": "plummer", "n": 16, "seed": 5})
        assert np.array_equal(a.pos, b.pos)
        assert a.n == 16

    def test_resolve_eps2(self):
        assert resolve_eps2({"eps": 0.25, "n": 16}) == 0.0625
        expected = float(constant_softening(16)) ** 2
        assert resolve_eps2({"n": 16}) == pytest.approx(expected)

    def test_build_backend(self):
        assert build_backend({"backend": "direct", "n": 16}) is None
        backend = build_backend({
            "backend": "grape", "n": 16, "emulation_mode": "faithful",
        })
        assert isinstance(backend, Grape6Emulator)

    def test_direct_backend_matches_grape_interface(self):
        """Both backends satisfy the ForceBackend protocol the
        integrator drives; the spec only switches implementations."""
        direct = DirectSummation(0.01)
        grape = build_backend({"backend": "grape", "n": 16})
        for method in ("set_j_particles", "forces_on"):
            assert callable(getattr(direct, method))
            assert callable(getattr(grape, method))
