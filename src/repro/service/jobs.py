"""Job specifications (``repro.job/1``) and the on-disk job directory.

A job is one JSON document.  Three kinds:

``run``
    A checkpointed integration: sample a model (or load a snapshot),
    integrate to ``t_end`` under the block-timestep Hermite scheme,
    emitting snapshot-bus records and periodic checkpoints.  This is
    the paper's production workload (§5) made survivable.
``sweep``
    One benchmark-suite execution through :mod:`repro.bench`, its
    artifact written into the job directory and published on the bus
    (the history consumer ingests it).
``calibrate``
    Fit perfmodel constants from artifact files
    (:mod:`repro.perfmodel.calibrate`).

Job directory layout (all relative to the directory ``submit``
creates)::

    job.json          the spec, verbatim
    state.json        live status (atomic rewrite per update)
    bus.jsonl         the snapshot-bus archive
    progress.log      the progress reporter's lines
    checkpoints/      ckpt_<blockstep>.npz, newest wins on resume
    final.npz         the completed run's raw particle state
    BENCH_*.json      sweep artifacts
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..core.particles import ParticleSystem
from ..core.softening import constant_softening
from ..io.runlog import write_json_atomic
from ..schema import check
from ..models import (
    cold_sphere,
    king_model,
    kuiper_belt_model,
    plummer_model,
    uniform_sphere,
)

#: Bump on breaking spec-layout changes.
JOB_SCHEMA = "repro.job/1"
#: Bump on breaking state-layout changes.
STATE_SCHEMA = "repro.job_state/1"

JOB_KINDS = ("run", "sweep", "calibrate")

#: Job lifecycle states.  ``interrupted`` always implies a usable
#: checkpoint exists (SIGTERM, wall/step budget); ``failed`` does not.
STATUSES = (
    "queued", "running", "interrupted", "completed", "failed",
)

#: Model name -> sampler.  Every sampler takes (n, seed, **extra).
MODELS: dict[str, Callable[..., ParticleSystem]] = {
    "plummer": plummer_model,
    "king": king_model,
    "uniform": uniform_sphere,
    "cold": cold_sphere,
    "kuiper": kuiper_belt_model,
}


class JobError(ValueError):
    """Raised for malformed job specs and job directories."""


@dataclass
class JobSpec:
    """Validated in-memory form of one job document."""

    kind: str
    name: str
    params: dict[str, Any] = field(default_factory=dict)
    #: Checkpoint cadence in blocksteps (run jobs).
    checkpoint_every: int = 64
    #: Additional wall-clock checkpoint cadence in seconds (optional).
    checkpoint_every_s: float | None = None
    #: Emit a ``state`` record every this many blocksteps.
    sample_every: int = 16
    #: Budgets: the supervisor checkpoints and exits ``interrupted``
    #: when either is exceeded (cumulative across resume segments for
    #: wall seconds).
    max_wall_s: float | None = None
    max_blocksteps: int | None = None
    #: Free-text provenance, forwarded into sweep artifacts (--notes).
    notes: str | None = None
    #: Execution backend for rank compute (run jobs with a parallel
    #: algorithm, sweep jobs): ``inline`` | ``thread[:N]`` |
    #: ``process[:N]``.  Purely a placement choice — results are
    #: bit-identical across backends, so resume may legally switch it.
    exec_backend: str = "inline"

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "name": self.name,
            "params": dict(self.params),
            "checkpoint_every": self.checkpoint_every,
            "sample_every": self.sample_every,
        }
        for key in ("checkpoint_every_s", "max_wall_s", "max_blocksteps", "notes"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.exec_backend != "inline":
            doc["exec_backend"] = self.exec_backend
        return doc

    @classmethod
    def from_dict(cls, doc: Any, source: str = "job spec") -> "JobSpec":
        check(doc, {"what": "spec", "schema": JOB_SCHEMA}, source, JobError)
        kind = doc.get("kind")
        if kind not in JOB_KINDS:
            raise JobError(
                f"{source}: kind {kind!r} not one of {', '.join(JOB_KINDS)}"
            )
        name = doc.get("name")
        if not isinstance(name, str) or not re.fullmatch(r"[\w.-]{1,64}", name):
            raise JobError(
                f"{source}: 'name' must be 1-64 word characters/dots/dashes"
            )
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise JobError(f"{source}: 'params' must be an object")
        spec = cls(
            kind=kind,
            name=name,
            params=dict(params),
            checkpoint_every=int(doc.get("checkpoint_every", 64)),
            checkpoint_every_s=doc.get("checkpoint_every_s"),
            sample_every=int(doc.get("sample_every", 16)),
            max_wall_s=doc.get("max_wall_s"),
            max_blocksteps=doc.get("max_blocksteps"),
            notes=doc.get("notes"),
            exec_backend=doc.get("exec_backend", "inline"),
        )
        _validate_exec_backend(spec.exec_backend, source)
        if spec.checkpoint_every < 1 or spec.sample_every < 1:
            raise JobError(f"{source}: cadences must be positive")
        for key in ("checkpoint_every_s", "max_wall_s"):
            value = getattr(spec, key)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
                or value <= 0
            ):
                raise JobError(f"{source}: {key!r} must be a positive number")
        if spec.max_blocksteps is not None and (
            isinstance(spec.max_blocksteps, bool)
            or not isinstance(spec.max_blocksteps, int)
            or spec.max_blocksteps < 1
        ):
            raise JobError(f"{source}: 'max_blocksteps' must be a positive int")
        if spec.notes is not None and not isinstance(spec.notes, str):
            raise JobError(f"{source}: 'notes' must be a string")
        if kind == "run":
            _validate_run_params(spec.params, source)
        elif kind == "sweep":
            if not isinstance(spec.params.get("suite", "smoke"), str):
                raise JobError(f"{source}: sweep 'suite' must be a string")
        elif kind == "calibrate":
            arts = spec.params.get("artifacts")
            if not isinstance(arts, list) or not arts:
                raise JobError(
                    f"{source}: calibrate needs a non-empty 'artifacts' list"
                )
        return spec


#: Parallel algorithms a run job may name (hybrid is driven through
#: the bench suites, not the job runner, because its host count is a
#: cluster count).
RUN_ALGORITHMS = ("copy", "ring", "grid2d")


def _validate_exec_backend(spec: str, source: str) -> None:
    """Check an execution-backend spec string (``name`` or ``name:N``)."""
    if not isinstance(spec, str):
        raise JobError(f"{source}: 'exec_backend' must be a string")
    name, _, suffix = spec.partition(":")
    if name not in ("inline", "thread", "process"):
        raise JobError(
            f"{source}: exec_backend {name!r} not one of "
            "inline, thread, process"
        )
    if suffix and (not suffix.isdigit() or int(suffix) < 1):
        raise JobError(
            f"{source}: exec_backend worker count {suffix!r} must be a "
            "positive integer"
        )


def _validate_run_params(params: dict[str, Any], source: str) -> None:
    model = params.get("model", "plummer")
    if model not in MODELS:
        raise JobError(
            f"{source}: model {model!r} not one of {', '.join(sorted(MODELS))}"
        )
    n = params.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise JobError(f"{source}: run 'n' must be an int >= 2")
    t_end = params.get("t_end")
    if isinstance(t_end, bool) or not isinstance(t_end, (int, float)) or t_end <= 0:
        raise JobError(f"{source}: run 't_end' must be a positive number")
    backend = params.get("backend", "direct")
    if backend not in ("direct", "grape"):
        raise JobError(f"{source}: backend {backend!r} not 'direct' or 'grape'")
    mode = params.get("emulation_mode", "batched")
    if mode not in ("batched", "faithful"):
        raise JobError(
            f"{source}: emulation_mode {mode!r} not 'batched' or 'faithful'"
        )
    algorithm = params.get("algorithm")
    if algorithm is None:
        if "ranks" in params:
            raise JobError(
                f"{source}: run 'ranks' needs an 'algorithm' "
                f"({', '.join(RUN_ALGORITHMS)})"
            )
        return
    if algorithm not in RUN_ALGORITHMS:
        raise JobError(
            f"{source}: algorithm {algorithm!r} not one of "
            f"{', '.join(RUN_ALGORITHMS)}"
        )
    if backend != "direct":
        raise JobError(
            f"{source}: parallel algorithms require backend 'direct'"
        )
    ranks = params.get("ranks", 2)
    if isinstance(ranks, bool) or not isinstance(ranks, int) or ranks < 1:
        raise JobError(f"{source}: run 'ranks' must be an int >= 1")
    if algorithm == "grid2d" and int(ranks ** 0.5 + 0.5) ** 2 != ranks:
        raise JobError(
            f"{source}: grid2d needs a square rank count, got {ranks}"
        )
    nic = params.get("nic")
    if nic is not None:
        from ..config import NICS

        if nic not in NICS:
            raise JobError(
                f"{source}: nic {nic!r} not one of {', '.join(sorted(NICS))}"
            )


def load_job(path: str | Path) -> JobSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise JobError(f"{path}: cannot read spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"{path}: not valid JSON: {exc}") from exc
    return JobSpec.from_dict(doc, source=str(path))


# -- the job directory ------------------------------------------------------


@dataclass(frozen=True)
class JobPaths:
    """Resolved paths inside one job directory."""

    root: Path

    @property
    def spec(self) -> Path:
        return self.root / "job.json"

    @property
    def state(self) -> Path:
        return self.root / "state.json"

    @property
    def archive(self) -> Path:
        return self.root / "bus.jsonl"

    @property
    def progress(self) -> Path:
        return self.root / "progress.log"

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def final_snapshot(self) -> Path:
        return self.root / "final.npz"

    def checkpoint_path(self, blockstep: int) -> Path:
        return self.checkpoints / f"ckpt_{blockstep:010d}.npz"

    def latest_checkpoint(self) -> Path | None:
        """Newest checkpoint by blockstep index (file-name order)."""
        if not self.checkpoints.is_dir():
            return None
        found = sorted(self.checkpoints.glob("ckpt_*.npz"))
        return found[-1] if found else None


def write_state(paths: JobPaths, status: str, **fields: Any) -> dict[str, Any]:
    """Atomically rewrite ``state.json`` (temp + rename)."""
    if status not in STATUSES:
        raise JobError(f"unknown status {status!r}")
    state = {
        "schema": STATE_SCHEMA,
        "status": status,
        "updated_unix": time.time(),
        "pid": os.getpid(),
        **fields,
    }
    paths.root.mkdir(parents=True, exist_ok=True)
    write_json_atomic(state, paths.state)
    return state


def read_state(paths: JobPaths) -> dict[str, Any]:
    try:
        state = json.loads(paths.state.read_text())
    except OSError as exc:
        raise JobError(f"{paths.state}: cannot read state: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"{paths.state}: not valid JSON: {exc}") from exc
    return check(state, {"what": "state", "schema": STATE_SCHEMA},
                 str(paths.state), JobError)


# -- workload construction --------------------------------------------------


def build_system(params: dict[str, Any]) -> ParticleSystem:
    """Sample the run job's initial model (seeded, reproducible)."""
    name = params.get("model", "plummer")
    try:
        model = MODELS[name]
    except KeyError:
        raise JobError(
            f"unknown model {name!r} (have {', '.join(sorted(MODELS))})"
        ) from None
    kwargs = dict(params.get("model_args", {}))
    return model(params["n"], seed=params.get("seed", 1), **kwargs)


def resolve_eps2(params: dict[str, Any]) -> float:
    """Softening squared: explicit ``eps`` wins, else the paper's
    constant law (eps = 1/64)."""
    eps = params.get("eps")
    if eps is None:
        eps = constant_softening(int(params["n"]))
    return float(eps) ** 2


def build_backend(params: dict[str, Any]):
    """The force backend the spec asks for (None = direct float64)."""
    if params.get("backend", "direct") != "grape":
        return None
    from ..hardware.system import Grape6Emulator

    return Grape6Emulator(
        resolve_eps2(params),
        boards=int(params.get("boards", 1)),
        emulation_mode=params.get("emulation_mode", "batched"),
    )


def build_parallel(params: dict[str, Any], exec_backend: str = "inline"):
    """The parallel force algorithm a run job asks for, or None.

    Returns a configured algorithm (copy/ring/grid2d over a fresh
    :class:`~repro.parallel.SimNetwork`) whose rank compute runs on
    ``exec_backend``; the caller owns the algorithm's
    ``executor.close()``.  Serial runs (no ``algorithm`` param) return
    None.
    """
    algorithm = params.get("algorithm")
    if algorithm is None:
        return None
    from ..config import NICS, NIC_NS83820
    from ..parallel import (
        CopyAlgorithm,
        Grid2DAlgorithm,
        RingAlgorithm,
        SimNetwork,
    )

    eps2 = resolve_eps2(params)
    nic = NICS[params["nic"]] if params.get("nic") else NIC_NS83820
    network = SimNetwork(int(params.get("ranks", 2)), nic)
    cls = {
        "copy": CopyAlgorithm,
        "ring": RingAlgorithm,
        "grid2d": Grid2DAlgorithm,
    }[algorithm]
    return cls(network, eps2, executor=exec_backend)
