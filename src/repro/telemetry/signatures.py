"""Per-blockstep phase signatures and regime clustering (the phase
observatory).

The paper's headline numbers (§5, figs. 13-19) are *sustained* over
week-long runs whose blockstep mix drifts through a small set of
recurring regimes: core-collapse phases with tiny active blocks,
quiescent stretches where whole power-of-two rungs fire together,
startup transients where every particle steps at once.  Measuring the
sustained claims today means running the full workload; the phase
observatory instead captures a cheap **signature vector per
blockstep** — the LoopPoint idea (basic-block vectors per region,
clustered, sampled) transplanted from instruction streams to blockstep
streams:

* :class:`PhaseSignature` — one blockstep's fingerprint: block size,
  active fraction, a power-of-two block-size bucket, per-phase
  T_host/T_pipe/T_comm/T_barrier self-time *shares*, and the
  emulator's j-memory load/elision counters;
* :class:`SignatureRecorder` — cuts one signature per
  :class:`~repro.telemetry.phases.BlockstepRecord` the span fold hands
  it (O(1) memory, no retained event list);
* :class:`StreamingKMeans` / :class:`RegimeTracker` — deterministic
  online clustering of the signature stream into **regimes** with
  hold-window regime-change detection;
* :func:`regime_trace_events` — the regime lane for the Chrome-trace
  timeline, one rectangle per contiguous regime run.

Signatures split into a *schedule* part (active fraction + block-size
bucket) that is bit-identical across force backends and across
checkpoint/resume — the block schedule is deterministic, property-
pinned in ``tests/property`` — and a *timing* part (phase shares,
j-memory counters) that fingerprints where the wall time went.  The
sampled-run estimator (:mod:`repro.bench.sampling`) clusters on the
full vector but assigns *projected* blocksteps by the schedule part
alone, which is all a dry-run of the scheduler can know.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, truediv
from typing import Any, Callable

import numpy as np

from ..schema import Column, Section, check, list_of, number, opt
from .phases import JMEM, PHASES, T_PIPE, BlockstepRecord, SpanFold
from .timeline import TRACE_PIDS, trace_event, trace_lane
from .tracer import SpanEvent

#: Bump on breaking signature-record/artifact layout changes.
SIGNATURE_SCHEMA = "repro.phase_signature/1"

#: Power-of-two block-size buckets in the signature vector.  Bucket i
#: holds block sizes in [2^i, 2^(i+1)); the last bucket absorbs
#: everything larger, so paper-scale N (2M -> bucket 21) stays in
#: range.  An empty block (degenerate) lights no bucket at all.
N_BUCKETS = 24

#: Length of :meth:`PhaseSignature.vector`: active fraction, the
#: block-size buckets, one share per phase, the elision fraction.
VECTOR_LENGTH = 1 + N_BUCKETS + len(PHASES) + 1

#: Where the first phase's share sits in the vector (the rest follow
#: in :data:`PHASES` order), and where a blockstep record's self-time
#: keys land in that order (j-memory loads are ``T_pipe`` time).
_SHARE_0 = 1 + N_BUCKETS
_SHARE_END = _SHARE_0 + len(PHASES)
_PHASE_SLOT = {**{p: i for i, p in enumerate(PHASES)},
               JMEM: PHASES.index(T_PIPE)}

#: Trace process id for the regime lane, from the central pid registry
#: (:data:`repro.telemetry.timeline.TRACE_PIDS`) so it can never
#: collide with the clock-domain, comm-ledger or efficiency lanes.
REGIME_PID = TRACE_PIDS["regimes"]


class SignatureError(ValueError):
    """Raised for malformed signature records and artifacts."""


# -- the signature ----------------------------------------------------------


def _active_fraction(block_size: int, n: int) -> float:
    if n <= 0 or block_size <= 0:
        return 0.0
    return block_size / n


def _log2_bucket(block_size: int) -> int:
    if block_size <= 0:
        return -1
    return min(block_size.bit_length() - 1, N_BUCKETS - 1)


def _elision_fraction(loads: int, elided: int) -> float:
    total = loads + elided
    return elided / total if total > 0 else 0.0


def _phase_shares(record: BlockstepRecord) -> list[float]:
    """A blockstep record's wall-clock phase shares in :data:`PHASES`
    order: ``normalise_shares(record.phase_us())`` taken in one pass."""
    slots = record.wall_slots
    if slots is not None:
        # the fold's sums of clamped self-times: nothing to clamp
        host, pipe, comm, barrier, other, jmem = slots
        us = [host, pipe + jmem, comm, barrier, other]
    else:
        us = [0.0] * len(PHASES)
        for key, pair in record.self_us.items():
            if key in _PHASE_SLOT:
                us[_PHASE_SLOT[key]] += pair[0]
        for i, phase_us in enumerate(us):
            if phase_us < 0.0:
                us[i] = 0.0
    total = sum(us)
    if total <= 0.0:
        return [0.0] * len(PHASES)
    return list(map(truediv, us, repeat(total)))


def _write_vector(v: np.ndarray, active: float, block_size: int,
                  shares: list[float], elision: float) -> None:
    """A signature's clustering vector written over ``v`` (``shares``
    in :data:`PHASES` order): zeroed, then the few entries that are
    not."""
    v.fill(0.0)
    v[0] = active
    bucket = _log2_bucket(block_size)
    if bucket >= 0:
        v[1 + bucket] = 1.0
    for slot, share in enumerate(shares, _SHARE_0):
        if share:
            v[slot] = share
    if elision:
        v[-1] = elision


@dataclass(frozen=True)
class PhaseSignature:
    """One blockstep's phase-signature vector (see module docstring).

    ``shares`` always maps every phase in
    :data:`repro.telemetry.PHASES` to a share in [0, 1]; the shares sum
    to 1 when the blockstep had any attributed self-time and are all
    exactly 0.0 for degenerate (zero-duration) blocksteps — never NaN.
    """

    blockstep: int
    t: float | None
    n: int
    block_size: int
    wall_us: float
    shares: dict[str, float]
    jmem_loads: int = 0
    jmem_elided: int = 0
    t_start_us: float = 0.0

    @property
    def active_fraction(self) -> float:
        """Fraction of particles in the block; 0.0 (never NaN) for
        empty blocks or unknown N."""
        return _active_fraction(self.block_size, self.n)

    @property
    def log2_bucket(self) -> int:
        """Floor log2 of the block size, clamped to the vector's bucket
        range; -1 for an empty block (no bucket lights up)."""
        return _log2_bucket(self.block_size)

    @property
    def elision_fraction(self) -> float:
        """Share of j-memory loads elided by the fingerprint cache."""
        return _elision_fraction(self.jmem_loads, self.jmem_elided)

    # -- vectors ------------------------------------------------------------

    def schedule_vector(self) -> np.ndarray:
        """The backend-independent part: ``[active_fraction,
        one-hot block-size bucket]`` (length ``1 + N_BUCKETS``).

        Bit-identical across direct/batched/faithful backends and
        across checkpoint/resume, because the block schedule itself is
        (property-pinned).
        """
        return self.vector()[: 1 + N_BUCKETS]

    def vector(self) -> np.ndarray:
        """The full clustering vector: schedule part + per-phase
        self-time shares + j-memory elision fraction."""
        v = np.empty(VECTOR_LENGTH, dtype=np.float64)
        _write_vector(v, self.active_fraction, self.block_size,
                      self._ordered_shares(), self.elision_fraction)
        return v

    def _ordered_shares(self) -> list[float]:
        """:attr:`shares` in :data:`PHASES` order (0.0 where absent)."""
        return [self.shares.get(p, 0.0) for p in PHASES]

    # -- records ------------------------------------------------------------

    def as_record(self) -> dict[str, Any]:
        """Flat schema-tagged dict (bus records, JSONL, artifacts)."""
        rec: dict[str, Any] = {
            "schema": SIGNATURE_SCHEMA,
            "blockstep": self.blockstep,
            "n": self.n,
            "block_size": self.block_size,
            "active_fraction": self.active_fraction,
            "wall_us": self.wall_us,
            "shares": {p: self.shares.get(p, 0.0) for p in PHASES},
            "jmem_loads": self.jmem_loads,
            "jmem_elided": self.jmem_elided,
        }
        if self.t is not None:
            rec["t"] = self.t
        return rec

    @classmethod
    def from_blockstep(cls, record: BlockstepRecord) -> "PhaseSignature":
        """The signature of one blockstep: a pure projection of the
        fold's record (wall-clock phase shares, which are
        ``normalise_shares(record.phase_us())`` taken in one pass)."""
        return cls(
            record.index, record.t, record.n, record.n_block, record.wall_us,
            dict(zip(PHASES, _phase_shares(record))), record.jmem_loads,
            record.jmem_elided, record.t_start_us,
        )

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "PhaseSignature":
        check(rec, {"what": "record", "schema": SIGNATURE_SCHEMA},
              "signature", SignatureError)
        return cls(
            blockstep=int(rec["blockstep"]),
            t=None if rec.get("t") is None else float(rec["t"]),
            n=int(rec["n"]),
            block_size=int(rec["block_size"]),
            wall_us=float(rec["wall_us"]),
            shares={p: float(rec.get("shares", {}).get(p, 0.0)) for p in PHASES},
            jmem_loads=int(rec.get("jmem_loads", 0)),
            jmem_elided=int(rec.get("jmem_elided", 0)),
        )


def normalise_shares(totals_us: dict[str, float]) -> dict[str, float]:
    """Per-phase self-times -> shares over :data:`PHASES`.

    Degenerate inputs (no attributed time at all, e.g. an empty
    blockstep with zero-duration spans) renormalise to all-zero shares
    rather than NaN; negative noise clamps to zero before
    normalisation.
    """
    clamped = {p: max(float(totals_us.get(p, 0.0)), 0.0) for p in PHASES}
    total = sum(clamped.values())
    if total <= 0.0:
        return {p: 0.0 for p in PHASES}
    return {p: us / total for p, us in clamped.items()}


# -- streaming capture ------------------------------------------------------


class SignatureRecorder:
    """Cuts one :class:`PhaseSignature` per blockstep.

    A consumer of the span fold (:class:`~repro.telemetry.phases.SpanFold`):
    every closing ``blockstep`` span reaches it as one
    :class:`~repro.telemetry.phases.BlockstepRecord` whose subtree
    self-times *are* the blockstep's exact phase attribution.  Given to
    a fold with other consumers it shares that fold's single pass; used
    directly as a tracer sink it owns a private one.  Memory is O(tree
    depth), so it is safe on week-long runs; spans outside any blockstep
    (startup force evaluation, benchmark scaffolding) never reach a
    signature.

    Parameters
    ----------
    callback:
        Optional ``f(signature)`` invoked at each cut (the service
        supervisor's bus hook, a regime tracker, ...).
    keep:
        Retain cut signatures in :attr:`signatures` (default).  Turn
        off for unbounded runs where a callback consumes the stream.
    """

    def __init__(
        self,
        callback: Callable[[PhaseSignature], None] | None = None,
        keep: bool = True,
    ) -> None:
        self._callback = callback
        self._keep = bool(keep)
        self.signatures: list[PhaseSignature] = []
        self.count = 0
        self.latest: PhaseSignature | None = None
        self.fold = SpanFold([self])

    def emit(self, event: SpanEvent) -> None:
        self.fold.emit(event)

    @property
    def span_step(self) -> Callable[..., None]:
        """The fold's step: a tracer hands it each span's fields."""
        return self.fold.span_step

    def on_blockstep(self, record: BlockstepRecord) -> None:
        sig = PhaseSignature.from_blockstep(record)
        self.count += 1
        self.latest = sig
        if self._keep:
            self.signatures.append(sig)
        if self._callback is not None:
            self._callback(sig)


# -- streaming k-means ------------------------------------------------------


class StreamingKMeans:
    """Deterministic online k-means over signature vectors.

    MacQueen's sequential update: each vector joins its nearest
    centroid (which then moves by ``1/count`` of the residual), unless
    it is farther than ``spawn_distance`` from every centroid and the
    cluster budget ``k_max`` is not exhausted, in which case it seeds a
    new cluster.  No RNG, no epochs — the same stream always produces
    the same regimes, which is what makes signature clustering
    reproducible across runs and machines.
    """

    def __init__(self, k_max: int = 8, spawn_distance: float = 0.6) -> None:
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        self.k_max = int(k_max)
        self.spawn_distance = float(spawn_distance)
        self.counts: list[int] = []
        # the centroids are the first k rows of one (k_max, d) array,
        # made when the first vector says what d is, beside the buffers
        # a learning step writes into
        self._rows: np.ndarray | None = None
        self._buffers: tuple[np.ndarray, ...] = ()
        self._row_views: list[tuple[np.ndarray, ...]] = []
        # (centroids, residuals, their squares, squared distances): the
        # first k rows of each, taken again only when k grows
        self._live: tuple[np.ndarray, ...] = ()

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def centroids(self) -> list[np.ndarray]:
        """The centroids in discovery order (views of the model's rows)."""
        return [] if self._rows is None else list(self._rows[: self.k])

    def _checked(self, v: np.ndarray) -> np.ndarray:
        """``v`` as a float64 vector of the model's length."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
        if self._rows is not None and v.size != self._rows.shape[1]:
            raise ValueError(
                f"vector has length {v.size}, the model's centroids "
                f"have length {self._rows.shape[1]}")
        return v

    def _nearest(self, rows: np.ndarray, v: np.ndarray) -> tuple[int, float]:
        # one expression for every centroid; argmin keeps the first of
        # equal distances, as a strict < scan does
        diff = rows - v
        diff *= diff
        d2 = np.add.reduce(diff, axis=1)  # what .sum(axis=1) calls
        best = int(d2.argmin())
        return best, math.sqrt(d2[best])

    def nearest(
        self, v: np.ndarray, features: slice | None = None
    ) -> tuple[int, float]:
        """Index and distance of the closest centroid.

        ``features`` restricts the distance to a feature subspace —
        the sampled-run estimator assigns *projected* blocksteps using
        only the schedule-visible features.  Raises on an empty model
        and on a vector of another length than the model's.
        """
        if self._rows is None:
            raise ValueError("no clusters yet")
        v = self._checked(v)
        rows = self._rows[: self.k]
        if features is not None:
            rows, v = rows[:, features], v[features]
        return self._nearest(rows, v)

    def update(self, v: np.ndarray) -> int:
        """Assign ``v`` to a (possibly new) cluster and learn; returns
        the cluster index."""
        return self._learn(self._checked(v))

    def _learn(self, v: np.ndarray) -> int:
        """:meth:`update` of a vector known to be a float64 vector of
        the model's length (the regime tracker's own buffer).  The
        arithmetic of :meth:`_nearest` and of ``row += (v - row) /
        count``, each step written into a buffer; ``v - row`` is the
        negated residual, so the row takes ``residual / count`` off."""
        counts = self.counts
        k = len(counts)
        if k:
            rows, diff, sq, d2 = self._live
            np.subtract(rows, v, out=diff)
            np.multiply(diff, diff, out=sq)
            np.add.reduce(sq, axis=1, out=d2)
            idx = int(d2.argmin())
            if not (math.sqrt(d2[idx]) > self.spawn_distance
                    and k < self.k_max):
                counts[idx] += 1
                row, residual, step = self._row_views[idx]
                np.divide(residual, counts[idx], out=step)
                np.subtract(row, step, out=row)
                return idx
        else:
            shape = (self.k_max, v.size)
            self._rows = np.zeros(shape, dtype=np.float64)
            self._buffers = (np.empty(shape), np.empty(shape),
                             np.empty(self.k_max))
            step = np.empty(v.size)
            # per centroid: (its row, its residual, the step buffer)
            self._row_views = [(row, residual, step) for row, residual in
                               zip(self._rows, self._buffers[0])]
        self._rows[k] = v
        counts.append(1)
        k += 1
        self._live = (self._rows[:k], *(b[:k] for b in self._buffers))
        return k - 1


# -- regime tracking --------------------------------------------------------


@dataclass(frozen=True)
class RegimeChange:
    """One detected regime transition."""

    blockstep: int
    t: float | None
    from_regime: int | None
    to_regime: int


@dataclass
class _RegimeRun:
    """One contiguous stretch of blocksteps in the same regime."""

    regime: int
    start_blockstep: int
    count: int = 0
    t_start_us: float = 0.0
    t_end_us: float = 0.0


@dataclass(slots=True)
class _RegimeAccount:
    """Running sums over the blocksteps one regime was given."""

    count: int = 0
    wall_us: float = 0.0
    block: float = 0.0
    active: float = 0.0
    #: Share sums in :data:`PHASES` order.
    shares: list[float] = field(
        default_factory=lambda: [0.0] * len(PHASES))
    jmem_loads: int = 0
    jmem_elided: int = 0


class RegimeTracker:
    """Clusters a signature stream into regimes, online.

    Fed either :class:`PhaseSignature`\\ s (:meth:`update`) or, as a
    consumer of a :class:`~repro.telemetry.phases.SpanFold`, the fold's
    :class:`~repro.telemetry.phases.BlockstepRecord`\\ s
    (:meth:`on_blockstep`, which builds no signature); both feed one
    learning step and say the same thing of the same blocksteps.

    Wraps :class:`StreamingKMeans` with a hold window: a raw
    reassignment only becomes a *regime change* after ``hold``
    consecutive blocksteps agree, so single-blockstep excursions (one
    odd barrier, one cold cache) do not shred the regime lane.  Keeps
    run-length-compressed assignments (O(number of changes) memory),
    per-regime accumulators for the summary, and the change list.
    """

    def __init__(
        self,
        k_max: int = 8,
        spawn_distance: float = 0.6,
        hold: int = 3,
    ) -> None:
        self.kmeans = StreamingKMeans(k_max=k_max, spawn_distance=spawn_distance)
        self.hold = max(int(hold), 1)
        self.current: int | None = None
        self.changes: list[RegimeChange] = []
        self.runs: list[_RegimeRun] = []
        self.count = 0
        self._pending: int | None = None
        self._pending_count = 0
        self._acc: dict[int, _RegimeAccount] = {}
        # every signature's vector is written here and learnt from; only
        # the entries that change are rewritten, so the tracker remembers
        # which block-size bucket the buffer has lit (-1: none) and the
        # elision fraction it holds
        self._buffer = np.zeros(VECTOR_LENGTH, dtype=np.float64)
        self._lit = -1
        self._elision = 0.0

    def update(self, sig: PhaseSignature) -> int:
        """Feed one signature; returns the (smoothed) current regime."""
        return self._learn(
            sig.blockstep, sig.t, sig.t_start_us, sig.wall_us, sig.n,
            sig.block_size, sig._ordered_shares(), sig.jmem_loads,
            sig.jmem_elided)

    def on_blockstep(self, record: BlockstepRecord) -> int:
        """Feed the fold's record of one blockstep; returns the
        (smoothed) current regime."""
        return self._learn(
            record.index, record.t, record.t_start_us, record.wall_us,
            record.n, record.n_block, _phase_shares(record),
            record.jmem_loads, record.jmem_elided)

    def _learn(self, blockstep: int, t: float | None, t_start_us: float,
               wall_us: float, n: int, block_size: int, shares: list[float],
               jmem_loads: int, jmem_elided: int) -> int:
        """The one learning step: vector, k-means, account, hold."""
        # what _write_vector writes, over the previous blockstep's vector
        v = self._buffer
        v[0] = active = _active_fraction(block_size, n)
        bucket = _log2_bucket(block_size)
        if bucket != self._lit:
            if self._lit >= 0:
                v[1 + self._lit] = 0.0
            if bucket >= 0:
                v[1 + bucket] = 1.0
            self._lit = bucket
        v[_SHARE_0:_SHARE_END] = shares
        elision = _elision_fraction(jmem_loads, jmem_elided)
        if elision != self._elision:
            v[-1] = self._elision = elision
        raw = self.kmeans._learn(v)
        acc = self._acc.get(raw)
        if acc is None:
            acc = self._acc[raw] = _RegimeAccount()
        acc.count += 1
        acc.wall_us += wall_us
        acc.block += block_size
        acc.active += active
        acc.shares = list(map(add, acc.shares, shares))
        acc.jmem_loads += jmem_loads
        acc.jmem_elided += jmem_elided

        t_end_us = t_start_us + wall_us
        if self.current is None:
            self._switch(raw, blockstep, t, t_start_us, t_end_us)
        elif raw == self.current:
            self._pending = None
            self._pending_count = 0
        elif raw == self._pending:
            self._pending_count += 1
            if self._pending_count >= self.hold:
                self._switch(raw, blockstep, t, t_start_us, t_end_us)
        else:
            self._pending = raw
            self._pending_count = 1
            if self.hold <= 1:
                self._switch(raw, blockstep, t, t_start_us, t_end_us)

        run = self.runs[-1]
        run.count += 1
        run.t_end_us = t_end_us
        self.count += 1
        return self.current  # type: ignore[return-value]

    def _switch(self, regime: int, blockstep: int, t: float | None,
                t_start_us: float, t_end_us: float) -> None:
        if self.current is not None:
            self.changes.append(RegimeChange(
                blockstep=blockstep, t=t,
                from_regime=self.current, to_regime=regime))
        self.current = regime
        self._pending = None
        self._pending_count = 0
        self.runs.append(_RegimeRun(
            regime=regime, start_blockstep=blockstep,
            t_start_us=t_start_us, t_end_us=t_end_us))

    # -- views --------------------------------------------------------------

    @property
    def n_regimes(self) -> int:
        return self.kmeans.k

    def dominant_regime(self) -> tuple[int | None, float]:
        """(regime id, share of blocksteps) of the most common regime."""
        if not self._acc or self.count == 0:
            return None, 0.0
        regime, most = None, 0
        for candidate, acc in self._acc.items():  # the first of equals
            if acc.count > most:
                regime, most = candidate, acc.count
        return regime, most / self.count

    def lane(self, max_runs: int = 24) -> str:
        """Compact run-length regime sequence, e.g. ``0x41 1x7 0x12``
        (newest runs kept when truncating)."""
        runs = self.runs[-max_runs:]
        prefix = "... " if len(self.runs) > max_runs else ""
        return prefix + " ".join(f"{r.regime}x{r.count}" for r in runs)

    def summary(self) -> dict[str, Any]:
        """Schema-tagged regime summary for artifacts and bus records."""
        dominant, share = self.dominant_regime()
        regimes = []
        # an account exists only once a blockstep has been counted in it,
        # so no count below is zero
        for regime in sorted(self._acc):
            acc = self._acc[regime]
            c = acc.count
            regimes.append(
                {
                    "regime": regime,
                    "count": c,
                    "share": c / self.count,
                    "mean_block_size": acc.block / c,
                    "mean_active_fraction": acc.active / c,
                    "mean_wall_us": acc.wall_us / c,
                    "shares": dict(zip(PHASES,
                                       map(truediv, acc.shares, repeat(c)))),
                    "jmem_loads": acc.jmem_loads,
                    "jmem_elided": acc.jmem_elided,
                }
            )
        return {
            "schema": SIGNATURE_SCHEMA,
            "kind": "summary",
            "count": self.count,
            "n_regimes": self.n_regimes,
            "current_regime": self.current,
            "dominant_regime": dominant,
            "dominant_share": share,
            "changes": len(self.changes),
            "lane": self.lane(),
            "regimes": regimes,
        }


#: A :meth:`RegimeTracker.summary` document.
SIGNATURE_SUMMARY_SPEC = {
    "what": "summary",
    "schema": SIGNATURE_SCHEMA,
    "fields": {
        "regimes": list_of({"fields": {
            "regime": None,
            "count": None,
            "share": opt(number(0.0, 1.0)),
        }}),
    },
}


def validate_signature_summary(obj: Any, source: str = "signatures") -> dict:
    """Structural check of a :meth:`RegimeTracker.summary` document."""
    return check(obj, SIGNATURE_SUMMARY_SPEC, source, SignatureError)


#: Headline columns of a :meth:`RegimeTracker.summary` document.
SIGNATURE_HEADLINE = Section(
    "signatures", kind="signature",
    status=(" regime={regime} ({n_regimes} seen, dominant"
            " {dominant_regime} at {dominant_share})"),
    report=("regimes: {n_regimes} over {blocksteps} blocksteps, "
            "{changes} change(s); lane {lane}"),
    columns=(
        Column("regime", read=("current_regime",), state=True),
        Column("n_regimes", state=True),
        Column("dominant_regime", state=True),
        Column("dominant_share", "{:.0%}", state=True),
        Column("blocksteps", read=("count",)),
        Column("changes"),
        Column("lane", state="regime_lane"),
    ),
)


# -- timeline lane ----------------------------------------------------------


def regime_trace_events(tracker: RegimeTracker) -> list[dict[str, Any]]:
    """The regime lane: one complete ("X") event per contiguous regime
    run, in the wall-clock time base of the span timeline, under its
    own trace process so Perfetto renders it as a separate lane."""
    return trace_lane(REGIME_PID, "blockstep regimes", [
        trace_event(
            f"regime {run.regime}", "regime",
            run.t_start_us, run.t_end_us - run.t_start_us, REGIME_PID, 1,
            {
                "regime": run.regime,
                "blocksteps": run.count,
                "start_blockstep": run.start_blockstep,
            },
        )
        for run in tracker.runs
    ])


# -- convenience ------------------------------------------------------------


def schedule_signature(
    blockstep: int, block_size: int, n: int, t: float | None = None
) -> PhaseSignature:
    """A timing-free signature for a *projected* blockstep (dry-run
    schedules know sizes, not durations)."""
    return PhaseSignature(
        blockstep=blockstep,
        t=t,
        n=n,
        block_size=int(block_size),
        wall_us=0.0,
        shares={p: 0.0 for p in PHASES},
    )


#: Feature subspace of :meth:`PhaseSignature.vector` that a dry-run
#: schedule can reproduce (active fraction + block-size bucket).
SCHEDULE_FEATURES = slice(0, 1 + N_BUCKETS)
