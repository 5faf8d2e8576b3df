"""Engine benchmark harness: the measured perf trajectory of the repo.

Runs a canonical set of operating points through the wormhole engine,
timing the wall clock and reporting two throughput figures per point:

* **cycles/s** — simulated cycles per wall-clock second, the headline
  hot-path metric (how fast the interpreter grinds through simulator
  cycles at this operating point);
* **flit-hops/s** — an estimate of flit-channel traversals simulated per
  wall-clock second (``delivered_flits * avg_hops / wall``), the "useful
  physics" rate.  It is an estimate because per-packet ``length x hops``
  products are not tracked individually; it is computed from the same
  deterministic result either way, so it is comparable run to run.

Every point runs with a fixed seed, so alongside the timing each point
records the run's **fingerprint** — the nine counters the golden
bit-identity tests pin (see ``tests/faults/test_fault_injection.py``).
Comparing a fresh report against a committed one therefore checks two
things at once: that the engine did not get slower, and that it still
computes *exactly* the same simulation (fingerprints are
machine-independent; cycles/s are not).

The canonical points cover the paper's fabrics (8x8 and 16x16 meshes,
the binary 8-cube) below and near saturation, plus the 16x16
near-saturation point with observability collectors on and with a
fault plan + watchdog + retries active — the operating regimes the
event-driven engine optimisations (routing-table precomputation,
arrival calendar, channel-free wakeups) target.

Entry point: ``repro bench`` (CLI and CI), a thin wrapper over
:func:`run_bench`, :func:`compare_reports` (``--check-against``) and
:func:`merge_report` (``--merge-into``).  The committed trajectory
lives in ``BENCH_engine.json`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..routing.registry import make_algorithm
from ..simulation.array_engine import BatchSimulator, make_simulator
from ..simulation.config import SimulationConfig
from .runner import make_pattern, parse_topology_spec

BENCH_SCHEMA = 2
"""Schema 2 added per-backend point labels (``<id>@array``), the
``backend`` spec field, and the ``batch_points`` section recording
batched-sweep points-per-second (docs/PERFORMANCE.md)."""

FINGERPRINT_FIELDS = (
    "generated_packets", "delivered_packets", "delivered_flits",
    "total_latency_cycles", "total_net_latency_cycles", "total_hops",
    "total_misroutes", "max_grant_wait_cycles", "inflight_at_end",
)
"""The nine counters the golden bit-identity tests pin; recorded per
point so perf reports double as cross-machine equivalence checks."""


@dataclass(frozen=True)
class BenchPoint:
    """One benchmarked operating point (fully deterministic)."""

    id: str
    topology: str
    algorithm: str
    pattern: str
    offered_load: float
    warmup_cycles: int
    measure_cycles: int
    seed: int = 0
    quick: bool = False
    """Included in the CI ``--quick`` subset."""

    observability: bool = False
    """Switch on all three metrics collectors for this point."""

    fault_links: int = 0
    """Fail this many links (seeded) mid-run, with the per-packet
    watchdog and retries active — exercises the fault-hook hot path."""

    drain_cycles: int = 0

    backend: str = "event"
    """Engine backend (``SimulationConfig.backend``) this point runs
    on.  Per-backend points carry distinct ids (``<id>@array``) so each
    backend accumulates its own trajectory in the committed report."""

    def config(self) -> SimulationConfig:
        kwargs: Dict[str, object] = dict(
            offered_load=self.offered_load,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seed=self.seed,
            drain_cycles=self.drain_cycles,
            backend=self.backend,
        )
        if self.fault_links:
            topology = parse_topology_spec(self.topology)
            kwargs["fault_plan"] = FaultPlan.random_links(
                topology, self.fault_links, seed=self.seed + 1,
                start=self.warmup_cycles // 2,
            )
            kwargs["packet_timeout"] = 800
            kwargs["max_retries"] = 2
        config = SimulationConfig(**kwargs)  # type: ignore[arg-type]
        if self.observability:
            config = config.with_observability()
        return config

    def spec_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "pattern": self.pattern,
            "offered_load": self.offered_load,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seed": self.seed,
            "observability": self.observability,
            "fault_links": self.fault_links,
            "drain_cycles": self.drain_cycles,
            "backend": self.backend,
        }


# The canonical trajectory points.  Ids are stable across PRs: reports
# are compared point-id by point-id, so renaming one orphans its
# history.  Loads: the "low" points sit comfortably inside the
# sustainable region; the "sat" points sit at/above saturation, where
# most headers are blocked and the arbitration hot path dominates.
CANONICAL_POINTS: Tuple[BenchPoint, ...] = (
    BenchPoint(
        id="mesh8-uniform-low", topology="mesh:8x8", algorithm="west-first",
        pattern="uniform", offered_load=0.6, warmup_cycles=500,
        measure_cycles=2_500, seed=3, quick=True,
    ),
    BenchPoint(
        id="mesh8-uniform-sat", topology="mesh:8x8", algorithm="west-first",
        pattern="uniform", offered_load=1.5, warmup_cycles=500,
        measure_cycles=2_500, seed=3, quick=True,
    ),
    BenchPoint(
        id="mesh16-uniform-low", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=0.5,
        warmup_cycles=1_000, measure_cycles=4_000, seed=7,
    ),
    BenchPoint(
        id="mesh16-uniform-sat", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        warmup_cycles=1_000, measure_cycles=4_000, seed=7,
    ),
    BenchPoint(
        id="mesh16-sat-quick", topology="mesh:16x16", algorithm="west-first",
        pattern="uniform", offered_load=2.0, warmup_cycles=300,
        measure_cycles=1_200, seed=7, quick=True,
    ),
    BenchPoint(
        id="cube8-uniform-low", topology="cube:8", algorithm="p-cube",
        pattern="uniform", offered_load=1.0, warmup_cycles=400,
        measure_cycles=1_600, seed=5,
    ),
    BenchPoint(
        id="cube8-uniform-sat", topology="cube:8", algorithm="p-cube",
        pattern="uniform", offered_load=3.0, warmup_cycles=400,
        measure_cycles=1_600, seed=5,
    ),
    BenchPoint(
        id="mesh16-sat-observability", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        warmup_cycles=500, measure_cycles=2_000, seed=7,
        observability=True,
    ),
    BenchPoint(
        id="mesh16-sat-faults", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        warmup_cycles=500, measure_cycles=2_000, seed=7,
        fault_links=4, drain_cycles=500,
    ),
)


def bench_points(
    quick: bool = False, backend: str = "event"
) -> List[BenchPoint]:
    """The canonical point list (the ``--quick`` CI subset when asked).

    ``backend="array"`` returns the same operating points re-labelled
    ``<id>@array`` and pinned to the array engine, so the committed
    report keeps one trajectory per backend.  (Since the envelope
    widening, the observability, fault, and multi-VC points run on the
    vectorized kernels too — only the legacy random/zigzag selection
    policies, trace sinks, and over-cap LUTs still exercise the
    cycle-locked scalar fallback.)
    """
    points = [p for p in CANONICAL_POINTS if p.quick] if quick else list(
        CANONICAL_POINTS
    )
    if backend != "event":
        points = [
            replace(p, id=f"{p.id}@{backend}", backend=backend)
            for p in points
        ]
    return points


@dataclass(frozen=True)
class BatchBenchPoint:
    """One batched-sweep benchmark: ``batch_size`` seeds of a single
    operating point, run as one :class:`BatchSimulator` pass versus
    point-by-point on the event engine.

    The headline metric is **points-per-second** — completed operating
    points per wall-clock second — because batching amortises the
    per-cycle numpy kernel cost across the whole batch; per-point
    cycles/s is meaningless for a shared arena.
    """

    id: str
    topology: str
    algorithm: str
    pattern: str
    offered_load: float
    batch_size: int
    warmup_cycles: int
    measure_cycles: int
    buffer_depth: int = 1
    track_channel_load: bool = False
    base_seed: int = 100
    quick: bool = False
    event_sample: int = 0
    """How many of the batch's points the event-engine reference times
    (0 = all of them).  The quick CI point samples a handful to keep the
    job short; the committed full point times every one."""

    fault_links: int = 0
    """Fail this many links mid-run in every member (each member's plan
    seeded from its own simulation seed, so the batch is a paired fault
    campaign: same trial shape as ``repro faults``)."""

    packet_timeout: int = 0
    max_retries: int = 0
    drain_cycles: int = 0
    selection: str = "xy"
    """Output-selection policy for every member (the congestion-aware
    policies exercise the vectorized occupancy/credit reads)."""

    selection_threshold: int = 2

    virtual_channels: int = 1
    """VC count for every member (multi-VC exercises the runtime-
    channel arena, the per-VC-class LUTs, and the physical-link
    arbitration kernels)."""

    def config(self, seed: int, backend: str) -> SimulationConfig:
        kwargs: Dict[str, object] = dict(
            offered_load=self.offered_load,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seed=seed,
            buffer_depth=self.buffer_depth,
            track_channel_load=self.track_channel_load,
            drain_cycles=self.drain_cycles,
            output_selection=self.selection,
            selection_threshold=self.selection_threshold,
            virtual_channels=self.virtual_channels,
            backend=backend,
        )
        if self.fault_links:
            topology = parse_topology_spec(self.topology)
            kwargs["fault_plan"] = FaultPlan.random_links(
                topology, self.fault_links, seed=seed + 1,
                start=self.warmup_cycles // 2,
            )
            kwargs["packet_timeout"] = self.packet_timeout
            kwargs["max_retries"] = self.max_retries
        elif self.packet_timeout:
            kwargs["packet_timeout"] = self.packet_timeout
            kwargs["max_retries"] = self.max_retries
        return SimulationConfig(**kwargs)  # type: ignore[arg-type]

    def build(self, backend: str) -> List[tuple]:
        """(algorithm, pattern, config) triples for the whole batch —
        one fresh topology/algorithm/pattern per point, exactly as a
        sweep runner would construct them."""
        out = []
        for i in range(self.batch_size):
            topology = parse_topology_spec(self.topology)
            out.append((
                make_algorithm(self.algorithm, topology),
                make_pattern(self.pattern, topology),
                self.config(self.base_seed + i, backend),
            ))
        return out

    def spec_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "pattern": self.pattern,
            "offered_load": self.offered_load,
            "batch_size": self.batch_size,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "buffer_depth": self.buffer_depth,
            "track_channel_load": self.track_channel_load,
            "base_seed": self.base_seed,
            "event_sample": self.event_sample,
            "fault_links": self.fault_links,
            "packet_timeout": self.packet_timeout,
            "max_retries": self.max_retries,
            "drain_cycles": self.drain_cycles,
            "selection": self.selection,
            "selection_threshold": self.selection_threshold,
            "virtual_channels": self.virtual_channels,
        }


# The committed full point is the seed sweep PERFORMANCE.md documents:
# deep buffers (depth 4) near saturation, where the event engine slows
# down (more flits in flight per cycle) while the array engine's
# capacity-doubling kernel gets cheaper — the regime batching targets.
BATCH_POINTS: Tuple[BatchBenchPoint, ...] = (
    BatchBenchPoint(
        id="mesh16-d4-seedsweep", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.4,
        batch_size=320, warmup_cycles=200, measure_cycles=1_000,
        buffer_depth=4, track_channel_load=True,
    ),
    BatchBenchPoint(
        id="mesh8-d4-seedsweep-quick", topology="mesh:8x8",
        algorithm="west-first", pattern="uniform", offered_load=1.5,
        batch_size=48, warmup_cycles=150, measure_cycles=600,
        buffer_depth=4, quick=True, event_sample=12,
    ),
    # The widened-envelope workloads (see docs/PERFORMANCE.md): a paired
    # fault campaign in the PR 2 shape — every member fails seeded links
    # mid-run with the watchdog + bounded retries active — and a
    # credit-steered selection sweep in the PR 6 comparison-grid shape.
    # Both ran 100% on the scalar fallback before the envelope widening.
    BatchBenchPoint(
        id="mesh16-faultsweep", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=1.2,
        batch_size=256, warmup_cycles=500, measure_cycles=2_000,
        fault_links=4, packet_timeout=800, max_retries=2,
        drain_cycles=500, event_sample=16,
    ),
    BatchBenchPoint(
        id="mesh16-mc-selsweep", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        batch_size=160, warmup_cycles=500, measure_cycles=1_500,
        selection="max-credits", event_sample=16,
    ),
    BatchBenchPoint(
        id="mesh8-faultsweep-quick", topology="mesh:8x8",
        algorithm="west-first", pattern="uniform", offered_load=0.5,
        batch_size=48, warmup_cycles=150, measure_cycles=600,
        fault_links=3, packet_timeout=400, max_retries=2,
        drain_cycles=200, quick=True, event_sample=12,
    ),
    # The multi-VC workloads (the paper's torus/hypercube figure
    # shapes): a dateline seed-sweep on the 16x16 wraparound torus
    # (``torus:16x2`` = radix 16, 2 dims) and an escape-VC adaptive
    # mesh sweep.  Both ran 100% on the scalar fallback before the VC
    # envelope widening.
    BatchBenchPoint(
        id="torus16-dateline-seedsweep", topology="torus:16x2",
        algorithm="dateline-dimension-order", pattern="uniform",
        offered_load=1.2, batch_size=192, warmup_cycles=300,
        measure_cycles=1_200, virtual_channels=2, buffer_depth=4,
        event_sample=16,
    ),
    BatchBenchPoint(
        id="mesh16-escape-vc-sweep", topology="mesh:16x16",
        algorithm="escape-vc-adaptive", pattern="uniform",
        offered_load=1.2, batch_size=160, warmup_cycles=300,
        measure_cycles=1_200, virtual_channels=2, buffer_depth=4,
        event_sample=16,
    ),
    BatchBenchPoint(
        id="torus8-dateline-seedsweep-quick", topology="torus:8x2",
        algorithm="dateline-dimension-order", pattern="uniform",
        offered_load=1.2, batch_size=96, warmup_cycles=150,
        measure_cycles=600, virtual_channels=2, buffer_depth=4,
        quick=True, event_sample=12,
    ),
)


def batch_bench_points(quick: bool = False) -> List[BatchBenchPoint]:
    """The canonical batched-sweep points (quick CI subset when asked)."""
    if quick:
        return [p for p in BATCH_POINTS if p.quick]
    return list(BATCH_POINTS)


@dataclass
class PointMeasurement:
    """Timing + equivalence record of one benchmarked point."""

    point: BenchPoint
    wall_s: float
    simulated_cycles: int
    fingerprint: Tuple[int, ...]
    delivered_flits: int
    avg_hops: Optional[float]
    repeats: int = 1
    baseline: Optional[Dict[str, object]] = None

    @property
    def cycles_per_s(self) -> float:
        return self.simulated_cycles / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def flit_hops_per_s(self) -> float:
        if self.wall_s <= 0 or self.avg_hops is None:
            return 0.0
        return self.delivered_flits * self.avg_hops / self.wall_s

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "spec": self.point.spec_dict(),
            "wall_s": round(self.wall_s, 6),
            "repeats": self.repeats,
            "simulated_cycles": self.simulated_cycles,
            "cycles_per_s": round(self.cycles_per_s, 1),
            "flit_hops_per_s": round(self.flit_hops_per_s, 1),
            "fingerprint": list(self.fingerprint),
        }
        if self.baseline is not None:
            out["baseline"] = self.baseline
            base_rate = self.baseline.get("cycles_per_s")
            if isinstance(base_rate, (int, float)) and base_rate > 0:
                out["speedup"] = round(self.cycles_per_s / base_rate, 2)
        return out


def run_point(point: BenchPoint, repeats: int = 1) -> PointMeasurement:
    """Run one point ``repeats`` times; keep the best (minimum) wall.

    Every repeat is the same deterministic simulation — the minimum wall
    time is the least-noisy estimate of the engine's true cost.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    config = point.config()
    best_wall = float("inf")
    result = None
    for _ in range(repeats):
        topology = parse_topology_spec(point.topology)
        sim = make_simulator(
            make_algorithm(point.algorithm, topology),
            make_pattern(point.pattern, topology),
            config,
        )
        started = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - started
        if wall < best_wall:
            best_wall = wall
    assert result is not None
    simulated = (
        result.deadlock_cycle + 1
        if result.deadlock and result.deadlock_cycle is not None
        else config.total_cycles
    )
    return PointMeasurement(
        point=point,
        wall_s=best_wall,
        simulated_cycles=simulated,
        fingerprint=tuple(
            getattr(result, name) for name in FINGERPRINT_FIELDS
        ),
        delivered_flits=result.delivered_flits,
        avg_hops=result.avg_hops,
        repeats=repeats,
    )


@dataclass
class BatchMeasurement:
    """Timing + equivalence record of one batched-sweep point."""

    point: BatchBenchPoint
    batch_wall_s: float
    event_wall_s: float
    event_sampled: int
    fingerprint: Tuple[int, ...]
    bit_identical: bool
    repeats: int = 1

    @property
    def points_per_s(self) -> float:
        if self.batch_wall_s <= 0:
            return 0.0
        return self.point.batch_size / self.batch_wall_s

    @property
    def event_points_per_s(self) -> float:
        if self.event_wall_s <= 0 or self.event_sampled <= 0:
            return 0.0
        return self.event_sampled / self.event_wall_s

    @property
    def speedup(self) -> float:
        event_rate = self.event_points_per_s
        return self.points_per_s / event_rate if event_rate > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.point.spec_dict(),
            "batch_wall_s": round(self.batch_wall_s, 6),
            "event_wall_s": round(self.event_wall_s, 6),
            "repeats": self.repeats,
            "points_per_s": round(self.points_per_s, 2),
            "event_points_per_s": round(self.event_points_per_s, 2),
            "speedup": round(self.speedup, 2),
            "fingerprint": list(self.fingerprint),
            "bit_identical": self.bit_identical,
        }


def run_batch_point(
    point: BatchBenchPoint, repeats: int = 1
) -> BatchMeasurement:
    """Time one batched-sweep point on both backends, interleaved.

    An untimed array pass runs first (paying the one-off LUT build the
    module-level cache amortises across a real campaign), then
    ``max(repeats, 2)`` rounds alternate an event-engine chunk —
    ``event_sample`` of the batch's points (or all of them) split
    across the rounds, one simulator each, exactly as a sequential
    sweep would run them — with a full timed :class:`BatchSimulator`
    pass.  Interleaving means machine-speed drift hits both backends
    alike, so the ratio is stable run to run; the recorded array wall
    is the **median** timed pass and the event wall is the total over
    all chunks.

    The recorded fingerprint is the element-wise sum of the nine golden
    counters over every point's *array* result — machine-independent —
    and ``bit_identical`` confirms the sampled event results matched
    their array counterparts exactly.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    rounds = max(repeats, 2)
    sample = point.event_sample or point.batch_size
    event_points = point.build("event")[:sample]
    chunk = (sample + rounds - 1) // rounds

    batch_results = BatchSimulator(point.build("array")).run()  # untimed

    event_results = []
    event_wall = 0.0
    walls = []
    for r in range(rounds):
        for algorithm, pattern, config in event_points[
            r * chunk : (r + 1) * chunk
        ]:
            sim = make_simulator(algorithm, pattern, config)
            started = time.perf_counter()
            event_results.append(sim.run())
            event_wall += time.perf_counter() - started
        sims = BatchSimulator(point.build("array"))
        started = time.perf_counter()
        batch_results = sims.run()
        walls.append(time.perf_counter() - started)
    walls.sort()
    mid = len(walls) // 2
    median_wall = (
        walls[mid]
        if len(walls) % 2
        else (walls[mid - 1] + walls[mid]) / 2.0
    )

    def _fp(result) -> Tuple[int, ...]:
        return tuple(getattr(result, name) for name in FINGERPRINT_FIELDS)

    fingerprint = tuple(
        sum(vals) for vals in zip(*(_fp(r) for r in batch_results))
    )
    bit_identical = all(
        _fp(e) == _fp(a) for e, a in zip(event_results, batch_results)
    )
    return BatchMeasurement(
        point=point,
        batch_wall_s=median_wall,
        event_wall_s=event_wall,
        event_sampled=sample,
        fingerprint=fingerprint,
        bit_identical=bit_identical,
        repeats=rounds,
    )


@dataclass
class BenchReport:
    """A full benchmark run, serializable to ``BENCH_engine.json``."""

    measurements: List[PointMeasurement] = field(default_factory=list)
    batch_measurements: List[BatchMeasurement] = field(default_factory=list)
    label: str = ""

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema": BENCH_SCHEMA,
            "label": self.label,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "points": {
                m.point.id: m.to_dict() for m in self.measurements
            },
        }
        if self.batch_measurements:
            out["batch_points"] = {
                m.point.id: m.to_dict() for m in self.batch_measurements
            }
        return out

    def render(self) -> str:
        lines = [
            f"{'point':30s} {'cycles/s':>12s} {'flit-hops/s':>13s} "
            f"{'wall':>8s}  speedup"
        ]
        for m in self.measurements:
            speedup = ""
            if m.baseline is not None:
                base_rate = m.baseline.get("cycles_per_s")
                if isinstance(base_rate, (int, float)) and base_rate > 0:
                    speedup = f"{m.cycles_per_s / base_rate:7.2f}x"
            lines.append(
                f"{m.point.id:30s} {m.cycles_per_s:12.0f} "
                f"{m.flit_hops_per_s:13.0f} {m.wall_s:7.3f}s {speedup}"
            )
        if self.batch_measurements:
            lines.append("")
            lines.append(
                f"{'batch point':30s} {'array pts/s':>12s} "
                f"{'event pts/s':>13s} {'wall':>8s}  speedup"
            )
            for bm in self.batch_measurements:
                lines.append(
                    f"{bm.point.id:30s} {bm.points_per_s:12.2f} "
                    f"{bm.event_points_per_s:13.2f} "
                    f"{bm.batch_wall_s:7.3f}s {bm.speedup:7.2f}x"
                )
        return "\n".join(lines)


def run_bench(
    points: Sequence[BenchPoint],
    repeats: int = 1,
    baseline: Optional[Dict[str, object]] = None,
    label: str = "",
    progress=None,
    batch_points: Sequence[BatchBenchPoint] = (),
    batch_progress=None,
) -> BenchReport:
    """Measure every point; fold per-point baseline numbers in when a
    prior report dict (see :func:`load_report`) is supplied.  Any
    ``batch_points`` are timed after the per-point set (they need the
    array backend, hence numpy)."""
    report = BenchReport(label=label)
    base_points = (baseline or {}).get("points", {})
    for point in points:
        measurement = run_point(point, repeats=repeats)
        prior = base_points.get(point.id) if isinstance(base_points, dict) else None
        if isinstance(prior, dict):
            measurement.baseline = {
                "cycles_per_s": prior.get("cycles_per_s"),
                "flit_hops_per_s": prior.get("flit_hops_per_s"),
                "wall_s": prior.get("wall_s"),
                "label": (baseline or {}).get("label", ""),
            }
        report.measurements.append(measurement)
        if progress is not None:
            progress(measurement)
    for batch_point in batch_points:
        batch_measurement = run_batch_point(
            batch_point, repeats=max(repeats, 2)
        )
        report.batch_measurements.append(batch_measurement)
        if batch_progress is not None:
            batch_progress(batch_measurement)
    return report


def load_report(path: str) -> Dict[str, object]:
    """Read a previously-written report (``BENCH_engine.json``)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError(f"{path} is not a bench report (no 'points' key)")
    return data


def write_report(report: BenchReport, path: str) -> None:
    _write_json(report.to_dict(), path)


def merge_report(report: BenchReport, path: str) -> Dict[str, object]:
    """Fold ``report`` into the report file at ``path`` (in place) and
    return the result: its points and batch points replace same-id
    entries and join the rest, which are kept as they are; the run
    metadata (schema, timestamp, python, platform) and a non-empty label
    come from ``report``.  This is how one backend's trajectory is
    re-recorded without re-measuring the other's."""
    merged = load_report(path)
    fresh = report.to_dict()
    merged["points"].update(fresh["points"])
    if fresh.get("batch_points"):
        merged.setdefault("batch_points", {}).update(fresh["batch_points"])
    for key in ("schema", "generated_at", "python", "platform"):
        merged[key] = fresh[key]
    if report.label:
        merged["label"] = report.label
    _write_json(merged, path)
    return merged


def _write_json(data: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def compare_reports(
    current: BenchReport,
    committed: Dict[str, object],
    fail_threshold: float = 0.30,
) -> List[str]:
    """CI regression gate: problems comparing a fresh run against the
    committed trajectory.

    Two checks per shared point id:

    * **fingerprint** — must match exactly (machine-independent; a
      mismatch means the engine changed the simulation, not just its
      speed);
    * **cycles/s** — must not fall more than ``fail_threshold`` below
      the committed number (machine-dependent; the threshold absorbs
      runner variance).

    Returns a list of human-readable problems (empty = pass).
    """
    problems: List[str] = []
    committed_points = committed.get("points", {})
    if not isinstance(committed_points, dict):
        return [f"committed report has malformed 'points': {committed_points!r}"]
    for m in current.measurements:
        prior = committed_points.get(m.point.id)
        if not isinstance(prior, dict):
            continue  # new point: no history yet
        expected = prior.get("fingerprint")
        if expected is not None and list(m.fingerprint) != list(expected):
            problems.append(
                f"{m.point.id}: fingerprint changed "
                f"{list(expected)} -> {list(m.fingerprint)} "
                f"(the engine no longer computes the same simulation)"
            )
        base_rate = prior.get("cycles_per_s")
        if isinstance(base_rate, (int, float)) and base_rate > 0:
            floor = (1.0 - fail_threshold) * base_rate
            if m.cycles_per_s < floor:
                problems.append(
                    f"{m.point.id}: cycles/s regressed "
                    f"{base_rate:.0f} -> {m.cycles_per_s:.0f} "
                    f"(> {fail_threshold:.0%} below the committed baseline)"
                )
    committed_batch = committed.get("batch_points", {})
    if not isinstance(committed_batch, dict):
        return problems + [
            f"committed report has malformed 'batch_points': "
            f"{committed_batch!r}"
        ]
    for bm in current.batch_measurements:
        if not bm.bit_identical:
            problems.append(
                f"{bm.point.id}: sampled event-engine results no longer "
                f"match the array batch bit-for-bit"
            )
        prior = committed_batch.get(bm.point.id)
        if not isinstance(prior, dict):
            continue  # new batch point: no history yet
        expected = prior.get("fingerprint")
        if expected is not None and list(bm.fingerprint) != list(expected):
            problems.append(
                f"{bm.point.id}: batch fingerprint changed "
                f"{list(expected)} -> {list(bm.fingerprint)} "
                f"(the engine no longer computes the same simulations)"
            )
        base_rate = prior.get("points_per_s")
        if isinstance(base_rate, (int, float)) and base_rate > 0:
            floor = (1.0 - fail_threshold) * base_rate
            if bm.points_per_s < floor:
                problems.append(
                    f"{bm.point.id}: batched points/s regressed "
                    f"{base_rate:.2f} -> {bm.points_per_s:.2f} "
                    f"(> {fail_threshold:.0%} below the committed baseline)"
                )
    return problems
