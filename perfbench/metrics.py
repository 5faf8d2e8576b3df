"""The metric catalogue: name, unit, direction, and which end-to-end
metric on which workload each is expected to move.

``BENCHMARK.json`` carries the same names, units and directions, plus the
end-to-end bounds (its schema has no room for the ``moves`` notes);
``run.py`` refuses to run when the two disagree.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "wall_s", "s", "lower",
        "every workload: what the user waits for, process start to exit; "
        "each layer below lands here on the workloads that exercise it",
    ),
    Metric(
        "setup_s", "s", "lower",
        "every workload: process start to the first engine run() (imports, "
        "spec building, simulator/batch construction, worker spawn on "
        "faults-supervised); work moved out of run() shows here",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "every workload: max ru_maxrss of the campaign process and its "
        "workers; the dense cube:8 LUTs set it on fig-array",
    ),
)

_EVENT = "wall_s on fig-event; nothing elsewhere"
_ARRAY = "wall_s, setup_s and peak_rss_mb on fig-array and vc-sweep"

PER_LAYER: Tuple[Metric, ...] = (
    # repro.simulation.engine — PhaseProfiler via make_simulator(profiler=)
    Metric("event.faults_s", "s", "lower", _EVENT),
    Metric("event.retries_s", "s", "lower", _EVENT),
    Metric("event.generate_s", "s", "lower", _EVENT),
    Metric("event.inject_s", "s", "lower", _EVENT),
    Metric("event.route_s", "s", "lower", _EVENT),
    Metric("event.allocate_s", "s", "lower", _EVENT + " (self time, net of route)"),
    Metric("event.advance_s", "s", "lower", _EVENT),
    Metric("event.watchdog_s", "s", "lower", _EVENT),
    Metric("event.collect_s", "s", "lower", _EVENT),
    Metric("event.ns_per_flit_hop", "ns", "lower", _EVENT),
    # repro.simulation.array_engine
    Metric("array.ctor_s", "s", "lower", _ARRAY + "; setup_s first"),
    Metric("array.ctor_mb", "MB", "lower", _ARRAY + "; peak_rss_mb first"),
    Metric("array.run_s", "s", "lower", _ARRAY),
    Metric("array.us_per_member_cycle", "us", "lower", _ARRAY),
    Metric("array.ns_per_flit_hop", "ns", "lower", _ARRAY),
    Metric("array.vectorized_frac", "fraction", "higher", _ARRAY),
    Metric(
        "array.worker_s_per_point", "s", "lower",
        "wall_s on faults-supervised (journal per-point durations)",
    ),
    # repro.routing.table
    Metric(
        "routing.table_misses", "count", "lower",
        "wall_s on fig-array and vc-sweep (large), fig-event (one table per "
        "run), faults-supervised (small)",
    ),
    Metric("routing.table_s", "s", "lower", "as routing.table_misses"),
    Metric("routing.table_us_per_miss", "us", "lower", "as routing.table_misses"),
    # repro.analysis.runner
    Metric("runner.cache_put_ms", "ms", "lower", "wall_s, mostly on faults-supervised"),
    Metric("runner.cache_put_kb", "KiB", "lower", "wall_s, mostly on faults-supervised"),
    Metric(
        "runner.cache_get_ms", "ms", "lower",
        "wall_s of warm re-runs (warm pass of the traced run), every workload",
    ),
    Metric("runner.self_s", "s", "lower", "wall_s, mostly on faults-supervised"),
    # repro.analysis.supervision
    Metric("supervision.pool_s", "s", "lower", "wall_s on faults-supervised only"),
    Metric(
        "supervision.worker_busy_frac", "fraction", "higher",
        "wall_s on faults-supervised only",
    ),
    Metric("supervision.journal_ms", "ms", "lower", "wall_s on faults-supervised only"),
    Metric(
        "supervision.journal_records", "count", "lower",
        "wall_s on faults-supervised only",
    ),
    # the benchmark's own tracing
    Metric(
        "trace.overhead_s", "s", "lower",
        "nothing user-visible: traced wall_s (warm pass excluded) minus "
        "untraced wall_s of the same workload and seed",
    ),
)
