"""The four campaign workloads, built only from public ``repro`` entry
points.

Each workload is a closed-loop batch campaign of fixed size: one
:class:`~repro.analysis.ParallelSweepRunner` works through every point
before the process exits.  ``run(seed, backend, runner)`` returns the
results in spec order (the order the campaign builds its point specs).

The campaigns keep the point counts, topologies, algorithms, loads and
batch shapes of ``repro figure``/``repro faults``/the VC sweeps, but run
shorter simulation windows (about 8 s per campaign instead of 15-30 s on
a 2-core host): a benchmark run then holds several cold campaigns and
reports their median, which single ~20 s campaigns on a shared host are
too noisy to stand in for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List

from repro import SimulationConfig, make_algorithm
from repro.analysis import (
    FAST,
    FIGURE_HARNESSES,
    ParallelSweepRunner,
    ResultCache,
    campaign_config,
    make_pattern,
    parse_topology_spec,
    run_fault_campaign,
    run_sweep,
)

FIGURES = ("fig13", "fig15")
WARMUP_CYCLES = 500
MEASURE_CYCLES = 1_500

FAULT_TOPOLOGY = "mesh:16x16"
FAULT_ALGORITHMS = ("xy", "west-first", "north-last", "negative-first")
FAULT_COUNTS = (1, 2, 4, 8)
FAULT_TRIALS = 16
FAULT_JOBS = 2
FAULT_POINT_TIMEOUT_S = 60.0
FAULT_WARMUP_CYCLES = 200
FAULT_MEASURE_CYCLES = 1_000
FAULT_DRAIN_CYCLES = 800

VC_SWEEPS = (
    ("torus:16x2", "dateline-dimension-order"),
    ("mesh:16x16", "escape-vc-adaptive"),
)
VC_LOADS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def run_figures(seed: int, backend: str, runner: ParallelSweepRunner) -> List:
    """Figures 13 and 15 on the ``FAST`` loads: 32 points."""
    preset = replace(
        FAST,
        warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
        seed=seed,
        backend=backend,
    )
    results = []
    for name in FIGURES:
        for series in FIGURE_HARNESSES[name](preset, runner=runner):
            results.extend(series.results)
    return results


def run_faults(seed: int, backend: str, runner: ParallelSweepRunner) -> List:
    """The ``repro faults`` default grid at 16 trials (256 points), with
    ``--selection max-credits`` and the CLI's watchdog, retry and backoff
    defaults."""
    config = campaign_config(
        warmup_cycles=FAULT_WARMUP_CYCLES,
        measure_cycles=FAULT_MEASURE_CYCLES,
        drain_cycles=FAULT_DRAIN_CYCLES,
        seed=seed,
        retry_backoff_base=32,
        retry_backoff_cap=2_048,
        deadlock_threshold=5_000,
        output_selection="max-credits",
        selection_threshold=2,
        backend=backend,
    )
    campaign = run_fault_campaign(
        topology=FAULT_TOPOLOGY,
        algorithms=FAULT_ALGORITHMS,
        fault_counts=FAULT_COUNTS,
        trials=FAULT_TRIALS,
        base_config=config,
        runner=runner,
    )
    return [
        campaign.cell(algorithm, count).results[trial]
        for count in FAULT_COUNTS
        for trial in range(FAULT_TRIALS)
        for algorithm in FAULT_ALGORITHMS
    ]


def run_vc(seed: int, backend: str, runner: ParallelSweepRunner) -> List:
    """Two 2-VC load sweeps, 8 loads each."""
    results = []
    for topology_spec, algorithm_name in VC_SWEEPS:
        topology = parse_topology_spec(topology_spec)
        config = SimulationConfig(
            warmup_cycles=WARMUP_CYCLES,
            measure_cycles=MEASURE_CYCLES,
            seed=seed,
            virtual_channels=2,
            backend=backend,
        )
        series = run_sweep(
            make_algorithm(algorithm_name, topology),
            make_pattern("uniform", topology),
            VC_LOADS,
            config,
            runner=runner,
        )
        results.extend(series.results)
    return results


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, str, ParallelSweepRunner], List]
    backend: str
    base_seed: int
    """The preset/CLI default simulation seed (benchmark seed 0)."""
    digest_group: str
    """Workloads in one group run the same points, so share a digest."""
    supervised: bool = False

    def sim_seed(self, seed: int) -> int:
        """Map a benchmark seed onto one of the recorded simulation
        seeds (``expected.json`` holds their digests)."""
        return self.base_seed + seed % RECORDED_SEEDS

    def make_runner(
        self, workdir: Path, journal_name: str = "journal.jsonl"
    ) -> ParallelSweepRunner:
        cache = ResultCache(workdir / "cache")
        if not self.supervised:
            return ParallelSweepRunner(jobs=1, cache=cache)
        return ParallelSweepRunner(
            jobs=FAULT_JOBS,
            cache=cache,
            point_timeout=FAULT_POINT_TIMEOUT_S,
            keep_going=True,
            journal=workdir / journal_name,
        )


RECORDED_SEEDS = 5

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig-event", run_figures, "event", FAST.seed, "fig"),
        Workload("fig-array", run_figures, "array", FAST.seed, "fig"),
        Workload("faults-supervised", run_faults, "array", 1, "faults", supervised=True),
        Workload("vc-sweep", run_vc, "array", 0, "vc"),
    )
}
