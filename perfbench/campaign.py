"""One workload campaign in a fresh process (started by ``run.py``).

    python3 perfbench/campaign.py --workload NAME --seed N \\
        --workdir DIR --out FILE [--backend event|array] [--trace]

Runs the campaign against a cold result cache under ``DIR``, then writes
``FILE``: the simulation seed the benchmark seed maps to, the
spec-ordered result digest, the missing-result count, and the exact work
counters.  With ``--trace`` it also installs the span hooks, re-runs the
points against the filled cache (the warm pass), and adds the per-layer
metrics and span checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis import CampaignJournal, ResultCache

from tracing import (
    CHECKS,
    ENGINE_SPANS,
    Tracer,
    flit_hops,
    install_first_run_marker,
    install_tracer,
)
from workloads import WORKLOADS


def result_digest(results) -> str:
    """sha256 of the spec-ordered ``SimulationResult.to_dict()`` list (a
    missing result hashes as ``null``, so it never matches)."""
    payload = [None if r is None else r.to_dict() for r in results]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def journal_records(path: Path) -> list:
    if not path.exists():
        return []
    return [
        record
        for record in CampaignJournal.read(path)
        if record.get("kind") in ("point", "failure")
    ]


def work_counters(results, runner, workdir: Path) -> dict:
    done = [r for r in results if r is not None]
    return {
        "points": len(results),
        "points_simulated": runner.stats.executed,
        "delivered_flits": sum(r.delivered_flits for r in done),
        "flit_hops": round(sum(flit_hops(r) for r in done)),
        "cache_puts": len(ResultCache(workdir / "cache")),
        "journal_records": len(journal_records(workdir / "journal.jsonl")),
    }


def _total(tracer: Tracer, name: str) -> float:
    return tracer.totals.get(name, [0, 0.0, 0.0])[1]


def _count(tracer: Tracer, name: str) -> int:
    return int(tracer.totals.get(name, [0, 0.0, 0.0])[0])


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def span_checks(tracer: Tracer) -> list:
    """The consistency checks over the merged cold-pass trace, as
    ``(description, passed, first violation or "")``."""
    return [
        (description, not tracer.violations[kind], "; ".join(tracer.violations[kind][:1]))
        for kind, description in CHECKS.items()
    ]


def layer_metrics(cold: Tracer, warm: Tracer, journal: list, workers: int) -> dict:
    counters = cold.counters
    metrics = {}
    for phase, seconds in sorted(cold.phases.items()):
        metrics[f"event.{phase}_s"] = seconds
    event_run = _total(cold, "event.run")
    metrics["event.ns_per_flit_hop"] = _ratio(
        event_run, counters.get("event.flit_hops", 0), 1e9
    )
    array_run = _total(cold, "array.run")
    metrics["array.ctor_s"] = _total(cold, "array.ctor")
    metrics["array.ctor_mb"] = counters.get("array.ctor_bytes", 0) / 2**20
    metrics["array.run_s"] = array_run
    metrics["array.us_per_member_cycle"] = _ratio(
        array_run, counters.get("array.member_cycles", 0), 1e6
    )
    metrics["array.ns_per_flit_hop"] = _ratio(
        array_run, counters.get("array.flit_hops", 0), 1e9
    )
    metrics["array.vectorized_frac"] = _ratio(
        counters.get("array.vectorized_points", 0), counters.get("array.points", 0)
    )
    durations = [r["duration"] for r in journal if r.get("kind") == "point" and not r.get("cached")]
    metrics["array.worker_s_per_point"] = _ratio(sum(durations), len(durations))
    misses = _count(cold, "routing.table")
    metrics["routing.table_misses"] = misses
    metrics["routing.table_s"] = _total(cold, "routing.table")
    metrics["routing.table_us_per_miss"] = _ratio(
        metrics["routing.table_s"], misses, 1e6
    )
    puts = _count(cold, "runner.cache_put")
    metrics["runner.cache_put_ms"] = _ratio(_total(cold, "runner.cache_put"), puts, 1e3)
    metrics["runner.cache_put_kb"] = _ratio(
        counters.get("runner.cache_put_bytes", 0), puts, 1 / 1024
    )
    metrics["runner.cache_get_ms"] = _ratio(
        _total(warm, "runner.cache_get"), _count(warm, "runner.cache_get"), 1e3
    )
    metrics["runner.self_s"] = cold.totals.get("runner.run_batch", [0, 0.0, 0.0])[2]
    pool = _total(cold, "supervision.pool")
    metrics["supervision.pool_s"] = pool
    metrics["supervision.worker_busy_frac"] = _ratio(sum(durations), workers * pool)
    metrics["supervision.journal_ms"] = _ratio(
        _total(cold, "supervision.journal"), _count(cold, "supervision.journal"), 1e3
    )
    metrics["supervision.journal_records"] = len(journal)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--backend", choices=("event", "array"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    sim_seed = workload.sim_seed(args.seed)
    backend = args.backend or workload.backend
    workdir = args.workdir
    for sub in ("markers", "trace"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    install_first_run_marker(workdir / "markers")
    tracer_ref = {"tracer": Tracer(), "root_pid": os.getpid()}
    if args.trace:
        install_tracer(tracer_ref, workdir / "trace")

    cold = tracer_ref["tracer"]
    runner = workload.make_runner(workdir)
    cold.enter("campaign")
    try:
        results = workload.run(sim_seed, backend, runner)
    finally:
        cold.exit()
        runner.close()
    out = {
        "sim_seed": sim_seed,
        "digest": result_digest(results),
        "points": len(results),
        "missing": sum(1 for r in results if r is None),
        "counters": work_counters(results, runner, workdir),
    }

    if args.trace:
        for path in sorted((workdir / "trace").glob("*.json")):
            cold.merge(json.loads(path.read_text()))
        out["counters"]["member_cycles"] = int(
            cold.counters.get("event.member_cycles", 0)
            + cold.counters.get("array.member_cycles", 0)
        )
        out["counters"]["table_misses"] = _count(cold, "routing.table")
        checks = span_checks(cold)

        # Warm pass: the same points against the filled cache.
        warm = tracer_ref["tracer"] = Tracer()
        started = time.perf_counter()
        warm_runner = workload.make_runner(workdir, "journal-warm.jsonl")
        try:
            warm_results = workload.run(sim_seed, backend, warm_runner)
        finally:
            warm_runner.close()
        out["warm_s"] = time.perf_counter() - started
        engine_calls = sum(_count(warm, name) for name in ENGINE_SPANS)
        checks.append(
            (
                "warm pass: every point a cache hit, none simulated",
                warm_runner.stats.cached == len(results)
                and warm_runner.stats.executed == 0
                and engine_calls == 0
                and result_digest(warm_results) == out["digest"],
                f"{warm_runner.stats.cached} hits, "
                f"{warm_runner.stats.executed} simulated",
            )
        )
        out["checks"] = checks
        out["layers"] = layer_metrics(
            cold,
            warm,
            journal_records(workdir / "journal.jsonl"),
            runner.jobs,
        )
        out["spans"] = {
            name: {"count": int(c), "total_s": total, "self_s": self_s}
            for name, (c, total, self_s) in sorted(cold.totals.items())
        }
        out["span_records"] = cold.spans

    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
