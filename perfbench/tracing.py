"""Hooks the benchmark installs on public ``repro`` names, in its own
campaign process, before the workload runs.

Two levels:

* :func:`install_first_run_marker` (every campaign process): when an
  engine ``run()`` first begins in a process, write the monotonic time to
  ``<marker_dir>/<pid>.json``.  ``run.py`` takes the earliest marker as
  the end of set-up.  Supervised workers are forked from the campaign
  process, so they inherit the hook and write their own marker.
* :func:`install_tracer` (traced runs only): spans around the calls into
  each layer, kept as in-memory aggregates (count, total, self time) plus
  a list of the coarse spans.  Forked workers detect the pid change,
  start a fresh tracer state and dump it to ``<trace_dir>/<pid>.json``
  after each engine run; the campaign process merges those files.

Nothing here edits program code: every hook wraps a public class method
and calls the original.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis import CampaignJournal, ParallelSweepRunner, ResultCache, SupervisedPool
from repro.observability import PhaseProfiler
from repro.observability.profiler import ENGINE_PHASES
from repro.routing.table import RoutingTable
from repro.simulation import BatchSimulator, WormholeSimulator
from repro.simulation.array_engine import demotion_reasons

ENGINE_SPANS = ("event.ctor", "event.run", "array.ctor", "array.run")
EPSILON_S = 1e-9
CHECKS = {
    "nesting": "child spans never sum past their parent span",
    "phases": "event phases fit within each event.run",
    "routing": "routing-table fills happen inside an engine span",
}


def _write_json(path: Path, payload) -> None:
    """Write ``payload`` atomically (a killed writer leaves no torn
    file)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def install_first_run_marker(marker_dir: Path) -> None:
    marked = {"pid": None}

    def mark() -> None:
        pid = os.getpid()
        if marked["pid"] != pid:
            marked["pid"] = pid
            _write_json(marker_dir / f"{pid}.json", {"t": time.monotonic()})

    for cls in (WormholeSimulator, BatchSimulator):
        original = cls.run

        def run(self, _original=original):
            mark()
            return _original(self)

        cls.run = run


def flit_hops(result) -> float:
    """Flit-channel traversals of one result: delivered flits times the
    mean hop count (the same estimate ``BENCH_engine.json`` uses)."""
    if not result.delivered_packets:
        return 0.0
    return result.delivered_flits * result.total_hops / result.delivered_packets


def _current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """Span aggregates and work counters for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[list] = []  # [name, start, child seconds]
        self.totals: Dict[str, List[float]] = {}  # name -> [count, total, self]
        self.spans: List[dict] = []
        self.violations: Dict[str, List[str]] = {kind: [] for kind in CHECKS}
        self.phases: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def enter(self, name: str) -> None:
        if self.pid != os.getpid():
            # A forked worker inherits the parent's open spans; its own
            # spans are roots of a fresh state.
            self.reset()
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self, keep: bool = True) -> float:
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        if child > duration + EPSILON_S:
            self.violations["nesting"].append(
                f"children of {name} sum to {child:.6f}s > span {duration:.6f}s"
            )
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if keep:
            self.spans.append(
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent[0] if parent is not None else None,
                    "pid": self.pid,
                }
            )
        return duration

    def parent_name(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    def state(self) -> dict:
        return {
            "pid": self.pid,
            "totals": self.totals,
            "spans": self.spans,
            "violations": self.violations,
            "phases": self.phases,
            "counters": self.counters,
        }

    def merge(self, other: dict) -> None:
        for name, (count, total, self_s) in other["totals"].items():
            agg = self.totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += count
            agg[1] += total
            agg[2] += self_s
        self.spans.extend(other["spans"])
        for kind, messages in other["violations"].items():
            self.violations[kind].extend(messages)
        for phase, seconds in other["phases"].items():
            self.phases[phase] = self.phases.get(phase, 0.0) + seconds
        for name, amount in other["counters"].items():
            self.count(name, amount)


class _CountingAlgorithm:
    """Stands in for the algorithm a :class:`RoutingTable` memoises: each
    call that reaches it is a table miss (one row built), timed as a
    ``routing.table`` span.  Everything else delegates."""

    def __init__(self, algorithm, current: Callable[[], Tracer]) -> None:
        self._algorithm = algorithm
        self._current = current

    def __getattr__(self, name):
        return getattr(self._algorithm, name)

    def _timed(self, method, *args):
        tracer = self._current()
        if tracer.parent_name() not in ENGINE_SPANS:
            tracer.violations["routing"].append(
                f"routing table filled outside an engine span "
                f"(parent {tracer.parent_name()})"
            )
        tracer.enter("routing.table")
        try:
            return method(*args)
        finally:
            tracer.exit(keep=False)

    def candidates(self, *args):
        return self._timed(self._algorithm.candidates, *args)

    def escape_candidates(self, *args):
        return self._timed(self._algorithm.escape_candidates, *args)

    def vc_candidates(self, *args):
        return self._timed(self._algorithm.vc_candidates, *args)

    def vc_escape_candidates(self, *args):
        return self._timed(self._algorithm.vc_escape_candidates, *args)


def _wrap(cls, attr: str, span: str, current: Callable[[], Tracer], after=None) -> None:
    """Time ``cls.attr`` as ``span`` on the current tracer; ``after(tracer,
    result)`` runs outside the timed region."""
    original = getattr(cls, attr)

    def wrapper(self, *args, **kwargs):
        tracer = current()
        tracer.enter(span)
        try:
            result = original(self, *args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, result)
        return result

    setattr(cls, attr, wrapper)


def install_tracer(tracer_ref: dict, trace_dir: Path) -> None:
    """Install every traced hook.  ``tracer_ref["tracer"]`` is the live
    :class:`Tracer`; the caller may swap it (the warm pass gets its own)."""

    def tracer() -> Tracer:
        return tracer_ref["tracer"]

    def dump_if_worker(t: Tracer) -> None:
        if t.pid != tracer_ref["root_pid"] and not t.stack:
            _write_json(trace_dir / f"{t.pid}.json", t.state())

    # -- routing tables: count and time every row built ----------------------
    table_init = RoutingTable.__init__

    def init_table(self, algorithm):
        table_init(self, _CountingAlgorithm(algorithm, tracer))

    RoutingTable.__init__ = init_table

    # -- event engine: a PhaseProfiler per simulator -------------------------
    profilers: Dict[int, PhaseProfiler] = {}
    event_init = WormholeSimulator.__init__

    def init_event(self, algorithm, pattern, config, sink=None, profiler=None, **kw):
        if profiler is None:
            profiler = PhaseProfiler()
        profilers[id(self)] = profiler
        t = tracer()
        t.enter("event.ctor")
        try:
            event_init(self, algorithm, pattern, config, sink=sink, profiler=profiler, **kw)
        finally:
            t.exit()
        t.count("event.member_cycles", config.total_cycles)

    WormholeSimulator.__init__ = init_event
    event_run = WormholeSimulator.run

    def run_event(self):
        t = tracer()
        t.enter("event.run")
        try:
            result = event_run(self)
        finally:
            seconds = t.exit()
        profiler = profilers.pop(id(self), None)
        if profiler is not None:
            if profiler.total_seconds > seconds + EPSILON_S:
                t.violations["phases"].append(
                    f"event phases sum to {profiler.total_seconds:.6f}s > "
                    f"run() {seconds:.6f}s"
                )
            for phase in ENGINE_PHASES:
                if phase in profiler.seconds:
                    t.phases[phase] = t.phases.get(phase, 0.0) + (
                        profiler.exclusive_seconds(phase)
                    )
        t.count("event.flit_hops", flit_hops(result))
        dump_if_worker(t)
        return result

    WormholeSimulator.run = run_event

    # -- array engine --------------------------------------------------------
    batch_init = BatchSimulator.__init__
    batch_cycles: Dict[int, int] = {}

    def init_batch(self, points):
        points = list(points)
        t = tracer()
        t.enter("array.ctor")
        rss = _current_rss_bytes()
        try:
            batch_init(self, points)
        finally:
            grown = _current_rss_bytes() - rss
            t.exit()
        t.count("array.ctor_bytes", grown)
        t.count("array.points", len(points))
        t.count(
            "array.vectorized_points",
            sum(1 for _, _, config in points if not demotion_reasons(config)),
        )
        batch_cycles[id(self)] = sum(config.total_cycles for _, _, config in points)

    BatchSimulator.__init__ = init_batch
    batch_run = BatchSimulator.run

    def run_batch(self):
        t = tracer()
        t.enter("array.run")
        try:
            results = batch_run(self)
        finally:
            t.exit()
        t.count("array.member_cycles", batch_cycles.pop(id(self), 0))
        t.count("array.flit_hops", sum(flit_hops(r) for r in results))
        dump_if_worker(t)
        return results

    BatchSimulator.run = run_batch

    # -- runner, cache, supervision ------------------------------------------
    def after_put(t: Tracer, path) -> None:
        t.count("runner.cache_put_bytes", Path(path).stat().st_size)

    _wrap(ParallelSweepRunner, "run_batch", "runner.run_batch", tracer)
    _wrap(ResultCache, "get", "runner.cache_get", tracer)
    _wrap(ResultCache, "put", "runner.cache_put", tracer, after_put)
    _wrap(SupervisedPool, "run", "supervision.pool", tracer)
    _wrap(CampaignJournal, "record_point", "supervision.journal", tracer)
    _wrap(CampaignJournal, "record_failure", "supervision.journal", tracer)
