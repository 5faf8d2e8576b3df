"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list`` — available algorithms, patterns, figures, and selection
  policies;
* ``verify`` — CDG deadlock check + connectivity for an algorithm;
* ``turns`` — render a named prohibition set (Figures 3/5a/9a/10a);
* ``simulate`` — one operating point (algorithm, pattern, load);
* ``sweep`` — a latency/throughput curve over several loads;
* ``figure`` — regenerate one of the paper's figures (13-16);
* ``faults`` — a seeded fault-injection campaign: delivery ratio, drops
  by cause, and retries vs. the number of failed links, per algorithm
  (see docs/FAULTS.md);
* ``trace`` — run one operating point with flit-level observability on:
  JSONL event trace, text/JSON summary (latency percentiles, stall-prone
  routers, hottest channels), and per-direction channel-utilization
  heatmaps (see docs/OBSERVABILITY.md);
* ``selection`` — compare output-selection policies (xy, round-robin,
  max-credits, threshold, random, zigzag) across algorithms, patterns,
  and a shared fault plan, with saturation/latency deltas vs the xy
  baseline (see docs/SELECTION.md);
* ``saturation`` — batched bisection searches for the maximum
  sustainable load of each (algorithm x pattern) pair;
* ``bench`` — time the engine on the canonical operating points, gate
  against (``--check-against``) or update (``--merge-into``) the
  committed perf trajectory ``BENCH_engine.json`` (docs/PERFORMANCE.md).

Simulation knobs come from one table, :data:`KNOBS`, mapping each
exposed ``SimulationConfig`` field to its flag (``--vc`` is
``virtual_channels``).  A simulation command names a base config and
the fields it exposes; flag defaults are the base's values, and
:func:`_config` applies the flags to the base.

``sweep``, ``figure``, ``faults``, ``selection``, and ``saturation``
route through the parallel experiment runner: ``--jobs N`` fans the
operating points over N supervised worker processes and
``--cache``/``--no-cache``/``--cache-dir``/``--force`` control the
on-disk result cache (results are bit-identical either way; see
docs/PERFORMANCE.md).  The supervision knobs — ``--point-timeout``,
``--max-point-retries``, ``--keep-going``/``--fail-fast``,
``--journal``, ``--resume`` — make long campaigns survive worker
crashes, hangs, and interruptions (docs/RESILIENCE.md).

Topology specs: ``mesh:16x16`` (any ``AxBxC...``), ``cube:8`` (binary
n-cube), ``torus:8x2`` (k-ary n-cube, k then n).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .analysis import (
    FAST,
    FIGURE_HARNESSES,
    FULL,
    find_saturation_many,
    format_figure,
    format_saturation_points,
)
from .analysis.bench import (
    batch_bench_points,
    bench_points,
    compare_reports,
    load_report,
    merge_report,
    run_bench,
    write_report,
)
from .analysis.faultsweep import (
    DEFAULT_ALGORITHMS,
    DEFAULT_FAULT_COUNTS,
    campaign_config,
    run_fault_campaign,
)
from .analysis.selection import (
    DEFAULT_COMPARE_ALGORITHMS,
    DEFAULT_COMPARE_LOADS,
    DEFAULT_COMPARE_PATTERNS,
    DEFAULT_POLICIES,
    comparison_config,
    run_selection_comparison,
)
from .analysis.runner import (
    PATTERN_NAMES,
    ParallelSweepRunner,
    ResultCache,
    make_pattern as _make_pattern,
    parse_topology_spec,
)
from .analysis.sweep import run_sweep
from .core.turn_model import TurnModel
from .observability import (
    EVENT_KINDS,
    FilteringSink,
    JsonlTraceSink,
    PhaseProfiler,
    read_trace,
    summarize_trace,
    trace_header,
)
from .routing.registry import algorithm_names, make_algorithm
from .routing.selection import selection_policy_names
from .simulation.array_engine import make_simulator
from .simulation.config import BACKENDS, SimulationConfig
from .topology.base import Topology
from .topology.mesh import Mesh2D
from .verification import check_connectivity, verify_algorithm
from .viz import hottest_channels, render_turn_set, render_utilization_heatmaps

TURN_MODELS = {
    "xy": TurnModel.xy,
    "west-first": TurnModel.west_first,
    "north-last": TurnModel.north_last,
    "negative-first": TurnModel.negative_first,
}


def parse_topology(spec: str) -> Topology:
    """Parse ``mesh:16x16`` / ``cube:8`` / ``torus:8x2`` specs."""
    try:
        return parse_topology_spec(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def make_pattern(name: str, topology: Topology):
    try:
        return _make_pattern(name, topology)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _checked(convert: Callable[[str], float], noun: str, rule: str, ok):
    """An argparse type: ``convert(text)``, rejected unless ``ok(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


_positive_int = _checked(int, "an integer", "a positive integer", lambda v: v > 0)
_non_negative_int = _checked(int, "an integer", "an integer >= 0", lambda v: v >= 0)
_positive_float = _checked(float, "a number", "a positive number", lambda v: v > 0)
_non_negative_float = _checked(float, "a number", "a number >= 0", lambda v: v >= 0)


def _csv(item: Callable[[str], object] = str):
    """An argparse type: a non-empty comma-separated list of ``item``."""

    def parse(text: str) -> list:
        values = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values

    return parse


class Knob(NamedTuple):
    """One :class:`SimulationConfig` field exposed as a flag."""

    flag: str
    type: Optional[Callable[[str], object]] = None
    help: str = ""
    choices: Optional[Sequence[str]] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


KNOBS: Dict[str, Knob] = {
    "offered_load": Knob("--load", float, "offered load (flits/us/node)"),
    "warmup_cycles": Knob("--warmup", int, "cycles simulated before measuring"),
    "measure_cycles": Knob("--cycles", int, "measured cycles"),
    "drain_cycles": Knob(
        "--drain",
        _non_negative_int,
        "post-measurement cycles to let in-flight packets resolve",
    ),
    "seed": Knob("--seed", int, "simulation seed"),
    "buffer_depth": Knob("--buffer-depth", int, "flit buffers per channel"),
    "virtual_channels": Knob("--vc", int, "virtual channels per link"),
    "deadlock_threshold": Knob(
        "--deadlock-threshold",
        _positive_int,
        "cycles of global silence before declaring deadlock",
    ),
    "packet_timeout": Knob(
        "--packet-timeout",
        _non_negative_int,
        "per-packet stall watchdog in cycles (0 disables)",
    ),
    "max_retries": Knob(
        "--max-retries", _non_negative_int, "source retries after a drop (0 disables)"
    ),
    "retry_backoff_base": Knob(
        "--retry-backoff-base",
        _positive_int,
        "cycles before the first retry (doubles per attempt)",
    ),
    "retry_backoff_cap": Knob(
        "--retry-backoff-cap", _positive_int, "upper bound on the retry backoff delay"
    ),
    "output_selection": Knob(
        "--selection",
        help="output-selection policy among the free legal candidates "
        "(xy is the paper's rule; docs/SELECTION.md)",
        choices=selection_policy_names(),
    ),
    "selection_threshold": Knob(
        "--selection-threshold",
        _non_negative_int,
        "downstream occupancy at which the 'threshold' policy reroutes "
        "(other policies ignore it)",
    ),
    "backend": Knob(
        "--backend", help="engine backend (array requires numpy)", choices=BACKENDS
    ),
}
"""Each exposed :class:`SimulationConfig` field and its flag."""

_WINDOW = ("warmup_cycles", "measure_cycles", "seed")
_POINT = _WINDOW + ("buffer_depth", "virtual_channels")
_WATCHDOG = ("deadlock_threshold", "packet_timeout", "max_retries")
_BACKOFF = ("retry_backoff_base", "retry_backoff_cap")
_SELECTION = ("output_selection", "selection_threshold")
_ENGINE = _WATCHDOG + _BACKOFF + _SELECTION + ("backend",)

TRACE_BASE = SimulationConfig(warmup_cycles=500, measure_cycles=2_000)
"""``repro trace``'s base: short windows, since the trace file grows
with every simulated cycle."""


def _add_knobs(p: argparse.ArgumentParser, base, fields: Sequence[str]) -> None:
    """Expose ``fields`` of ``base`` (a :class:`SimulationConfig` or an
    :class:`~repro.analysis.ExperimentPreset`) as :data:`KNOBS` flags
    defaulting to ``base``'s values; :func:`_config` applies them."""
    for field in fields:
        knob = KNOBS[field]
        p.add_argument(
            knob.flag,
            type=knob.type,
            choices=knob.choices,
            default=getattr(base, field),
            help=f"{knob.help} (default: %(default)s)",
        )
    p.set_defaults(parser=p, config_base=base, config_knobs=tuple(fields))


def _config(args, base=None):
    """The command's config: ``base`` (default: the one its parser was
    built from) with every knob flag that differs from it applied, or
    ``base`` itself when none does.  A value the config rejects is a
    usage error."""
    base = args.config_base if base is None else base
    picked = {field: getattr(args, KNOBS[field].dest) for field in args.config_knobs}
    changed = {f: v for f, v in picked.items() if v != getattr(base, f)}
    if not changed:
        return base
    try:
        return replace(base, **changed)
    except ValueError as exc:
        args.parser.error(str(exc))


def cmd_list(args) -> int:
    print("algorithms :", ", ".join(algorithm_names()))
    print("patterns   :", ", ".join(PATTERN_NAMES))
    print("turn models:", ", ".join(sorted(TURN_MODELS)))
    print("figures    :", ", ".join(sorted(FIGURE_HARNESSES)))
    print("selection  :", ", ".join(selection_policy_names()))
    return 0


def cmd_verify(args) -> int:
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
    verdict = verify_algorithm(algorithm)
    print(
        f"{algorithm.name} on {topology!r}: "
        f"deadlock free = {verdict.deadlock_free} "
        f"({verdict.num_channels} channels, "
        f"{verdict.num_dependencies} dependencies)"
    )
    if verdict.cycle:
        print("witness cycle:")
        for channel in verdict.cycle:
            print(f"  {channel!r}")
    if args.connectivity:
        report = check_connectivity(algorithm)
        print(
            f"connectivity: {report.delivered_pairs}/{report.total_pairs} "
            f"pairs reachable; minimal everywhere: "
            f"{report.minimal_everywhere}"
        )
    return 0 if verdict.deadlock_free else 1


def cmd_turns(args) -> int:
    factory = TURN_MODELS.get(args.model)
    if factory is None:
        raise SystemExit(
            f"unknown turn model {args.model!r}; choose from {sorted(TURN_MODELS)}"
        )
    print(render_turn_set(factory()))
    return 0


def cmd_simulate(args) -> int:
    config = _config(args)
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
    pattern = make_pattern(args.pattern, topology)
    profiler = PhaseProfiler() if args.profile else None
    result = make_simulator(algorithm, pattern, config, profiler=profiler).run()
    print(result.summary())
    if result.avg_hops is not None:
        print(
            f"hops={result.avg_hops:.2f} "
            f"net-latency={result.avg_network_latency_us:.2f}us "
            f"delivered={result.delivered_packets} packets"
        )
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def cmd_trace(args) -> int:
    config = _config(args).with_observability(channel_series_period=args.series_period)
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
    pattern = make_pattern(args.pattern, topology)
    kinds = args.events
    if kinds is not None:
        unknown = sorted(set(kinds) - set(EVENT_KINDS))
        if unknown:
            raise SystemExit(
                f"unknown trace event kinds {unknown}; choose from {list(EVENT_KINDS)}"
            )
    header = trace_header(
        topology=args.topology,
        algorithm=algorithm.name,
        pattern=getattr(pattern, "name", type(pattern).__name__),
        config_hash=config.stable_hash(),
    )
    sink = JsonlTraceSink(args.out, header=header)
    if kinds is not None:
        sink = FilteringSink(sink, kinds)
    profiler = PhaseProfiler() if args.profile else None
    simulator = make_simulator(algorithm, pattern, config, sink=sink, profiler=profiler)
    result = simulator.run()
    sink.close()

    # Summarize by reading the file back: every `repro trace` run also
    # exercises the full emit -> JSONL -> parse round-trip.
    _, events = read_trace(args.out)
    summary = summarize_trace(events)

    util = result.channel_utilization()
    totals = (
        [int(round(u * result.measure_cycles)) for u in util]
        if util is not None
        else None
    )
    heatmap_text = None
    if args.heatmap is not None:
        if not isinstance(topology, Mesh2D):
            raise SystemExit("--heatmap requires a 2D mesh topology (mesh:AxB)")
        if totals is None:
            raise SystemExit(
                "--heatmap needs a non-empty utilization series (the run "
                "aborted before its measurement window?)"
            )
        heatmap_text = render_utilization_heatmaps(
            topology, simulator.channels, totals, result.measure_cycles
        )
        if args.heatmap == "-":
            print(heatmap_text)
        else:
            with open(args.heatmap, "w", encoding="utf-8") as fh:
                fh.write(heatmap_text + "\n")

    if args.json:
        payload = {
            "point": {
                "topology": args.topology,
                "algorithm": algorithm.name,
                "pattern": getattr(pattern, "name", type(pattern).__name__),
                "offered_load": config.offered_load,
                "config_hash": config.stable_hash(),
            },
            "result": result.to_dict(),
            "trace": summary.to_dict(),
            "trace_file": str(args.out),
        }
        if profiler is not None:
            payload["profile"] = profiler.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(result.summary())
    print()
    print(summary.render())
    pct = {f"p{p:g}": result.latency_percentile(p) for p in (50, 90, 99, 100)}
    if pct["p50"] is not None:
        shown = ", ".join(f"{k}={v}" for k, v in pct.items())
        print(f"creation->delivery latency (cycles): {shown}")
    if totals is not None:
        print("hottest channels (flits crossed in the measurement window):")
        for channel, flits in hottest_channels(simulator.channels, totals):
            print(f"  {channel!r}: {flits}")
    print(f"trace written to {args.out} ({summary.total_events} events)")
    if heatmap_text is not None and args.heatmap != "-":
        print(f"heatmaps written to {args.heatmap}")
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def _make_runner(args) -> ParallelSweepRunner:
    """Build the experiment runner the campaign commands route through,
    from the shared ``--jobs``/``--cache*``/``--force`` flags and the
    supervision knobs (docs/RESILIENCE.md)."""
    try:
        return ParallelSweepRunner(
            jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if args.cache else None,
            force=args.force,
            point_timeout=args.point_timeout,
            max_point_retries=args.max_point_retries,
            keep_going=args.keep_going,
            journal=args.journal,
            resume=args.resume,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _print_array_coverage(args, configs, force: bool = False) -> None:
    """For ``--backend array`` runs: print what fraction of the points
    ride the vectorized kernels (and why the rest demoted to the
    scalar-member fallback), so silent fast-path loss is visible."""
    if not force and args.backend != "array":
        return
    if not configs or getattr(args, "json", False):
        return
    from .simulation.array_engine import demotion_reasons

    reasons_per_point = [demotion_reasons(config) for config in configs]
    vectorized = sum(1 for reasons in reasons_per_point if not reasons)
    line = (
        f"[array backend: {vectorized}/{len(configs)} point(s) "
        f"vectorized ({vectorized / len(configs):.0%})"
    )
    if vectorized < len(configs):
        counts: Dict[str, int] = {}
        for reasons in reasons_per_point:
            for reason in reasons:
                counts[reason] = counts.get(reason, 0) + 1
        line += "; demoted by " + ", ".join(
            f"{reason} x{count}" for reason, count in sorted(counts.items())
        )
    print(line + "]")


def _finish_runner(runner: ParallelSweepRunner, args) -> int:
    """Print the runner's stats line and failure manifest; close the
    journal.  Returns the command exit code: 0 clean, 3 when points
    permanently failed under ``--keep-going`` (partial results were
    still printed)."""
    if not getattr(args, "json", False):
        print(f"[{runner.stats.summary()}]")
    if runner.failures:
        print(f"{len(runner.failures)} point(s) permanently failed:", file=sys.stderr)
        for failure in runner.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        manifest = args.failure_manifest
        if manifest:
            with open(manifest, "w", encoding="utf-8") as fh:
                for failure in runner.failures:
                    record = json.dumps(failure.to_dict(), sort_keys=True, default=str)
                    fh.write(record + "\n")
            print(f"failure manifest written to {manifest}", file=sys.stderr)
        runner.close()
        return 3
    runner.close()
    return 0


def _progress(args):
    """The per-point progress printer, silent under ``--json``."""
    if getattr(args, "json", False):
        return None
    return lambda result: print("  ...", result.summary(), flush=True)


def cmd_sweep(args) -> int:
    config = _config(args)
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
    pattern = make_pattern(args.pattern, topology)
    runner = _make_runner(args)
    series = run_sweep(
        algorithm,
        pattern,
        args.loads,
        config,
        progress=lambda r: print("  ", r.summary(), flush=True),
        runner=runner,
    )
    print()
    for row in series.rows():
        print(row)
    print(
        f"max sustainable throughput: "
        f"{series.max_sustainable_throughput():.1f} flits/us"
    )
    _print_array_coverage(args, [config] * len(args.loads))
    return _finish_runner(runner, args)


def _resolve_figure(name: str):
    """Accept both ``fig13`` and the bare paper number ``13``."""
    for key in (name, f"fig{name}"):
        if key in FIGURE_HARNESSES:
            return key, FIGURE_HARNESSES[key]
    raise SystemExit(f"unknown figure {name!r}; choose from {sorted(FIGURE_HARNESSES)}")


def cmd_figure(args) -> int:
    name, harness = _resolve_figure(args.name)
    preset = _config(args, FULL if (args.full or args.preset == "full") else FAST)
    runner = _make_runner(args)
    series = harness(preset, progress=_progress(args), runner=runner)
    print()
    print(format_figure(name, series))
    return _finish_runner(runner, args)


def cmd_faults(args) -> int:
    config = _config(args)
    runner = _make_runner(args)
    try:
        campaign = run_fault_campaign(
            topology=args.topology,
            algorithms=args.algorithms,
            pattern=args.pattern,
            fault_counts=args.faults,
            trials=args.trials,
            base_config=config,
            seed=args.campaign_seed,
            fault_start=args.fault_start,
            runner=runner,
            progress=_progress(args),
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(campaign.to_dict(), indent=2, sort_keys=True))
    else:
        print()
        for row in campaign.rows():
            print(row)
    _print_array_coverage(args, [config])
    return _finish_runner(runner, args)


def cmd_selection(args) -> int:
    config = _config(args)
    runner = _make_runner(args)
    try:
        comparison = run_selection_comparison(
            topology=args.topology,
            algorithms=args.algorithms,
            patterns=args.patterns,
            policies=args.policies,
            loads=args.loads,
            base_config=config,
            fault_links=args.fault_links,
            fault_seed=args.fault_seed,
            selection_threshold=config.selection_threshold,
            runner=runner,
            progress=_progress(args),
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print()
        for row in comparison.rows():
            print(row)
    return _finish_runner(runner, args)


def cmd_saturation(args) -> int:
    config = _config(args)
    topology = parse_topology(args.topology)
    try:
        pairs = [
            (make_algorithm(algorithm, topology), _make_pattern(pattern, topology))
            for algorithm in args.algorithms
            for pattern in args.patterns
        ]
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    runner = _make_runner(args)
    points = find_saturation_many(
        pairs,
        base_config=config,
        low=args.low,
        high=args.high,
        iterations=args.iterations,
        runner=runner,
    )
    if args.json:
        payload = {"topology": args.topology, "points": [asdict(p) for p in points]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_saturation_points(points))
    return _finish_runner(runner, args)


def cmd_bench(args) -> int:
    baseline = load_report(args.baseline) if args.baseline else None
    points = []
    if args.backend in ("event", "both"):
        points.extend(bench_points(quick=args.quick))
    if args.backend in ("array", "both"):
        points.extend(bench_points(quick=args.quick, backend="array"))
    batch = []
    if args.backend != "event" and not args.no_batch:
        batch = batch_bench_points(quick=args.quick)
    print(
        f"benchmarking {len(points)} point(s) + {len(batch)} batch "
        f"point(s), best of {args.repeats} repeat(s) each ...",
        flush=True,
    )
    report = run_bench(
        points,
        repeats=args.repeats,
        baseline=baseline,
        label=args.label,
        progress=lambda m: print(
            f"  {m.point.id:30s} {m.cycles_per_s:12.0f} cycles/s ({m.wall_s:.3f}s)",
            flush=True,
        ),
        batch_points=batch,
        batch_progress=lambda m: print(
            f"  {m.point.id:30s} {m.points_per_s:12.2f} pts/s ({m.speedup:.2f}x event)",
            flush=True,
        ),
    )
    print()
    print(report.render())
    if args.backend != "event":
        configs = [p.config() for p in points if p.backend == "array"] + [
            p.config(p.base_seed, "array") for p in batch
        ]
        _print_array_coverage(args, configs, force=True)
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    if args.merge_into:
        merge_report(report, args.merge_into)
        print(f"merged into {args.merge_into}")
    if args.check_against:
        committed = load_report(args.check_against)
        problems = compare_reports(
            report, committed, fail_threshold=args.fail_threshold
        )
        if problems:
            print()
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.check_against}")
    return 0


def _add_point_args(p: argparse.ArgumentParser, topology: str) -> None:
    """The algorithm/topology/pattern of a single-point command."""
    p.add_argument("algorithm")
    p.add_argument("--topology", default=topology)
    p.add_argument("--pattern", default="uniform")


def _add_list(p, flag: str, default: Sequence, help: str, item=str) -> None:
    """A comma-separated list flag, defaulting to the library's tuple."""
    joined = ",".join(map(str, default))
    p.add_argument(
        flag, type=_csv(item), default=joined, help=f"comma-separated {help}"
    )


def _add_json_flag(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--json",
        action="store_true",
        help=f"emit the {what} as JSON instead of the text report",
    )


def _add_profile_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile",
        action="store_true",
        help="time the engine's hot phases and print the report",
    )


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Turn-model adaptive routing: verify, simulate, reproduce.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available algorithms/patterns/figures")

    p = sub.add_parser("verify", help="deadlock-freedom check (CDG)")
    p.add_argument("algorithm")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--connectivity", action="store_true", help="also walk all pairs")

    p = sub.add_parser("turns", help="render a prohibition set")
    p.add_argument("model")

    p = sub.add_parser("simulate", help="one operating point")
    _add_point_args(p, "mesh:16x16")
    _add_knobs(p, SimulationConfig(), ("offered_load",) + _POINT + _ENGINE)
    _add_profile_flag(p)

    p = sub.add_parser("sweep", help="latency/throughput curve")
    _add_point_args(p, "mesh:16x16")
    _add_knobs(p, SimulationConfig(), _POINT + _ENGINE)
    _add_list(p, "--loads", (0.5, 1.0, 1.5, 2.0), "offered loads", _non_negative_float)
    _add_runner_flags(p)

    p = sub.add_parser(
        "trace",
        help="flit-level event trace of one operating point (docs/OBSERVABILITY.md)",
    )
    _add_point_args(p, "mesh:8x8")
    _add_knobs(p, TRACE_BASE, ("offered_load",) + _POINT + _ENGINE)
    p.add_argument(
        "--out",
        default="trace.jsonl",
        help="JSONL trace file to write (default trace.jsonl)",
    )
    p.add_argument(
        "--events",
        type=_csv(),
        default=None,
        help="comma-separated event kinds to keep (default: all)",
    )
    p.add_argument(
        "--series-period",
        type=_positive_int,
        default=100,
        help="bucket width, in cycles, of the utilization time series",
    )
    p.add_argument(
        "--heatmap",
        default=None,
        help="write per-direction channel-utilization heatmaps to this "
        "file ('-' prints them; 2D meshes only)",
    )
    _add_json_flag(p, "run + trace summary")
    _add_profile_flag(p)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("name", help="fig13..fig16, or the bare number")
    p.add_argument(
        "--preset",
        choices=("fast", "full"),
        default="fast",
        help="experiment preset (fast: reduced grid; full: denser/longer)",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="alias for --preset full (kept for compatibility)",
    )
    # The preset knobs are the same in FAST and FULL; cmd_figure applies
    # the flags to whichever preset was chosen.
    _add_knobs(p, FAST, _WATCHDOG + _SELECTION + ("backend",))
    _add_runner_flags(p)

    p = sub.add_parser(
        "faults", help="seeded fault-injection campaign (docs/FAULTS.md)"
    )
    p.add_argument("--topology", default="mesh:16x16")
    _add_list(p, "--algorithms", DEFAULT_ALGORITHMS, "routing algorithms to compare")
    p.add_argument("--pattern", default="uniform")
    _add_list(
        p, "--faults", DEFAULT_FAULT_COUNTS, "failed-link counts", _non_negative_int
    )
    p.add_argument(
        "--trials",
        type=_positive_int,
        default=3,
        help="fault plans drawn per fault count (default 3)",
    )
    _add_knobs(
        p, campaign_config(), ("offered_load", "drain_cycles") + _WINDOW + _ENGINE
    )
    p.add_argument(
        "--campaign-seed",
        type=int,
        default=0,
        help="seed the per-trial fault plans derive from",
    )
    p.add_argument(
        "--fault-start",
        type=_non_negative_int,
        default=0,
        help="cycle the failures appear at (0 = broken from the start)",
    )
    _add_json_flag(p, "campaign")
    _add_runner_flags(p)

    p = sub.add_parser(
        "selection",
        help="compare output-selection policies across algorithms, "
        "patterns, and a fault plan (docs/SELECTION.md)",
    )
    p.add_argument("--topology", default="mesh:16x16")
    _add_list(p, "--algorithms", DEFAULT_COMPARE_ALGORITHMS, "routing algorithms")
    _add_list(p, "--patterns", DEFAULT_COMPARE_PATTERNS, "traffic patterns")
    _add_list(p, "--policies", DEFAULT_POLICIES, "policies (xy is the baseline)")
    _add_list(p, "--loads", DEFAULT_COMPARE_LOADS, "offered loads", _non_negative_float)
    _add_knobs(p, comparison_config(), _WINDOW + ("selection_threshold", "backend"))
    p.add_argument(
        "--fault-links",
        type=_non_negative_int,
        default=4,
        help="also run every cell against this many dead links "
        "(0 skips the faulted half)",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed the shared fault plan derives from",
    )
    _add_json_flag(p, "comparison")
    _add_runner_flags(p)

    p = sub.add_parser(
        "saturation",
        help="batched bisection search for each (algorithm x pattern) "
        "pair's maximum sustainable load",
    )
    p.add_argument("--topology", default="mesh:16x16")
    _add_list(p, "--algorithms", DEFAULT_ALGORITHMS, "routing algorithms to search")
    _add_list(p, "--patterns", ("uniform",), "traffic patterns")
    p.add_argument(
        "--low",
        type=float,
        default=0.0,
        help="known-sustainable lower bound (flits/us/node)",
    )
    p.add_argument(
        "--high", type=float, default=8.0, help="assumed-unsustainable upper bound"
    )
    p.add_argument(
        "--iterations",
        type=_positive_int,
        default=6,
        help="bisection probes per pair (resolution (high-low)/2**n)",
    )
    _add_knobs(p, SimulationConfig(), _POINT + _ENGINE)
    _add_json_flag(p, "saturation points")
    _add_runner_flags(p)

    p = sub.add_parser(
        "bench",
        help="engine benchmark on the canonical operating points (docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--quick", action="store_true", help="run only the quick CI subset of points"
    )
    p.add_argument(
        "--backend",
        choices=("event", "array", "both"),
        default="event",
        help="engine backend(s) to benchmark; array/both also run the "
        "batched-sweep points-per-second points (default event)",
    )
    p.add_argument(
        "--no-batch", action="store_true", help="skip the batched-sweep points"
    )
    p.add_argument(
        "--repeats",
        type=_positive_int,
        default=2,
        help="timed repeats per point; the best wall is kept (default 2)",
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument(
        "--merge-into",
        default=None,
        metavar="PATH",
        help="fold this run's points into an existing report file, keeping "
        "the points it did not re-measure",
    )
    p.add_argument("--label", default="", help="free-text label stored in the report")
    p.add_argument(
        "--baseline",
        default=None,
        help="prior report folded in as per-point baselines (speedup column)",
    )
    p.add_argument(
        "--check-against",
        default=None,
        help="committed report to gate against (fingerprints + cycles/s)",
    )
    p.add_argument(
        "--fail-threshold",
        type=float,
        default=0.30,
        help="max allowed cycles/s regression vs --check-against (default 0.30)",
    )

    return parser


def _add_runner_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the operating points (default 1)",
    )
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve/record results in the on-disk cache (default on)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="re-simulate even on cache hits (refreshes the cache)",
    )
    p.add_argument(
        "--point-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per operating point; a worker past it is "
        "killed and the point retried or recorded as a timeout failure "
        "(docs/RESILIENCE.md)",
    )
    p.add_argument(
        "--max-point-retries",
        type=_non_negative_int,
        default=0,
        help="re-dispatch attempts after a point crashes, hangs, or "
        "raises, with exponential backoff (default 0)",
    )
    p.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        default=False,
        help="record permanently failed points in a failure manifest and "
        "finish the batch (exit code 3 if any failed)",
    )
    p.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="abort the batch on the first permanent failure (default)",
    )
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL campaign journal checkpointing each completed point "
        "(fsync'd per line, so SIGKILL loses nothing journaled)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip points already recorded in --journal, serving them "
        "from the result cache",
    )
    p.add_argument(
        "--failure-manifest",
        default=None,
        metavar="PATH",
        help="also write permanently failed points to this JSONL file",
    )


COMMANDS = {
    "list": cmd_list,
    "verify": cmd_verify,
    "turns": cmd_turns,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
    "faults": cmd_faults,
    "trace": cmd_trace,
    "selection": cmd_selection,
    "saturation": cmd_saturation,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
