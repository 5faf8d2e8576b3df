"""End-to-end campaign benchmark for the turn-model reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every campaign runs in a fresh process
(``perfbench/campaign.py``) with a cold result cache under
``.perfbench_tmp/``; traces are written to ``.perfbench_out/``.

``--trace 0`` starts cold campaigns one after another until ``--seconds``
have passed (at least three) and reports the median of each end-to-end
metric (``wall_s``, ``setup_s``, ``peak_rss_mb``).
``--trace 1`` runs the campaign untraced and then traced, and reports the
per-layer metrics, span self times and checks, the warm-cache pass, and
the tracing overhead.

Every campaign's spec-ordered result digest is checked against
``perfbench/expected.json``; a mismatch counts every point as failed.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

MIN_CAMPAIGNS = 3
MAX_CAMPAIGNS = 8
RUN_BUDGET_S = 170.0
PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    pass


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (supervised workers of a campaign
    killed at the time limit), so they can be reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def kill_group(pgid: int) -> bool:
    """SIGKILL a process group; False when no member is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def reap_group(pgid: int, timeout: float = 10.0) -> None:
    """SIGKILL a process group and wait until no member is left."""
    deadline = time.monotonic() + timeout
    while kill_group(pgid):
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        if time.monotonic() > deadline:
            raise BenchError(f"process group {pgid} did not exit")
        time.sleep(0.01)


class Campaign:
    """One campaign process: spawn, wait, reap, read results."""

    def __init__(self, root: Path, workload: str, seed: int, tag: str,
                 trace: bool = False, backend: str = "") -> None:
        self.root = root
        self.workdir = root / ".perfbench_tmp" / f"{workload}-{os.getpid()}-{tag}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "markers").mkdir(parents=True)
        self.out_path = self.workdir / "out.json"
        self.log_path = self.workdir / "log.txt"
        self.argv = [
            sys.executable, str(HERE / "campaign.py"),
            "--workload", workload, "--seed", str(seed),
            "--workdir", str(self.workdir), "--out", str(self.out_path),
        ] + (["--trace"] if trace else []) + (["--backend", backend] if backend else [])

    def run(self, timeout: float) -> dict:
        """Run to completion: wall_s, setup_s, peak_rss_mb, child output."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.root / "src"), env.get("PYTHONPATH")])
        )
        with open(self.log_path, "wb") as log:
            started = time.monotonic()
            proc = subprocess.Popen(
                self.argv, cwd=self.root, env=env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        timer = threading.Timer(timeout, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reap_group(proc.pid)
        if proc.returncode != 0:
            raise BenchError(
                f"campaign exited with {proc.returncode}:\n"
                + self.log_path.read_text()[-4000:]
            )
        markers = [
            json.loads(path.read_text())["t"]
            for path in (self.workdir / "markers").glob("*.json")
        ]
        if not markers:
            raise BenchError("no engine run() began")
        out = json.loads(self.out_path.read_text())
        out["wall_s"] = ended - started
        out["setup_s"] = min(markers) - started
        out["peak_rss_mb"] = usage.ru_maxrss / 1024  # KiB on Linux
        return out

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def check_outputs(workload: str, out: dict, expected: dict) -> dict:
    """Digest and counter checks of one campaign; returns the failed
    point count and any counter differences."""
    record = expected.get(workload, {}).get(str(out["sim_seed"]))
    if record is None:
        raise BenchError(f"no recorded digest for {workload} seed {out['sim_seed']}")
    failed = out["missing"]
    if out["digest"] != record["digest"]:
        failed = out["points"]
    differ = {
        name: (value, record["counters"].get(name))
        for name, value in out["counters"].items()
        if record["counters"].get(name) != value
    }
    return {"failed": failed, "counters_differ": differ}


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_catalogue(root: Path, workload: str) -> list:
    """Check that BENCHMARK.json and metrics.py list the same metrics;
    returns the workloads to run (``all``: every declared one)."""
    spec = load_json(root / "BENCHMARK.json")
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if workload != "all" and workload not in declared_workloads:
        raise BenchError(f"unknown workload {workload!r}")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        ours = [(m.name, m.unit, m.better) for m in metrics]
        if declared != ours:
            raise BenchError(f"BENCHMARK.json {key} disagrees with perfbench/metrics.py")
    return declared_workloads if workload == "all" else [workload]


def print_counters(counters: dict, differ: dict) -> None:
    for name, value in counters.items():
        flag = ""
        if name in differ:
            flag = f"   <-- DIFFERS from recorded {differ[name][1]}"
        print(f"  work.{name:<24s} {value:>14d}{flag}")


def run_untraced(root: Path, workload: str, seed: int, seconds: float,
                 expected: dict, started: float) -> dict:
    outs = []
    while len(outs) < MIN_CAMPAIGNS or (
        len(outs) < MAX_CAMPAIGNS and time.monotonic() - started < seconds
    ):
        campaign = Campaign(root, workload, seed, f"cold{len(outs)}")
        try:
            outs.append(campaign.run(RUN_BUDGET_S - (time.monotonic() - started)))
        finally:
            campaign.cleanup()
    checks = [check_outputs(workload, out, expected) for out in outs]
    values = {
        m.name: statistics.median(out[m.name] for out in outs) for m in END_TO_END
    }
    attempted = sum(out["points"] for out in outs)
    failed = sum(check["failed"] for check in checks)
    first = outs[0]
    print(f"workload {workload}, simulation seed {first['sim_seed']}, "
          f"{first['points']} points, median of {len(outs)} cold campaigns")
    for metric in END_TO_END:
        samples = ", ".join(f"{out[metric.name]:.4f}" for out in outs)
        print(f"  {metric.name:<29s} {values[metric.name]:14.4f} {metric.unit:<8s}"
              f" ({samples})")
    print(f"  {'failed_frac':<29s} {failed / attempted:14.4f} fraction")
    differ = {}
    for check in checks:
        differ.update(check["counters_differ"])
    print_counters(first["counters"], differ)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END
        },
    }


def run_traced(root: Path, workload: str, seed: int, expected: dict,
               started: float) -> dict:
    outs = {}
    for tag, trace in (("untraced", False), ("traced", True)):
        campaign = Campaign(root, workload, seed, tag, trace=trace)
        try:
            outs[tag] = campaign.run(RUN_BUDGET_S - (time.monotonic() - started))
        finally:
            campaign.cleanup()
    base, traced = outs["untraced"], outs["traced"]
    failed = 0
    attempted = 0
    differ = {}
    for out in (base, traced):
        check = check_outputs(workload, out, expected)
        failed += check["failed"]
        attempted += out["points"]
        differ.update(check["counters_differ"])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = (traced["wall_s"] - traced["warm_s"]) - base["wall_s"]
    checks = traced["checks"]

    sim_seed = traced["sim_seed"]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-seed{sim_seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload,
        "sim_seed": sim_seed,
        "spans": traced["span_records"],
        "totals": traced["spans"],
    }))

    print(f"workload {workload}, simulation seed {sim_seed}, traced "
          f"({traced['points']} points; untraced wall {base['wall_s']:.3f} s, "
          f"traced wall {traced['wall_s'] - traced['warm_s']:.3f} s "
          f"+ warm pass {traced['warm_s']:.3f} s)")
    print(f"  {'span':<24s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name, span in traced["spans"].items():
        print(f"  {name:<24s} {span['count']:8d} {span['total_s']:10.4f} "
              f"{span['self_s']:10.4f}")
    print("  per-layer metrics (expected to move):")
    values = {}
    for metric in PER_LAYER:
        values[metric.name] = float(layers.get(metric.name, 0.0))
        print(f"  {metric.name:<29s} {values[metric.name]:14.6g} {metric.unit:<8s}"
              f" {metric.moves}")
    print_counters(traced["counters"], differ)
    for description, passed, detail in checks:
        print(f"  check: {description}: {'ok' if passed else 'FAILED ' + detail}")
    print(f"  spans written to {trace_file.relative_to(root)}")
    checks_ok = all(passed for _, passed, _ in checks)
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed if checks_ok else attempted,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER
        },
    }


def run_workload(root: Path, workload: str, args, expected: dict) -> dict:
    started = time.monotonic()
    if args.trace:
        return run_traced(root, workload, args.seed, expected, started)
    return run_untraced(root, workload, args.seed, args.seconds, expected, started)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload named in BENCHMARK.json, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a repository checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    try:
        workloads = check_catalogue(root, args.workload)
        expected = load_json(HERE / "expected.json")
        become_subreaper()
        # Byte-compile once so no timed process pays for it.
        for tree in (root / "src", HERE):
            compileall.compile_dir(str(tree), quiet=1)
        results = {w: run_workload(root, w, args, expected) for w in workloads}
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": value
                for w, r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
