"""Record the expected outputs the benchmark checks every run against.

    python3 perfbench/record.py [--workloads a,b] [--seeds 0,1,...]

Run from the repository root, on code whose results are trusted.  For
each workload and benchmark seed it runs the campaign traced and stores
the spec-ordered result digest and the exact work counters in
``perfbench/expected.json``.  Before storing, it confirms the digests
agree across backends: ``fig-event`` and ``fig-array`` run the same
points, and ``faults-supervised`` and ``vc-sweep`` are re-run once on
the event backend.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import HERE, BenchError, Campaign, become_subreaper

sys.path.insert(0, str(Path.cwd() / "src"))
from workloads import RECORDED_SEEDS, WORKLOADS  # noqa: E402

EVENT_CONFIRMED = ("faults-supervised", "vc-sweep")
TIMEOUT_S = 1800.0


def run_campaign(root: Path, workload: str, seed: int, **kwargs) -> dict:
    campaign = Campaign(root, workload, seed, "record", **kwargs)
    try:
        return campaign.run(TIMEOUT_S)
    finally:
        campaign.cleanup()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument(
        "--seeds", default=",".join(str(s) for s in range(RECORDED_SEEDS))
    )
    args = parser.parse_args()
    root = Path.cwd()
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    become_subreaper()
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            out = run_campaign(root, workload, seed, trace=True)
            if out["missing"] or not all(passed for _, passed, _ in out["checks"]):
                raise BenchError(f"{workload} seed {seed}: {out['checks']}")
            if workload in EVENT_CONFIRMED:
                event = run_campaign(root, workload, seed, backend="event")
                if event["digest"] != out["digest"]:
                    raise BenchError(f"{workload} seed {seed}: backends disagree")
            group = WORKLOADS[workload].digest_group
            for other, record in expected.items():
                theirs = record.get(str(out["sim_seed"]))
                if (
                    other != workload
                    and WORKLOADS[other].digest_group == group
                    and theirs
                    and theirs["digest"] != out["digest"]
                ):
                    raise BenchError(f"{workload} and {other} disagree at seed {seed}")
            expected.setdefault(workload, {})[str(out["sim_seed"])] = {
                "digest": out["digest"],
                "counters": out["counters"],
            }
            print(f"{workload} seed {out['sim_seed']}: {out['digest'][:16]} "
                  f"{out['counters']}", flush=True)
            path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
