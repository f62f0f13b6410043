"""Compare a parent commit and a change on the host-time benchmark.

    python3 hostbench/compare.py --parent ../parent --change . \\
        [--workload ratio_sweep ...] [--out pairs.json]
    python3 hostbench/compare.py --results pairs.json

``--parent`` and ``--change`` are checkouts (``git archive <rev> | tar
-x -C DIR``) holding identical ``hostbench/`` directories; the script
refuses to compare otherwise.  There are ten pairs; pair ``i`` runs
both sides on seed ``1000 + i`` for ``run_seconds`` from
BENCHMARK.json, the side that goes first alternating from pair to
pair.  Each (workload, metric) row gets one verdict:

* ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the spread of either side exceeds the bound, unless
  every change run beats every parent run (then ``better``);
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from hostbench import stats  # noqa: E402

RUN_TIMEOUT_S = 900.0
#: paired runs per workload; the 9-of-10 rule in ``verdict`` needs ten.
PAIRS = 10
FIRST_SEED = 1000


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The verdict for paired runs (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    parent_median = statistics.median(parent)
    gain = sign * (statistics.median(change) - parent_median)
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if stats.spread(parent) > bound or stats.spread(change) > bound:
        return "better" if every_run_better else "unresolved"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, _, q3 = stats.quartiles(parent)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "better"
    if -gain > bound * abs(parent_median):
        return "worse"
    return "unchanged"


def _bench_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    bench = checkout / "hostbench"
    for path in sorted(bench.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(bench)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(parent: Path, change: Path, workloads: list,
            seconds: int) -> dict:
    runs: dict = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            sides = [("parent", parent), ("change", change)]
            if i % 2:
                sides.reverse()
            for side, checkout in sides:
                result = _run(checkout, workload, seed, seconds)
                runs[workload][side].append(result)
                print(f"{workload} pair {i} {side}: failed "
                      f"{result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
    return runs


def judge(runs: dict, spec: dict) -> list:
    """One row per (workload, metric): medians, quartiles, verdict."""
    rows = []
    for workload, sides in runs.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in sides["parent"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"],
                "parent": stats.quartiles(parent),
                "change": stats.quartiles(change),
                "verdict": verdict(parent, change, metric["better"],
                                   metric["bound"]),
            })
        failed = [sum(r["failed"] for r in sides[side])
                  for side in ("parent", "change")]
        rows.append({
            "workload": workload, "metric": "failed", "unit": "count",
            "parent": (failed[0],) * 3, "change": (failed[1],) * 3,
            "verdict": "worse" if failed[1] > failed[0] else "unchanged",
        })
    return rows


def _cell(q1: float, median: float, q3: float) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--results", type=Path,
                        help="judge runs saved by --out instead")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.results is not None:
        runs = json.loads(args.results.read_text())
    else:
        if args.parent is None or args.change is None:
            parser.error("--parent and --change are required")
        if _bench_digest(args.parent) != _bench_digest(args.change):
            print("the two checkouts hold different hostbench/ files",
                  file=sys.stderr)
            return 2
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        runs = collect(args.parent.resolve(), args.change.resolve(),
                       workloads, spec["run_seconds"])
        if args.out is not None:
            args.out.write_text(json.dumps(runs))
    print(f"{'workload':<22} {'metric':<16} {'parent median [q1, q3]':<30}"
          f" {'change median [q1, q3]':<30} verdict")
    for row in judge(runs, spec):
        print(f"{row['workload']:<22} {row['metric']:<16} "
              f"{_cell(*row['parent']):<30} {_cell(*row['change']):<30} "
              f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
