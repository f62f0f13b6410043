"""Host-time benchmark of the simulator: one workload per invocation.

    python3 hostbench/run.py --workload ratio_sweep --seed 3 \\
        --seconds 30 --trace 0

Run from the checkout root.  Workloads: ``ratio_sweep``,
``constrained_detailed`` (sweeps, each in a fresh interpreter) and
``serve_mixed`` (closed-loop HTTP traffic against ``repro serve``).
With ``--trace 0`` the last line of stdout is the end-to-end result;
with ``--trace 1`` it is the per-layer result of a traced run.  Every
result is checked: sweep digests against the goldens in ``golden/``,
every serve reply against the in-process answer.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
# the in-process references of serve replies are computed here
sys.path.insert(1, str(ROOT / "src"))

from hostbench import serve_load, specs as specgen, stats  # noqa: E402
from hostbench.sweeps import (  # noqa: E402
    load_golden,
    mismatches,
    run_sweep,
)

WORKLOADS = ("ratio_sweep", "constrained_detailed", "serve_mixed")

#: end-to-end metrics (``--trace 0``), each reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (``--trace 1``); a layer a workload does not reach
#: reads 0.
PER_LAYER = {
    "vm.place_all_s": "s",
    "vm.pages_placed": "count",
    "vm.place_ns_per_page": "ns",
    "gpu.simulate.throughput_s": "s",
    "gpu.simulate.detailed_s": "s",
    "gpu.accesses_simulated": "count",
    "gpu.simulate_ns_per_access": "ns",
    "workloads.dram_trace_s": "s",
    "workloads.trace_memo_hit_ratio": "ratio",
    "gpu.cache.filter_s": "s",
    "gpu.cache.filter_calls": "count",
    "policies.resolve_s": "s",
    "profiling.profile_s": "s",
    "migration.run_s": "s",
    "migration.pages_migrated": "count",
    "runner.cache.get_s": "s",
    "runner.cache.put_s": "s",
    "runner.cache.hit_ratio": "ratio",
    "runner.run_self_s": "s",
    "experiment.run_self_s": "s",
    "serve.placement_server_mean_ms": "ms",
    "serve.simulate_server_mean_ms": "ms",
    "serve.http_overhead_ms": "ms",
    "serve.placement_batch_size": "count",
    "serve.placement_inline_share": "ratio",
    "serve.simulate_cache_hit_ratio": "ratio",
    "serve.simulate_dedup_share": "ratio",
    "serve.simulate_warm_p50_ms": "ms",
    "serve.simulate_cold_p50_ms": "ms",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}

#: set-up is measured this many times in a serve run (median reported).
SERVE_SETUPS = 5

#: the percentile ``latency_tail_ms`` reports on each workload: the
#: highest with at least 10 samples beyond it in a 30 s run, which holds
#: at least 3 sweeps (627 per-spec times in ratio_sweep, 198 in
#: constrained_detailed) or ~5000 placements.  Fixed, so that every
#: run reports the same percentile.
TAIL_PERCENTILE = {"ratio_sweep": 95.0, "constrained_detailed": 90.0,
                   "serve_mixed": 99.0}


def tail_of(workload: str, values: list) -> tuple[float, float]:
    """``(percentile, value)`` at the workload's fixed tail, or lower
    when the run has too few samples for it (the rule in stats.py)."""
    q = min(TAIL_PERCENTILE[workload], stats.tail_percentile(len(values)))
    if q < TAIL_PERCENTILE[workload]:
        print(f"warning: {len(values)} samples are too few for "
              f"p{TAIL_PERCENTILE[workload]:g}; reporting p{q:g}",
              file=sys.stderr)
    return q, stats.percentile(values, q)


def line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<34} {value:>12.4f} {unit:<6} {note}")


def report(correct: bool, attempted: int, failed: int, metrics: dict,
           units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def sweep_workload(workload: str, seed: int, seconds: float, trace: bool,
                   work: Path) -> int:
    specs = specgen.SWEEPS[workload](seed)
    golden = load_golden(workload, specgen.trace_seed(seed))
    plain, traced = [], []
    attempted = failed = 0
    start = time.monotonic()
    # Untraced and, with --trace 1, traced sweeps alternate; another
    # round starts only while it is expected to end inside the window.
    rounds = 0
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            try:
                sample = run_sweep(ROOT, work, specs, is_traced)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                attempted += len(specs)
                failed += len(specs)
                continue
            (traced if is_traced else plain).append(sample)
            attempted += len(specs)
            failed += mismatches(sample.digests, golden)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds:
            break
    if not plain or (trace and not traced):
        print("no sweep completed", file=sys.stderr)
        return 1

    print(f"{workload} seed={seed} trace seed={specgen.trace_seed(seed)}"
          f" specs={len(specs)} sweeps={len(plain)}"
          f"{f'+{len(traced)} traced' if trace else ''}")
    error_rate = failed / attempted
    if trace:
        metrics = _sweep_layers(workload, plain, traced)
        report(failed == 0, attempted, failed, metrics, PER_LAYER)
        return 0

    durations = [d for s in plain for d in s.durations_s]
    q, tail_s = tail_of(workload, durations)
    metrics = {
        "setup_s": statistics.median(s.setup_s for s in plain),
        "ops_per_s": statistics.median(len(specs) / s.wall_s
                                       for s in plain),
        "latency_p50_ms": stats.percentile(durations, 50) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
    }
    n = len(plain)
    line("setup_s", metrics["setup_s"], "s", f"median of {n} starts")
    line("specs_per_s", metrics["ops_per_s"], "1/s",
         f"median of {n} sweeps  [ops_per_s]")
    line("spec_p50_ms", metrics["latency_p50_ms"], "ms",
         f"n={len(durations)}  [latency_p50_ms]")
    line(f"spec_p{q:g}_ms", metrics["latency_tail_ms"], "ms",
         f"n={len(durations)}, {len(durations) * (100 - q) / 100:.0f} "
         "beyond  [latency_tail_ms]")
    line("peak_rss_mb", metrics["peak_rss_mb"], "MB",
         f"sweep process, median of {n}")
    line("error_rate", error_rate, "", f"{failed}/{attempted}")
    report(failed == 0, attempted, failed, metrics, END_TO_END)
    return 0


def _sweep_layers(workload: str, plain: list, traced: list) -> dict:
    per_sweep = [s.layers["metrics"] for s in traced]
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in per_sweep[0]:
        metrics[name] = statistics.median(m[name] for m in per_sweep)
    traced_wall = statistics.median(s.wall_s for s in traced)
    metrics["bench.trace_overhead_ratio"] = traced_wall / statistics.median(
        s.wall_s for s in plain)

    # The table shows the traced sweep whose wall time is the median.
    sample = sorted(traced, key=lambda s: s.wall_s)[(len(traced) - 1) // 2]
    rows = sorted(sample.layers["table"].items(), key=lambda kv: -kv[1][0])
    print(f"layer table ({workload}, traced wall {sample.wall_s:.3f} s)")
    print(f"  {'layer':<26} {'self_s':>9} {'calls':>8} {'share':>7}")
    for name, (self_s, calls) in rows:
        print(f"  {name:<26} {self_s:>9.4f} {calls:>8d} "
              f"{self_s / sample.wall_s:>7.1%}")
    unattributed = sample.layers["metrics"]["bench.unattributed_s"]
    print(f"  {'bench.unattributed_s':<26} {unattributed:>9.4f}")
    total = unattributed + sum(self_s for self_s, _ in
                               sample.layers["table"].values())
    print(f"  {'sum (= traced wall)':<26} {total:>9.4f}")
    print(f"  {'bench.trace_overhead_ratio':<26} "
          f"{metrics['bench.trace_overhead_ratio']:>9.4f}")
    return metrics


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def serve_workload(seed: int, seconds: float, trace: bool,
                   work: Path) -> int:
    setups = []
    for _ in range(SERVE_SETUPS - 1):
        daemon = serve_load.Daemon(ROOT, work)
        setups.append(daemon.setup_s)
        daemon.stop()
    daemon = serve_load.Daemon(ROOT, work)
    try:
        setups.append(daemon.setup_s)
        scrape_s = 0.0
        if trace:
            scrape_t = time.perf_counter()
            before = daemon.metrics()
            scrape_s += time.perf_counter() - scrape_t
        traffic = serve_load.drive(daemon, seed, seconds)
        if trace:
            scrape_t = time.perf_counter()
            after = daemon.metrics()
            scrape_s += time.perf_counter() - scrape_t
        peak_rss_mb = traffic.rss_mb
        if peak_rss_mb is None:
            print(f"warning: fewer than {serve_load.RSS_AFTER_COLD} cold "
                  "simulates; peak RSS read at the end", file=sys.stderr)
            peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    samples, duration = traffic.samples, traffic.duration_s

    placement_body = specgen.placement_request(seed)
    failed = serve_load.count_wrong(samples, placement_body)
    attempted = len(samples)
    ok = [s for s in samples if s.status == 200]

    def latencies(kind: str) -> list:
        return [s.latency_s for s in ok if s.kind == kind]

    placement = latencies("placement")
    warm, cold = latencies("warm"), latencies("cold")
    if not placement or not warm or not cold:
        print("a request class got no successful reply", file=sys.stderr)
        return 1
    print(f"serve_mixed seed={seed} duration={duration:.2f} s "
          f"requests={attempted}")
    if trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(serve_load.layer_metrics(
            before, after, samples, stats.percentile(placement, 50)))
        metrics["serve.simulate_warm_p50_ms"] = stats.percentile(
            warm, 50) * 1e3
        metrics["serve.simulate_cold_p50_ms"] = stats.percentile(
            cold, 50) * 1e3
        metrics["bench.trace_overhead_ratio"] = (
            (duration + scrape_s) / duration)
        print("layer table (serve_mixed, /metrics deltas)")
        for name in PER_LAYER:
            if name.startswith(("serve.", "bench.")):
                line(name, metrics[name], PER_LAYER[name])
        report(failed == 0, attempted, failed, metrics, PER_LAYER)
        return 0

    q, tail_s = tail_of("serve_mixed", placement)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / duration,
        "latency_p50_ms": stats.percentile(placement, 50) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    line("setup_s", metrics["setup_s"], "s",
         f"median of {len(setups)} spawns to /healthz 200")
    line("requests_per_s", metrics["ops_per_s"], "1/s",
         f"n={len(ok)}  [ops_per_s]")
    line("specs_per_s", (len(warm) + len(cold)) / duration, "1/s",
         f"n={len(warm) + len(cold)} simulates")
    line("placement_p50_ms", metrics["latency_p50_ms"], "ms",
         f"n={len(placement)}  [latency_p50_ms]")
    line(f"placement_p{q:g}_ms", metrics["latency_tail_ms"], "ms",
         f"n={len(placement)}, {len(placement) * (100 - q) / 100:.0f} "
         "beyond  [latency_tail_ms]")
    for kind, values in (("warm", warm), ("cold", cold)):
        q, value = stats.tail(values)
        line(f"simulate_{kind}_p50_ms", stats.percentile(values, 50) * 1e3,
             "ms", f"n={len(values)}")
        line(f"simulate_{kind}_p{q:g}_ms", value * 1e3, "ms",
             f"n={len(values)}")
    line("peak_rss_mb", peak_rss_mb, "MB",
         f"daemon, after {serve_load.RSS_AFTER_COLD} cold simulates")
    line("error_rate", failed / attempted, "", f"{failed}/{attempted}")
    report(failed == 0, attempted, failed, metrics, END_TO_END)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".hostbench-work-", dir=ROOT))
    try:
        if args.workload == "serve_mixed":
            return serve_workload(args.seed, args.seconds,
                                  bool(args.trace), work)
        return sweep_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
