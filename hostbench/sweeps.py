"""Drive sweep workers and check their results against goldens."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: a sweep of either grid takes ~6 s on the reference host.
WORKER_TIMEOUT_S = 150.0


@dataclass
class SweepSample:
    setup_s: float
    wall_s: float
    durations_s: list
    digests: list
    peak_rss_mb: float
    layers: Optional[dict]


def child_env(root: Path) -> dict:
    """The environment of a program process: ``src`` importable, and no
    ``REPRO_*`` setting inherited from the caller's shell."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def run_sweep(root: Path, work: Path, specs: list, trace: bool
              ) -> SweepSample:
    """One sweep in a fresh interpreter with a fresh result cache."""
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    request = json.dumps({"specs": specs, "cache_dir": str(cache_dir),
                          "trace": trace})
    try:
        spawn_t = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(root / "hostbench" / "sweep_worker.py")],
            input=request, capture_output=True, text=True, cwd=root,
            env=child_env(root), timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"sweep worker exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    return SweepSample(
        setup_s=out["submit_t"] - spawn_t,
        wall_s=out["wall_s"],
        durations_s=out["durations_s"],
        digests=out["digests"],
        peak_rss_mb=out["peak_rss_mb"],
        layers=out["layers"],
    )


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, slot: int) -> list:
    with open(golden_path(workload), encoding="utf-8") as handle:
        return json.load(handle)["slots"][str(slot)]


def mismatches(digests: list, golden: list) -> int:
    """Results that differ from the golden digests, counting every
    missing or extra result as wrong."""
    wrong = sum(1 for got, want in zip(digests, golden) if got != want)
    return wrong + abs(len(digests) - len(golden))
