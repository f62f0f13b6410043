"""Record the golden result digests of both sweeps for every seed slot.

    python3 hostbench/record_golden.py

Run from the checkout root.  Each golden file is written from scratch.
Goldens pin the simulated results of the commit they were recorded at;
re-record them only for a change that is meant to move simulated
results, and say so in its description.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from hostbench import specs as specgen  # noqa: E402
from hostbench.sweeps import golden_path, run_sweep  # noqa: E402


def main() -> int:
    for workload in sorted(specgen.SWEEPS):
        slots = {}
        work = Path(tempfile.mkdtemp(prefix=".hostbench-golden-",
                                     dir=ROOT))
        try:
            for slot in range(specgen.SEED_SLOTS):
                sample = run_sweep(ROOT, work,
                                   specgen.SWEEPS[workload](slot),
                                   trace=False)
                slots[str(slot)] = sample.digests
                print(f"{workload} slot {slot}: {len(sample.digests)} "
                      f"results in {sample.wall_s:.1f} s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = golden_path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"slots": slots}, indent=0) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
