"""One sweep in a fresh interpreter: ``SweepRunner.run`` with ``jobs=1``.

Reads ``{"specs": [...], "cache_dir": str, "trace": bool}`` as JSON on
stdin and prints one JSON object on stdout.  The result cache directory
is new and the trace memo is empty, as on every fresh ``repro``
invocation.  ``submit_t`` is the ``time.monotonic()`` instant just
before the specs are submitted; the parent subtracts its spawn instant
to get the set-up time.  An untraced sweep stamps the instant each
spec's result is stored, and ``durations_s`` holds the gaps between
consecutive stamps (the first from the submit instant), so every spec's
time covers all the work ``SweepRunner.run`` did for it.

Run by ``run.py`` with ``src`` and the checkout root on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    request = json.load(sys.stdin)
    from repro.runner import (
        ResultCache,
        SweepRunner,
        bw_ratio_policy,
        encode_result,
        make_spec,
        result_digest,
    )

    specs = []
    for fields in request["specs"]:
        fields = dict(fields)
        co_percent = fields.pop("co_percent", None)
        if co_percent is not None:
            fields["policy"] = bw_ratio_policy(float(co_percent))
        specs.append(make_spec(**fields))
    cache_dir = request["cache_dir"]
    runner = SweepRunner(jobs=1, cache=ResultCache(cache_dir),
                         runs_dir=f"{cache_dir}/runs")

    from hostbench.layers import (
        STORE_TARGETS,
        CompletionClock,
        Installed,
        LayerClock,
        layer_metrics,
    )

    layers = None
    durations: list = []
    if request["trace"]:
        clock = LayerClock()
        installed = Installed(clock)
        with installed:
            submit_t = time.monotonic()
            start = time.perf_counter()
            outcome = runner.run(specs)
            wall_s = time.perf_counter() - start
        if not installed.is_restored():
            raise RuntimeError("layer wrappers were not restored")
        layers = {
            "metrics": layer_metrics(clock.stats, wall_s),
            "table": {name: [stat.self_s, stat.calls]
                      for name, stat in clock.stats.items()},
        }
    else:
        completions = CompletionClock()
        installed = Installed(completions, STORE_TARGETS)
        with installed:
            submit_t = time.monotonic()
            start = completions.clock()
            outcome = runner.run(specs)
            wall_s = completions.clock() - start
        if not installed.is_restored():
            raise RuntimeError("completion wrapper was not restored")
        if len(completions.instants) != len(specs):
            raise RuntimeError(
                f"{len(specs)} specs but {len(completions.instants)} "
                "results stored")
        durations = completions.gaps(start)
    runner.close()

    json.dump({
        "submit_t": submit_t,
        "wall_s": wall_s,
        "durations_s": durations,
        "digests": [result_digest(encode_result(result))[:16]
                    for result in outcome.results],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
