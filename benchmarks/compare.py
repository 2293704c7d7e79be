"""Compare two sets of benchmark results, metric by metric.

    python3 benchmarks/compare.py BASE_DIR NEW_DIR

Each directory holds result files that ``run.py`` wrote (it writes them
to ``benchmarks/out/``). Runs are grouped by workload and trace mode. For
every metric the script prints both medians, the quartile spread of each
side as a share of its median, and the change as a share of the base
median. For end-to-end metrics it gives a verdict against the bound in
BENCHMARK.json: ``worse`` beyond the bound, ``unresolved`` when either
spread is wider than the bound (unless every new run beats every base
run), else ``ok``. Pairs of runs whose environment blocks differ in a
field that affects timing are flagged, since their numbers are not
comparable.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Environment fields that make two runs incomparable when they differ.
ENV_FIELDS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_version",
              "blas_threads", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")


def load(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            runs.append(dict(json.load(fh), path=path))
    return runs


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("nan")


def env_flags(base: list[dict], new: list[dict]) -> list[str]:
    flags = []
    for field in ENV_FIELDS:
        seen = {json.dumps(r["env"].get(field)) for r in base + new}
        if len(seen) > 1:
            flags.append(f"{field} differs between runs: {sorted(seen)}")
    return flags


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    bound = metric.get("bound")
    if bound is None:
        return ""
    b, n = statistics.median(base), statistics.median(new)
    lower = metric["better"] == "lower"
    worse = (n - b) / abs(b) if lower else (b - n) / abs(b)
    if worse > bound:
        return "worse"
    if not (spread(base) <= bound and spread(new) <= bound):
        beats = max(new) < min(base) if lower else min(new) > max(base)
        return "better" if beats else "unresolved"
    return "ok"


def compare(base_runs: list[dict], new_runs: list[dict], spec: dict) -> int:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups = sorted({(r["workload"], r["trace"]) for r in base_runs + new_runs})
    worse = 0
    for workload, trace in groups:
        base = [r for r in base_runs
                if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_runs
               if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"== {workload} trace={trace}: {len(base)} base runs, "
              f"{len(new)} new runs")
        for flag in env_flags(base, new):
            print(f"   FLAG {flag}")
        if not base or not new:
            continue
        failed = sum(r["failed"] for r in new) - sum(r["failed"] for r in base)
        if failed > 0:
            print(f"   FLAG {failed} more failed ops than the base")
        for name, metric in metrics.items():
            b = [r["metrics"][name]["value"] for r in base
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new
                 if name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / abs(mb) if mb else float("nan")
            v = verdict(metric, b, n)
            worse += v == "worse"
            print(f"   {name:<34} {mb:>12.6g} {mn:>12.6g} {metric['unit']:<7}"
                  f" {change:+8.2%}  spread {spread(b):.1%}/{spread(n):.1%}"
                  f"  {v}")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
