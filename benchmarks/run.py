"""Benchmark of the dfcvr correction cycle, end to end and layer by layer.

    python3 benchmarks/run.py --workload update_cg --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

Run from the repository root: the package is imported from ``src/``.
One process runs one workload as a closed loop of identical ops for
``--seconds`` (an op that starts before the deadline runs to its end).
With ``--trace 0`` the last line of standard output reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the first half
of the time runs untraced and the second half traced, and the last line
reports the per-layer metrics, with the difference between the two
halves as ``trace.overhead_frac``. ``--workload all`` runs each workload
in its own process and reports them all. Every run also writes its
result, with an environment block, to ``benchmarks/out/``; traced runs
add their spans there as JSON lines. See ``benchmarks/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Set-up runs at least SETUP_REPEATS times, then on until it has taken
# SETUP_SECONDS or run MAX_SETUP_REPEATS times; the median is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
MAX_SETUP_REPEATS = 40
COUNT_UNIT = "count"


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if not os.path.isfile(os.path.join(ROOT, "src", "dfcvr", "__init__.py")):
    # Without the package there is nothing to measure: fail before any
    # result line is printed.
    sys.exit(f"benchmarks/run.py: no dfcvr package under {ROOT}/src")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import NULL, Recorder  # noqa: E402
from workloads import FULL, WORKLOADS, Scale  # noqa: E402


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, str, int | None]:
    """BLAS name, version and thread count as the loaded library reports."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        import ctypes
        for name in sorted(os.listdir(libs)):
            if "openblas" in name:
                lib = ctypes.CDLL(os.path.join(libs, name))
                for sym in ("scipy_openblas_get_num_threads64_",
                            "openblas_get_num_threads64_",
                            "openblas_get_num_threads"):
                    if hasattr(lib, sym):
                        fn = getattr(lib, sym)
                        fn.restype = ctypes.c_int
                        threads = int(fn())
                        break
    except OSError:
        pass
    return info.get("name", "unknown"), info.get("version", "unknown"), threads


def environment(seed: int, fixture_seed: int) -> dict:
    blas, blas_version, blas_threads = _blas()
    env = {
        "commit": _commit(), "seed": seed, "fixture_seed": fixture_seed,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_version": blas_version,
        "blas_threads": blas_threads,
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _loop(wl, rec, seconds: float, first_op: int):
    """Closed loop for ``seconds``.

    Returns the times of good ops, the times of failed ones and a
    message per failure.
    """
    good: list[float] = []
    bad: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    op_id = first_op
    while op_id == first_op or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        error = None
        try:
            with rec.op(op_id):
                out = wl.op(rec)
        except Exception as exc:  # a failed op is counted; the loop goes on
            error = exc
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                wl.check(out)
            except Exception as exc:  # a wrong output fails the op
                error = exc
        if error is None:
            good.append(elapsed)
        else:
            bad.append(elapsed)
            failures.append(f"op {op_id}: " + "".join(
                traceback.format_exception_only(error)).strip())
        op_id += 1
    return good, bad, failures


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 fixture_seed: int = 0, scale: Scale = FULL) -> dict:
    """Run one workload; returns the result line plus details."""
    spec = _load_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[name](scale, seed, fixture_seed, workdir)
        setup_times: list[float] = []
        while len(setup_times) < SETUP_REPEATS or (
                sum(setup_times) < SETUP_SECONDS
                and len(setup_times) < MAX_SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

        rec = None
        if trace:
            plain, bad, failed = _loop(wl, NULL, seconds / 2, 0)
            rec = Recorder()
            layers.install(rec)
            try:
                traced, bad_traced, failed_traced = _loop(
                    wl, rec, seconds / 2, len(plain) + len(bad))
            finally:
                rec.uninstall()
            bad += bad_traced
            failed += failed_traced
            good = plain + traced
        else:
            good, bad, failed = _loop(wl, NULL, seconds, 0)
        # Quality figures need one good op; without one they read 0.
        summary = wl.summary() if good else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {
        "op_s": _median(good or bad),
        "setup_s": _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }
    values.update(summary)
    problems = list(failed)
    if trace:
        per_op_layers, ops = layers.per_layer(rec)
        values.update(per_op_layers)
        values["trace.overhead_frac"] = (
            _median(traced) / _median(plain) - 1 if traced and plain else 0.0)
        for m in listed:
            if m["unit"] == COUNT_UNIT and m["name"] in ops[0]:
                seen = {o.get(m["name"], 0.0) for o in ops}
                if len(seen) > 1:
                    problems.append(f"count {m['name']} differs between "
                                    f"ops: {sorted(seen)}")
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing and good:
        raise KeyError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}
    attempted = len(good) + len(failed)
    return {
        "result": {"correct": not problems, "attempted": attempted,
                   "failed": len(failed), "metrics": metrics},
        "workload": name,
        "op_metric": wl.op_metric,
        "op_times_s": good,
        "setup_times_s": setup_times,
        "summary": summary,
        "problems": problems,
        "recorder": rec,
    }


def _write(run: dict, env: dict, trace: bool) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    base = os.path.join(
        OUT, f"{run['workload']}-seed{env['seed']}-trace{int(trace)}-{stamp}")
    with open(base + ".json", "w") as fh:
        json.dump({"env": env, "workload": run["workload"],
                   "trace": int(trace), **run["result"],
                   "op_times_s": run["op_times_s"],
                   "setup_times_s": run["setup_times_s"],
                   "problems": run["problems"]}, fh, indent=1)
    if run["recorder"] is not None:
        run["recorder"].write_jsonl(base + ".spans.jsonl")
    return base + ".json"


def _report(run: dict, env: dict, path: str) -> None:
    times = run["op_times_s"]
    print(f"env {json.dumps(env, sort_keys=True)}")
    if times:
        pct, value = layers.tail(times)
        print(f"{run['op_metric']} median {_median(times):.4f} s, "
              f"p{pct:.0f} {value:.4f} s over {len(times)} good ops")
    res = run["result"]
    print(f"ops {res['attempted']} ops_failed {res['failed']}")
    for key, value in sorted(run["summary"].items()):
        print(f"{key} {value:.6g}")
    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"result written to {os.path.relpath(path, ROOT)}")


def _run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--fixture-seed", str(args.fixture_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        total["correct"] = total["correct"] and last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (see workloads.py)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture-seed", type=int, default=0,
                        help="data and training seed of the fixture; 4, 7 "
                             "and 8 make the MLP update fail (see NOTES.md)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.fixture_seed < 0 or args.seconds <= 0:
        parser.error("seeds must be non-negative and seconds positive")
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return _run_all(args)
    env = environment(args.seed, args.fixture_seed)
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.fixture_seed)
    path = _write(run, env, bool(args.trace))
    _report(run, env, path)
    print(json.dumps(run["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
