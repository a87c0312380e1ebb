"""spextremal benchmark: one workload per run, each job in a fresh interpreter.

    python3 bench/run.py --workload verify-8|classes-9-3|search-5-2 \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
src/ directory, and the run fails (exit code 2, no result line) when that
directory is missing.  Units of work are started one after another until
the next one would end after S seconds; at least one always runs.  With
--trace 0 a unit is one untraced job, and the last stdout line reports the
end-to-end metrics as medians over the jobs; the line before it gives the
raw wall time and throughput.  With --trace 1 a unit is an untraced job
followed by a traced one, and the last line reports the per-layer metrics
of the traced jobs plus the tracing overhead.  See bench/NOTES.md for the
choice of workloads, the metrics and the predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PROBES_PER_UNIT = 3     # setup probes before each unit, spread over the run
TIME_LIMIT_S = 170.0   # a run must end within 180 s

# The inputs are fixed per workload: verify and count_classes take none, and
# the search seed is pinned (see NOTES.md); --seed is recorded with the run.
WORKLOADS = {
    "verify-8": {"kind": "verify", "n": 8, "instances": 386, "calibration": "fraction"},
    "classes-9-3": {"kind": "classes", "n": 9, "k": 3, "instances": 107, "classes": 23,
                    "calibration": "fraction"},
    "search-5-2": {"kind": "search", "n": 5, "k": 2, "seed": 1, "attempts": 40,
                   "classes": 2, "calibration": "numpy"},
}

# Bounded end-to-end metrics.  Raw wall time drifts with the machine's
# load (see NOTES.md), so it is reported beside the result, not gated.
END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}
RAW_UNITS = {"wall_s": "s", "items_per_s": "1/s"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(spec: dict, mode: str, deadline: float, spans_path: Path | None = None) -> dict:
    """Run bench/job.py once and return its record, with setup_s added."""
    argv = [sys.executable, str(BENCH / "job.py"), json.dumps(spec), mode]
    if spans_path is not None:
        argv.append(str(spans_path))
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} job did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} job exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - start
    return record


def environment(seed: int, workload: str) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except FileNotFoundError:
            pass
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def measure(spec: dict, seconds: float, trace: bool, label: str):
    """Run jobs for about `seconds`; return the result object and the job records."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    spawn(spec, "probe", deadline)        # compiles bytecode; not counted
    setups, plain, traced, unit_s = [], [], [], []
    while True:
        unit_start = time.perf_counter()
        setups += [spawn(spec, "probe", deadline)["setup_s"] for _ in range(PROBES_PER_UNIT)]
        plain.append(spawn(spec, "plain", deadline))
        if trace:
            OUT.mkdir(exist_ok=True)
            traced.append(spawn(spec, "traced", deadline, OUT / f"{label}-spans.csv.gz"))
        now = time.perf_counter()
        unit_s.append(now - unit_start)
        if now - start + statistics.median(unit_s) > seconds:
            break
    jobs = plain + traced
    setups += [job["setup_s"] for job in jobs]
    attempted = sum(job["attempted"] for job in jobs)
    failed = sum(job["failed"] for job in jobs)
    raw_values = {"wall_s": statistics.median(j["wall_s"] for j in plain),
                  "items_per_s": statistics.median(j["items"] / j["wall_s"] for j in plain)}
    if trace:
        units = metric_units()
        values = {name: statistics.median(job["layers"][name] for job in traced)
                  for name in units}
        values["trace.overhead_s"] = (statistics.median(j["wall_s"] for j in traced)
                                      - statistics.median(j["wall_s"] for j in plain))
        units["trace.overhead_s"] = "s"
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setups),
            "wall_rel": statistics.median(j["wall_s"] / j["calib_s"] for j in plain),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for job in traced:
        del job["layers"]
    raw = {name: {"value": raw_values[name], "unit": unit} for name, unit in RAW_UNITS.items()}
    return result, {"raw": raw, "setup_s": setups, "plain": plain, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spextremal" / "__init__.py").is_file():
        print(f"no spextremal sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = environment(args.seed, args.workload)
    label = f"{args.workload}-trace{args.trace}"
    try:
        result, jobs = measure(WORKLOADS[args.workload], args.seconds, bool(args.trace),
                               label)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{label}.json").write_text(json.dumps(
        {"environment": env, "result": result, "jobs": jobs}, indent=2) + "\n")
    print("environment " + json.dumps(env))
    print("raw " + json.dumps(jobs["raw"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
