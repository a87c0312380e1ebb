"""One benchmark job in a fresh interpreter; prints one JSON line.

    python3 bench/job.py '<workload spec JSON>' plain|traced|probe [spans.csv.gz]

Started by bench/run.py with PYTHONPATH pointing at the checkout's src/ and
BLAS pinned to one thread.  The time at which ``import spextremal`` completes
is reported as ``ready`` (a time.perf_counter reading, which is the
system-wide monotonic clock, so the parent can subtract its own start
time).  A fixed calibration loop is timed just before and just after the
workload and, in untraced jobs, every tenth of a second while it runs; the workload's outputs are checked afterwards, outside the timed
region and with tracing removed.
"""

import time

import spextremal

READY = time.perf_counter()

import contextlib  # noqa: E402  (imports after the setup measurement)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spextremal import cli, extremal, search, sptree  # noqa: E402

from tracer import Tracer  # noqa: E402


CALIBRATION_PERIOD_S = 0.1
EDGE_SAMPLES = 10


def fraction_loop() -> float:
    """Seconds taken by a fixed stdlib-only loop of Fraction, int and dict work."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 300):
        acc += Fraction(i % 61 + 1, i % 53 + 1)
        key = i % 101
        table[key] = table.get(key, 0) + i * i
    elapsed = time.perf_counter() - start
    if acc <= 0 or len(table) != 101:
        raise RuntimeError("calibration loop computed a wrong value")
    return elapsed


_SUBSETS = np.array([[0, 1], [0, 2], [1, 2], [3, 4], [2, 4]])


def numpy_loop() -> float:
    """Seconds taken by a fixed loop of small numpy SVDs, shaped like a search step."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(40):
        u, _, _ = np.linalg.svd(rng.standard_normal((5, 2)), full_matrices=False)
        sigma = np.linalg.svd(u[_SUBSETS, :], compute_uv=False)
    elapsed = time.perf_counter() - start
    if not np.all(np.isfinite(sigma)):
        raise RuntimeError("calibration loop computed a wrong value")
    return elapsed


# Each workload is divided by the loop whose work resembles its own: the
# exact workloads are interpreter-bound Fraction arithmetic, search makes
# about 10^5 tiny numpy calls.  Neither loop calls spextremal.
CALIBRATION_LOOPS = {"fraction": fraction_loop, "numpy": numpy_loop}


class Calibration:
    """Samples the calibration loop around a workload, and inside it on a timer.

    A shared virtual machine can change speed within seconds, so short
    samples taken only before and after a job miss what the job saw;
    samples every CALIBRATION_PERIOD_S of wall time follow it.
    ``during_s`` is the time the in-run samples took from the workload.
    """

    def __init__(self, loop, in_run: bool):
        self.loop = loop
        self.in_run = in_run
        self.samples: list[float] = []
        self.during_s = 0.0

    def _tick(self, signum, frame):
        took = self.loop()
        self.samples.append(took)
        self.during_s += took

    def __enter__(self):
        self.samples += [self.loop() for _ in range(EDGE_SAMPLES)]
        if self.in_run:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                             CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.in_run:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [self.loop() for _ in range(EDGE_SAMPLES)]


def run_verify(spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(spec["n"])])
    return code, out.getvalue()


def check_verify(spec, outcome):
    code, text = outcome
    payload = json.loads(text)
    instances = payload["instances"]
    checks = [code == 0, payload["all_ok"] is True,
              len(instances) == spec["instances"]]
    for report in instances:
        checks += [report["eigen_ok"], report["degenerate_ok"],
                   report["target_ok"], report["dual_ok"]]
    return checks, len(instances)


def run_classes(spec):
    return extremal.count_classes(spec["n"], spec["k"])


def check_classes(spec, count):
    instances = len(sptree.enumerate_rooted(spec["n"], spec["k"]))
    return [count == spec["classes"], instances == spec["instances"]], instances


def run_search(spec):
    cfg = search.SearchConfig(seed=spec["seed"], attempts=spec["attempts"])
    return search.accumulate(spec["n"], spec["k"], cfg)


def check_search(spec, result):
    """No violation, the expected class count, and every representative
    symmetric to a constructive instance (acceptance criterion 8)."""
    n, k = spec["n"], spec["k"]
    constructive = [extremal.build(t).subspace for t in sptree.enumerate_rooted(n, k)]
    checks = [result.violation is None, len(result.classes) == spec["classes"]]
    for member, _ in result.classes:
        checks.append(any(search.symmetry_equivalent(member, c, 1e-3)
                          for c in constructive))
    return checks, result.restarts


KINDS = {
    "verify": (run_verify, check_verify),
    "classes": (run_classes, check_classes),
    "search": (run_search, check_search),
}


def main(argv) -> int:
    spec, mode = json.loads(argv[1]), argv[2]
    src = Path.cwd().resolve() / "src"
    if src not in Path(spextremal.__file__).resolve().parents:
        print(f"spextremal was imported from {spextremal.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    if mode == "probe":
        print(json.dumps({"ready": READY}))
        return 0
    run, check = KINDS[spec["kind"]]
    tracer = Tracer() if mode == "traced" else None
    # traced jobs skip the in-run samples so that they stay out of span self times
    with Calibration(CALIBRATION_LOOPS[spec["calibration"]], in_run=tracer is None) as calib:
        if tracer:
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        outcome = run(spec)
        wall = time.perf_counter() - start - calib.during_s
        cpu = time.process_time() - cpu_start - calib.during_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"ready": READY, "wall_s": wall, "cpu_s": cpu,
              "calib_s": statistics.fmean(calib.samples),
              "calib_samples": len(calib.samples), "peak_rss_mb": rss_mb}
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        tracer.write_spans(argv[3])
    checks, items = check(spec, outcome)
    record.update(items=items, attempted=len(checks),
                  failed=sum(1 for ok in checks if not ok))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
