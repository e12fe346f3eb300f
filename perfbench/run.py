"""rfharvest benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``. With ``--trace 0`` the run repeats rounds of the workload
until ``--seconds`` have passed and reports the end-to-end metrics
listed in ``BENCHMARK.json``. With ``--trace 1`` it runs each of the
workload's fixed number of rounds untraced and then again with every
layer boundary traced, and reports the per-layer metrics. The last line of
stdout is the JSON result; the lines before it describe the run, its
environment and its failures. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# single-threaded BLAS: set before numpy loads; set-up probes inherit it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
CALIBRATION_ITERATIONS = 30_000
# the calibration loop's time on an idle core of the development host
# (Xeon, 2 vCPU); it only sets the scale of the reported rates
REFERENCE_CALIBRATION_S = 0.00155


def load_library():
    """Import rfharvest from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "rfharvest" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import rfharvest

    if Path(rfharvest.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported rfharvest from {rfharvest.__file__}, not from {SRC}")
    return rfharvest


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python integer loop: the host's
    speed at this moment."""
    t0 = perf_counter()
    acc = 0
    for j in range(CALIBRATION_ITERATIONS):
        acc += j * j
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall time rescaled to the host's uncontended speed, using the
    calibration loop timed right before and right after."""
    return seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


def run_op(workload, op, tracer=None):
    """Execute one operation (timed) and check it (untimed).

    Returns the outcome, the scaled time and the wall time.
    """
    from workloads import Outcome

    before = calibrate()
    if tracer is not None:
        tracer.enabled = True
    error = None
    t0 = perf_counter()
    try:
        result = workload.execute(op)
    except Exception as exc:  # a failing operation is recorded and the run goes on
        error = exc
    finally:
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
    seconds = scaled(dt, before, calibrate())
    if error is not None:
        return Outcome(ok=False, work=0.0, output=type(error).__name__.encode(), error=_describe(error)), seconds, dt
    try:
        return workload.check(op, result), seconds, dt
    except Exception as exc:  # a check that cannot read the output counts as a wrong output
        return Outcome(ok=False, work=0.0, output=b"", error=f"check: {_describe(exc)}", wrong=True), seconds, dt


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


class Pass:
    """Outcomes, per-operation times and digests of consecutive rounds.

    The rate is the sum over operation kinds of the median work over the
    sum over kinds of the median scaled time (see ``scaled``).
    """

    def __init__(self, workload):
        self.workload = workload
        kinds = len(workload.round(0))
        self.outcomes = []
        self.works: list[list[float]] = [[] for _ in range(kinds)]
        self.times: list[list[float]] = [[] for _ in range(kinds)]
        self.wall_times: list[list[float]] = [[] for _ in range(kinds)]
        self.round_digests = []

    def run_round(self, tracer=None):
        digest = hashlib.sha256()
        for k, op in enumerate(self.workload.round(len(self.round_digests))):
            outcome, seconds, wall = run_op(self.workload, op, tracer)
            self.outcomes.append(outcome)
            digest.update(outcome.output)
            outcome.output = b""  # keeps memory flat over long runs
            self.works[k].append(outcome.work)
            self.times[k].append(seconds)
            self.wall_times[k].append(wall)
        self.round_digests.append(digest.hexdigest())

    def rate(self, times=None) -> float:
        work = sum(statistics.median(w) for w in self.works)
        return work / sum(statistics.median(t) for t in (times or self.times))

    def seconds(self) -> float:
        return sum(sum(t) for t in self.times)

    def stats(self) -> dict:
        total: dict = {}
        for o in self.outcomes:
            for key, value in o.stats.items():
                total[key] = total.get(key, 0) + value
        return total


def setup_samples(args) -> list[float]:
    """Scaled seconds from spawning a fresh interpreter until the
    workload's inputs are ready, each measured in its own process."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        samples.append(scaled(float(proc.stdout.split()[-1]) - t0, before, calibrate()))
    return samples


def environment(args) -> dict:
    import numpy as np

    def command(*argv):
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError, ValueError):  # older numpy has no dict form
        pass
    caches = {}
    for line in (command("getconf", "-a") or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].startswith("LEVEL") and parts[0].endswith("CACHE_SIZE"):
            caches[parts[0]] = int(parts[1])
    source = hashlib.sha256()
    for path in sorted((SRC / "rfharvest").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def failure_summary(outcomes) -> list[dict]:
    counts: dict = {}
    for o in outcomes:
        if not o.ok:
            counts[o.error] = counts.get(o.error, 0) + 1
    return [{"error": error, "count": n} for error, n in counts.items()]


def declared_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result_line(correct, outcomes, values: dict, kind: str) -> str:
    units = declared_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    return json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def measure(workload, args) -> str:
    """Untraced run: set-up probes, one warm-up op, then whole rounds
    until the time is up (or a fixed number of them, see
    ``Workload.round_seconds``). Reports the end-to-end metrics."""
    setup = setup_samples(args)
    warm = run_op(workload, workload.round(0)[0])[0]
    timed = Pass(workload)
    start = perf_counter()
    if workload.round_seconds:
        for _ in range(max(1, round(args.seconds / workload.round_seconds))):
            timed.run_round()
    else:
        while not timed.round_digests or perf_counter() - start < args.seconds:
            timed.run_round()
    rounds = len(timed.round_digests)
    outcomes = [warm] + timed.outcomes
    values = {
        "work_per_s": timed.rate(),
        "completed_frac": sum(1 for o in timed.outcomes if o.ok) / len(timed.outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    print(f"{workload.name}: {rounds} rounds of {len(timed.times)} ops in {perf_counter() - start:.2f} s, "
          f"{sum(1 for o in outcomes if not o.ok)} of {len(outcomes)} ops failed")
    print(f"work_per_s {values['work_per_s']:.6g} {workload.unit}/s from per-op median scaled times "
          f"({timed.rate(timed.wall_times):.6g} from unscaled wall times)")
    print(f"setup_s median {values['setup_s']:.4f} s over {len(setup)} fresh processes "
          f"(min {min(setup):.4f}, max {max(setup):.4f})")
    print(json.dumps({
        "environment": environment(args),
        "output_sha256": timed.round_digests[0],
        "op_scaled_seconds_median": [statistics.median(t) for t in timed.times],
        "op_wall_seconds_median": [statistics.median(t) for t in timed.wall_times],
        "failures": failure_summary(outcomes),
        "setup_samples_s": setup,
    }))
    correct = not any(o.wrong for o in outcomes)
    return result_line(correct, outcomes, values, "end_to_end")


def trace(workload, args) -> str:
    """Traced run: each of a fixed number of rounds runs untraced, then
    traced; per-layer metrics come from the traced rounds' spans."""
    from tracer import Tracer, layer_metrics

    warm = run_op(workload, workload.round(0)[0])[0]
    plain, traced, tracer = Pass(workload), Pass(workload), Tracer()
    # alternate untraced and traced rounds so that both see the same noise
    for _ in range(workload.trace_rounds):
        plain.run_round()
        with tracer.patch():
            traced.run_round(tracer)
    overhead = traced.seconds() / plain.seconds() - 1.0
    values = layer_metrics(tracer, traced.stats(), overhead)
    same = plain.round_digests == traced.round_digests
    outcomes = [warm] + plain.outcomes + traced.outcomes
    print(f"{workload.name} traced: {workload.trace_rounds} rounds, {len(tracer.names)} spans, "
          f"scaled time untraced {plain.seconds():.3f} s, traced {traced.seconds():.3f} s")
    print(json.dumps({
        "environment": environment(args),
        "output_sha256_untraced": plain.round_digests[0],
        "output_sha256_traced": traced.round_digests[0],
        "failures": failure_summary(outcomes),
    }))
    if not same:
        print("error: traced and untraced outputs differ", file=sys.stderr)
    correct = same and not any(o.wrong for o in outcomes)
    return result_line(correct, outcomes, values, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, workdir)
        print(repr(time.time()))
        return 0
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        line = trace(workload, args) if args.trace else measure(workload, args)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
