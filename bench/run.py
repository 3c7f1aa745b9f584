"""Run one benchmark workload, or all of them, and print the metrics.

    python3 bench/run.py --workload spin-search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  jordanalg is imported from ./src, never
from an installed copy.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, and the spans go to bench/out/trace-<workload>-seed<n>.jsonl.
Every run also writes bench/out/result-<workload>-seed<n>-trace<t>.json
with the environment stamp.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("albert-cli", "spin-search")

# Fresh interpreters timed for the import part of setup_s.
IMPORT_PROBES = 5
# Passes run by each phase of a traced run (the same passes, untraced then
# traced), fixed so that every count repeats exactly for a seed.
TRACED_PASSES = {"albert-cli": 1, "spin-search": 2}
# The job tail is the median of the slowest tenth of the jobs, or of the
# slowest TAIL_MIN_JOBS when a tenth is fewer.
TAIL_MIN_JOBS = 4

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Times are in reference seconds (see Phase).
END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
# Reported with the end-to-end metrics but not bounded in BENCHMARK.json:
# the bounded times in wall time, which carries the host's drift; the
# median job time, which flips between groups of jobs of different cost;
# the failed ratio, 0 on a correct program; and the median time of the
# reference kernel.
UNBOUNDED_UNITS = {"wall_setup_s": "s", "wall_jobs_per_s": "1/s", "wall_job_tail_s": "s",
                   "job_p50_s": "s", "failed_ratio": "ratio", "reference_kernel_s": "s"}


def kernel_seconds(workload) -> float:
    """Wall time of one call of the workload's reference kernel."""
    t0 = time.perf_counter()
    workload.reference()
    return time.perf_counter() - t0


def reference_seconds(workload, wall: float, kernel_before: float, kernel_after: float) -> float:
    """`wall` scaled to a host that runs the workload's reference kernel in
    `workload.reference_s`, from kernel times taken right before and after."""
    return wall * workload.reference_s / ((kernel_before + kernel_after) / 2)


def tail(times: list[float]) -> tuple[float, int]:
    """(value, jobs): the median of the slowest tenth of `times`, or of
    the slowest TAIL_MIN_JOBS, and how many that was."""
    times = sorted(times)
    k = min(len(times), max(TAIL_MIN_JOBS, math.ceil(len(times) / 10)))
    return statistics.median(times[-k:]), k


class SetupError(Exception):
    """The program could not be found or imported."""


def import_jordanalg():
    """Import jordanalg from ./src, refusing any other copy.  BLAS and
    OpenMP pools are pinned to one thread first, since numpy comes with it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    try:
        import jordanalg
    except ImportError as exc:
        raise SetupError(f"cannot import jordanalg from {SRC}: {exc}") from exc
    found = os.path.dirname(os.path.abspath(jordanalg.__file__))
    if found != os.path.join(SRC, "jordanalg"):
        raise SetupError(f"jordanalg imported from {found}, not from {SRC}")
    return jordanalg


def import_probe_seconds(workload) -> tuple[float, float]:
    """Median time for a fresh interpreter to start and import jordanalg:
    (reference seconds, wall seconds)."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import jordanalg"
    ref, wall = [], []
    for _ in range(IMPORT_PROBES):
        before = kernel_seconds(workload)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        ref.append(reference_seconds(workload, wall[-1], before, kernel_seconds(workload)))
    return statistics.median(ref), statistics.median(wall)


def environment_stamp(args) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# running jobs


class Phase:
    """Job and pass times and failures of one run over a workload's passes.

    The host's speed drifts by a third and more within minutes on a shared
    host (bench/README.md), so the workload's reference kernel, fixed work
    that uses no jordanalg code, is timed before and after every job, and
    each job's wall time is also kept in reference seconds.
    """

    def __init__(self, workload):
        self.workload = workload
        self.job_seconds: list[float] = []
        self.job_ref_seconds: list[float] = []
        self.kernel_seconds: list[float] = []
        self.pass_rates: list[float] = []
        self.pass_ref_rates: list[float] = []
        self.failed = 0
        self.elapsed = 0.0

    def run(self, passes, *, seconds=None, max_passes=None, tracer=None):
        """Run whole passes: until the jobs have taken `seconds` reference
        seconds, or `max_passes`.  In reference seconds, so that how many
        passes a run makes does not depend on the host's speed."""
        start = time.perf_counter()
        for count, jobs in enumerate(passes):
            if max_passes is not None and count >= max_passes:
                break
            if seconds is not None and sum(self.job_ref_seconds) >= seconds:
                break
            first = len(self.job_seconds)
            kernel_before = kernel_seconds(self.workload)
            for job in jobs:
                if tracer is not None:
                    tracer.current_job = len(self.job_seconds)
                t0 = time.perf_counter()
                try:
                    job()
                except Exception:  # noqa: BLE001  the loop must go on; the job counts as failed
                    self.failed += 1
                    print(f"job {len(self.job_seconds)} failed:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                seconds_taken = time.perf_counter() - t0
                kernel_after = kernel_seconds(self.workload)
                self.job_seconds.append(seconds_taken)
                self.job_ref_seconds.append(reference_seconds(
                    self.workload, seconds_taken, kernel_before, kernel_after))
                self.kernel_seconds.append(kernel_before)
                kernel_before = kernel_after
            self.pass_rates.append(len(jobs) / sum(self.job_seconds[first:]))
            self.pass_ref_rates.append(len(jobs) / sum(self.job_ref_seconds[first:]))
        self.elapsed = time.perf_counter() - start
        return self

    @property
    def jobs_per_s(self) -> float:
        """Median over passes of jobs per wall second."""
        return statistics.median(self.pass_rates)

    @property
    def jobs_per_ref_s(self) -> float:
        """Median over passes of jobs per reference second."""
        return statistics.median(self.pass_ref_rates)


def end_to_end(setup: tuple[float, float], phase: Phase) -> tuple[dict, dict]:
    """The end-to-end metrics and the details, from setup_s as
    (reference, wall) seconds and the timed phase."""
    tail_ref, tail_jobs = tail(phase.job_ref_seconds)
    values = {
        "setup_s": setup[0],
        "jobs_per_s": phase.jobs_per_ref_s,
        "job_tail_s": tail_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "wall_setup_s": setup[1],
        "wall_jobs_per_s": phase.jobs_per_s,
        "wall_job_tail_s": tail(phase.job_seconds)[0],
        "job_p50_s": statistics.median(phase.job_ref_seconds),
        "reference_kernel_s": statistics.median(phase.kernel_seconds),
        "failed_ratio": phase.failed / len(phase.job_seconds),
        "jobs": len(phase.job_seconds),
        "passes": len(phase.pass_rates),
        "tail_jobs": tail_jobs,
        "elapsed_s": phase.elapsed,
    }
    return values, details


def run_workload(args, import_s: float) -> dict:
    import workloads
    from tracer import Tracer, metric_unit

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        before = kernel_seconds(workload)
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer:
                workload.setup()
        else:
            workload.setup()
        prepare_s = time.perf_counter() - t0
        prepare_ref_s = reference_seconds(workload, prepare_s, before, kernel_seconds(workload))

        if not args.trace:
            phase = Phase(workload).run(workload.passes(), seconds=args.seconds)
            probe_ref_s, probe_s = import_probe_seconds(workload)
            values, details = end_to_end((probe_ref_s + prepare_ref_s, probe_s + prepare_s), phase)
            details.update(import_probe_s=probe_ref_s, prepare_s=prepare_ref_s,
                           wall_in_process_import_s=import_s)
            units = END_TO_END_UNITS
            phases = [phase]
        else:
            k = TRACED_PASSES[args.workload]
            plain = Phase(workload).run(workload.passes(), max_passes=k)
            with tracer:
                traced = Phase(workload).run(workload.passes(), max_passes=k, tracer=tracer)
            values = tracer.layer_metrics()
            values["trace_overhead_ratio"] = traced.jobs_per_ref_s / plain.jobs_per_ref_s
            units = {name: metric_unit(name) for name in values}
            details = {"traced_jobs": len(traced.job_seconds),
                       "untraced_jobs_per_s": plain.jobs_per_ref_s,
                       "traced_jobs_per_s": traced.jobs_per_ref_s,
                       "spans": len(tracer.start)}
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_jsonl(trace_path)
            details["trace_file"] = os.path.relpath(trace_path, ROOT)
            phases = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.job_seconds) for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        "details": details,
    }


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")


# ---------------------------------------------------------------------------
# all workloads, each in a fresh process


def run_all(args) -> int:
    rows = []
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results[name] = result
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        with open(result_path(name, args.seed, args.trace), encoding="utf-8") as handle:
            details = json.load(handle)["details"]
        details["failed_ratio"] = result["failed"] / result["attempted"]
        for metric, unit in UNBOUNDED_UNITS.items():
            if metric in details:
                rows.append((name, metric, details[metric], unit))
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<{width}} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        t0 = time.perf_counter()
        import_jordanalg()
        import_s = time.perf_counter() - t0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args, import_s)
    result["details"]["stamp"] = environment_stamp(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(result_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
    for key, value in result["details"].items():
        if key != "stamp":
            print(f"# {key}: {value}")
    print(f"# stamp: {json.dumps(result['details']['stamp'])}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
