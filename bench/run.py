"""pairsum benchmark.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Runs the workload's seeded job list as fresh ``pairsum`` processes, one at a
time from a single client (a closed loop), checks every job's output and
prints every metric with its unit.  The last stdout line is one JSON object
with the metrics named in ``BENCHMARK.json``: ``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1`` (a separate traced pass, see
``tracing.py``).  ``--workload all`` runs every workload in turn.  A full
record (environment, seed, argv list, per-job results, spans) is written
under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import launch
import workloads

SETUP_LAUNCHES = 7
# Stop starting jobs after this long so that a run ends within 180 s even
# when jobs hang; the rest of the pass then fails at once on its timeout.
RUN_LIMIT_S = 160
RESULTS = launch.ROOT / "bench" / "results"


def env_stamp() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None  # a checkout without .git records no commit
    if (launch.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=launch.ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "load_start": os.getloadavg()[0],
    }


def finish_stamp(stamp: dict) -> None:
    stamp["load_end"] = os.getloadavg()[0]
    stamp["loaded"] = max(stamp["load_start"], stamp["load_end"]) > (stamp["nproc"] or 1)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, when that lies above the median."""
    n = len(samples)
    if n < 21:
        return None
    return 100 * (n - 10) / n, sorted(samples)[n - 11]


def _workers(argv: list[str]) -> int | None:
    return int(workloads.option(argv, "--workers", "0")) or None


def _worker_mismatches(results: list[launch.JobResult], failures: dict[int, str]) -> None:
    """Mark jobs whose output differs from the same job at another worker
    count (apart from the workers field)."""
    seen: dict[str, tuple[int, dict]] = {}
    for i, r in enumerate(results):
        if _workers(r.argv) is None or i in failures:
            continue
        at = r.argv.index("--workers")
        key = " ".join(r.argv[:at] + r.argv[at + 2:])
        report = checks.without_workers(r.stdout)
        if key in seen and seen[key][1] != report:
            failures[i] = f"output differs from job {seen[key][0]} apart from workers"
        seen.setdefault(key, (i, report))


def e2e_run(workload: str, seed: int, seconds: int) -> dict:
    jobs = workloads.job_list(workload, seed)
    digests = checks.load_digests()
    setup_s = launch.setup_seconds(SETUP_LAUNCHES)
    start = time.perf_counter()
    results: list[launch.JobResult] = []
    failures: dict[int, str] = {}
    pass_walls: list[float] = []
    while True:
        pass_start = time.perf_counter()
        batch = []
        for argv in jobs:
            left = RUN_LIMIT_S - (time.perf_counter() - start)
            batch.append(launch.run_job(argv, max(1.0, min(workloads.TIMEOUT_S[workload], left))))
        pass_walls.append(time.perf_counter() - pass_start)
        pass_failures: dict[int, str] = {}
        for i, r in enumerate(batch):
            reason = checks.check_job(r.argv, r.returncode, r.stdout, digests)
            if reason is not None:
                pass_failures[i] = reason
        _worker_mismatches(batch, pass_failures)
        failures.update({len(results) + i: why for i, why in pass_failures.items()})
        results += batch
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_walls) > seconds or elapsed > RUN_LIMIT_S / 2:
            break

    walls = [r.wall_s for r in results]
    metrics = {
        "wall_s": (statistics.median(pass_walls), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r.maxrss_mb for r in results), "MB"),
        "fail_frac": (len(failures) / len(results), "ratio"),
    }
    notes = {
        "wall_s": f"median of {len(pass_walls)} passes of {len(jobs)} jobs",
        "job_p50_s": f"{len(walls)} samples",
        "setup_s": f"median of {SETUP_LAUNCHES} launches",
    }
    high = tail(walls)
    if high is not None:
        metrics["job_tail_s"] = (high[1], "s")
        notes["job_tail_s"] = f"p{high[0]:.1f} of {len(walls)} samples"
    by_workers: dict[int, float] = {}
    for r in results:
        if _workers(r.argv) is not None:
            by_workers[_workers(r.argv)] = by_workers.get(_workers(r.argv), 0.0) + r.wall_s
    low_w, high_w = workloads.verify_workers()
    if by_workers and high_w > low_w:
        metrics["w2_speedup"] = (by_workers[low_w] / by_workers[high_w], "x")
        notes["w2_speedup"] = f"summed w{low_w} time over summed w{high_w} time"
    return {
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
        "notes": notes,
        "jobs": [
            {
                "argv": r.argv,
                "wall_s": r.wall_s,
                "returncode": r.returncode,
                "maxrss_mb": r.maxrss_mb,
                "failure": failures.get(i),
                "stderr": r.stderr.decode(errors="replace")[-2000:] if i in failures else "",
            }
            for i, r in enumerate(results)
        ],
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    stamp = env_stamp()
    if trace:
        import tracing

        record = tracing.traced_run(workload, seed)
        record["notes"] = {}
    else:
        record = e2e_run(workload, seed, seconds)
    finish_stamp(stamp)
    record.update(
        workload=workload,
        why=workloads.WHY[workload],
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        argv=workloads.job_list(workload, seed),
        env=stamp,
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=list) + "\n")

    print(f"workload {workload} (seed {seed}): {record['why']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    if stamp["loaded"]:
        print(f"warning: load average exceeded nproc={stamp['nproc']} during this run")
    print(f"jobs: {record['attempted']} attempted, {record['failed']} failed")
    for job in record["jobs"]:
        if job["failure"]:
            print(f"  FAILED {' '.join(job['argv'])}: {job['failure']}")
    for name, (value, unit) in record["metrics"].items():
        note = record["notes"].get(name)
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    if trace:
        for job in record["jobs"]:
            if job["argv"][0] == "charpoly":
                print(
                    f"  {' '.join(job['argv'])}: central.* and charpoly.* spans"
                    f" {job['stage_spans_s']:.3f} s, traced cli.main {job['traced_main_s']:.3f} s,"
                    f" untraced cli.main {job['main_s']:.3f} s"
                )
    print(f"record: {path.relative_to(launch.ROOT)}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec_path = launch.ROOT / "BENCHMARK.json"
    if not launch.program_present() or not spec_path.is_file():
        print(f"error: {launch.SRC / 'pairsum'} or {spec_path} is missing", file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        for metric in wanted:
            value, unit = record["metrics"][metric]
            key = metric if len(names) == 1 else f"{name}.{metric}"
            summary["metrics"][key] = {"value": value, "unit": unit}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
