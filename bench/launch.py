"""Running ``pairsum`` as fresh processes from the checkout's ``src`` tree."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def program_present() -> bool:
    return (SRC / "pairsum" / "cli.py").is_file()


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class JobResult:
    argv: list[str]
    wall_s: float
    returncode: int | None  # None: killed at the timeout
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


def run_process(cmd: list[str], timeout: float) -> tuple[float, int | None, bytes, bytes, float]:
    """Run cmd to completion: (wall seconds from launch to exit, exit code or
    None if it was killed at the timeout, stdout, stderr, max RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), cwd=ROOT
    )
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # stderr is read after stdout; pairsum writes at most a short message
        # there, far below the pipe buffer, so the child cannot block on it.
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return wall, code, out, err, usage.ru_maxrss / 1024


def run_job(argv: list[str], timeout: float) -> JobResult:
    return JobResult(argv, *run_process([sys.executable, "-m", "pairsum", *argv], timeout))


IMPORT_CLI = [sys.executable, "-c", "import pairsum.cli"]


def setup_seconds(launches: int) -> float:
    """Median wall time of fresh interpreters importing pairsum.cli.

    One untimed launch first writes the bytecode caches, which users pay once
    per install, not per command.
    """
    run_process(IMPORT_CLI, 60)
    times = []
    for _ in range(launches):
        wall, code, _, err, _ = run_process(IMPORT_CLI, 60)
        if code != 0:
            raise RuntimeError(f"importing pairsum.cli failed: {err.decode()[-500:]}")
        times.append(wall)
    return statistics.median(times)
