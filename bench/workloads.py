"""The benchmark's workloads and their seeded job lists.

A job is the argv one ``pairsum`` process receives.  The seed sets the order
of the jobs in a pass and, on ``cli-small``, the mode and format of each
job; the set of (command, size) cells is fixed so that runs with different
seeds do comparable work.
"""

from __future__ import annotations

import os
import random

WHY = {
    "cli-small": (
        "everyday commands at n <= 12: interpreter start and import (numpy"
        " included) are most of each job, so import weight and per-call overhead show"
    ),
    "chi-large": (
        "charpoly and table at n = 18 in both modes: about 95% of the time is"
        " series mul/exp/log on ~4k-term Fraction series; the oracles stay idle"
    ),
    "verify-oracles": (
        "verify at n = 5 and 6 with 1 and 2 workers: subset scan, point counts,"
        " graph census and pool start dominate; series work is a few percent"
    ),
}

# A hung or runaway job is killed after this many seconds and counts as failed.
TIMEOUT_S = {"cli-small": 30, "chi-large": 120, "verify-oracles": 60}

MODES = ("corrected", "paper")
FORMATS = ("text", "json", "latex")
SMALL_MAX = 12
LARGE_N = 18
VERIFY_PRIMES = "5,7,11,13,17,19,23"


def _balanced(rng: random.Random, values: tuple[str, ...], count: int) -> list[str]:
    """count draws in which every value appears equally often, in seeded order."""
    picks = [values[i % len(values)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _cli_small(rng: random.Random) -> list[list[str]]:
    pipeline = [
        [command, flag, str(k)]
        for command, flag in (("charpoly", "--n"), ("chambers", "--n"), ("table", "--to"))
        for k in range(2, SMALL_MAX + 1)
    ]
    bipartite = [["bipartite", "--to", str(k)] for k in range(1, SMALL_MAX + 1)]
    modes = _balanced(rng, MODES, len(pipeline))
    for argv, mode in zip(pipeline, modes):
        argv += ["--mode", mode]
    jobs = pipeline + bipartite
    for argv, fmt in zip(jobs, _balanced(rng, FORMATS, len(jobs))):
        argv += ["--format", fmt]
    return jobs


def _chi_large(rng: random.Random) -> list[list[str]]:
    size = str(LARGE_N)
    return [
        [command, flag, size, "--max-n", size, "--mode", mode]
        for command, flag in (("charpoly", "--n"), ("table", "--to"))
        for mode in MODES
    ]


def verify_workers() -> tuple[int, int]:
    """The two worker counts compared; never more than the CPUs present."""
    return 1, min(2, os.cpu_count() or 1)


def _verify_oracles(rng: random.Random) -> list[list[str]]:
    commands = [
        ["verify", "--n", "5"],
        ["verify", "--n", "6", "--oracles", "ffield,graphs", "--primes", VERIFY_PRIMES],
    ]
    return [
        argv + ["--workers", str(workers), "--format", "json"]
        for argv in commands
        for workers in verify_workers()
    ]


_GENERATORS = {
    "cli-small": _cli_small,
    "chi-large": _chi_large,
    "verify-oracles": _verify_oracles,
}
NAMES = tuple(_GENERATORS)


def job_list(workload: str, seed: int) -> list[list[str]]:
    """One pass of the workload: the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> list[list[str]]:
    """Every argv any seed can generate, for recording reference digests."""
    small = []
    for command, flag, low in (
        ("charpoly", "--n", 2),
        ("chambers", "--n", 2),
        ("table", "--to", 2),
        ("bipartite", "--to", 1),
    ):
        for k in range(low, SMALL_MAX + 1):
            modes = [["--mode", m] for m in MODES] if command != "bipartite" else [[]]
            for mode in modes:
                for fmt in FORMATS:
                    small.append([command, flag, str(k), *mode, "--format", fmt])
    rng = random.Random(0)
    return small + _chi_large(rng) + _verify_oracles(rng)


def option(argv: list[str], flag: str, default: str) -> str:
    """The value argv gives a flag, or the CLI's default for it."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def job_size(argv: list[str]) -> int:
    """The n (or --to bound) a job works at."""
    return int(argv[2])
