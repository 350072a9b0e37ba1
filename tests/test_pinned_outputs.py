"""Every argv the benchmark runs prints the stdout its recorded digest pins.

Runs each job of ``bench/workloads.all_jobs()`` through ``pairsum.cli.main``
in-process and checks it with ``bench/checks.check_job`` against
``bench/digests.json``: byte-identical stdout, and for corrected-mode jobs
the closed form, for ``verify`` a PASS report.  Those argv spell out every
flag, so a second test pins the defaults: with them left out, an argv prints
the bytes pinned for the argv that spells them out.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from pairsum.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402


def run(argv):
    """(exit code, stdout bytes) of main on argv, in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def test_every_benchmarked_argv_prints_its_pinned_stdout():
    digests = checks.load_digests()
    failures = []
    for argv in workloads.all_jobs():
        reason = checks.check_job(argv, *run(argv), digests)
        if reason is not None:
            failures.append((" ".join(argv), reason))
    assert failures == []


# argv that leave --mode, --format or --workers at its default, each with the
# argv that spells the default out, a key of bench/digests.json
SPELLED_OUT = {
    "charpoly --n 3": "charpoly --n 3 --mode corrected --format text",
    "charpoly --n 2 --format json": "charpoly --n 2 --mode corrected --format json",
    "charpoly --n 2 --format latex": "charpoly --n 2 --mode corrected --format latex",
    "chambers --n 2": "chambers --n 2 --mode corrected --format text",
    "chambers --n 3 --format json": "chambers --n 3 --mode corrected --format json",
    "table --to 4 --format json": "table --to 4 --mode corrected --format json",
    "table --to 3 --format latex": "table --to 3 --mode corrected --format latex",
    "verify --n 5 --format json": "verify --n 5 --workers 1 --format json",
}


@pytest.mark.parametrize("argv", SPELLED_OUT)
def test_default_flags_are_pinned(argv):
    spelled = SPELLED_OUT[argv].split()
    assert checks.check_job(spelled, *run(argv.split()), checks.load_digests()) is None
