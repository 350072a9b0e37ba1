"""Every argv the benchmark runs prints the stdout its recorded digest pins.

Runs each job of ``bench/workloads.all_jobs()`` through ``pairsum.cli.main``
in-process and checks it with ``bench/checks.check_job`` against
``bench/digests.json``: byte-identical stdout, and for corrected-mode jobs
the closed form, for ``verify`` a PASS report.
"""

import contextlib
import io
import sys
from pathlib import Path

from pairsum.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402


def test_every_benchmarked_argv_prints_its_pinned_stdout():
    digests = checks.load_digests()
    failures = []
    for argv in workloads.all_jobs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        reason = checks.check_job(argv, code, out.getvalue().encode(), digests)
        if reason is not None:
            failures.append((" ".join(argv), reason))
    assert failures == []
