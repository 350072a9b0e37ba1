"""Replay every argv the benchmark runs and check each stdout against its pin.

Each job of ``bench/workloads.all_jobs()`` runs through ``pairsum.cli.main``
in this process, and ``bench/checks.check_job`` checks it against
``bench/digests.json``: byte-identical stdout, and for corrected-mode jobs the
closed form, for ``verify`` a PASS report.  It reads those files and writes
none.  It needs the standard library only, so every supported Python runs it:

    PYTHONPATH=src python tools/replay.py
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from pairsum.cli import main  # noqa: E402


def run(argv):
    """(exit code, stdout bytes) of main on argv, in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def failures():
    """(argv, reason) for each benchmarked argv that check_job rejects."""
    digests = checks.load_digests()
    found = []
    for argv in workloads.all_jobs():
        reason = checks.check_job(argv, *run(argv), digests)
        if reason is not None:
            found.append((" ".join(argv), reason))
    return found


if __name__ == "__main__":
    failed = failures()
    for argv, reason in failed:
        print(f"replay: {argv}: {reason}")
    print(f"replay: {len(failed)} of {len(workloads.all_jobs())} pinned argv failed")
    sys.exit(1 if failed else 0)
