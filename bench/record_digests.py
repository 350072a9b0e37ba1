"""Record the stdout digest of every job any workload can generate.

    python3 bench/record_digests.py

Run it only at a commit whose output is trusted: the benchmark then requires
every later commit to print byte-identical stdout for the same argv.  A job
that exits non-zero, or whose corrected-mode values disagree with the closed
form, or whose verify report is not PASS, is not recorded.
"""

from __future__ import annotations

import json
import sys

import checks
import launch
import workloads


def main() -> int:
    digests = {}
    for argv in workloads.all_jobs():
        result = launch.run_job(argv, 300)
        key = " ".join(argv)
        digests[key] = checks.digest(result.stdout)
        reason = checks.check_job(argv, result.returncode, result.stdout, digests)
        if reason is not None:
            print(f"not recorded: {key}: {reason}", file=sys.stderr)
            return 1
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {checks.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
