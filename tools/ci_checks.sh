#!/usr/bin/env bash
# The CI checks that need no fresh install: CLI smoke runs, the pinned
# outputs under two hash seeds and warnings as errors on each Python 3.10 to
# 3.13 that starts, reach and a short benchmark run.  Run it
# from any directory, with the test extra installed:
#
#     bash tools/ci_checks.sh
#
# It runs `python` and each of python3.10 to python3.13 from PATH against the
# source tree, and stops at the first failing check.  Its last line says that
# every check passed.
#
# The mutation run, `python tools/mutants.py`, takes about 15 minutes on two
# vCPUs, too long for this script; tier-1 checks what it reads
# (tests/test_cli.py::test_mutation_sites_are_stable_and_every_mutant_compiles).
set -euo pipefail
trap 'echo "ci_checks: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."
export PYTHONPATH=src
# no __pycache__ in the checkout: the benchmark times the source as it stands
export PYTHONDONTWRITEBYTECODE=1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# the help is rendered from the command table only when --help asks for it,
# and each command's summary only in the top-level help, so a fault in either
# would show up nowhere else
echo "ci_checks: top-level and subcommand help"
python -m pairsum --help > /dev/null
for cmd in charpoly chambers table bipartite verify; do
  python -m pairsum "$cmd" --help > /dev/null
done
# the --mode choices are read from pairsum.Mode
for cmd in charpoly chambers table; do
  python -m pairsum "$cmd" --help | grep -q '{paper,corrected}'
done

# each CI Python that starts here: the 242 pinned outputs replayed in-process
# under two string hash seeds (the graph checks of verify are read by family
# name from a str-keyed map, so their order must not follow the seed), then
# each subcommand with warnings as errors and the dev-mode checks, so that an
# API or a deprecation of one Python fails the run instead of only its CI leg.
# bipartite --to 12 is the largest table the command builds by default, and
# the one path of it with no graph census.  An interpreter that does not start
# is named as skipped
ran=0
for py in python3.10 python3.11 python3.12 python3.13; do
  if ! "$py" -c pass > /dev/null 2>&1; then
    echo "ci_checks: $py: skipped, it does not start"
    continue
  fi
  echo "ci_checks: $py: replay under PYTHONHASHSEED=0 and 1, each subcommand under -W error -X dev"
  PYTHONHASHSEED=0 "$py" tools/replay.py
  PYTHONHASHSEED=1 "$py" tools/replay.py
  "$py" -W error -X dev -m pairsum charpoly --n 6 > /dev/null
  "$py" -W error -X dev -m pairsum chambers --n 6 > /dev/null
  "$py" -W error -X dev -m pairsum table --to 6 > /dev/null
  "$py" -W error -X dev -m pairsum bipartite --to 6 > /dev/null
  "$py" -W error -X dev -m pairsum bipartite --to 12 > /dev/null
  "$py" -W error -X dev -m pairsum verify --n 6 > /dev/null
  echo "ci_checks: $py: PASS"
  ran=$((ran + 1))
done
if [ "$ran" -eq 0 ]; then
  echo "ci_checks: no python3.10 to python3.13 starts" >&2
  exit 1
fi

# 15,000 primes (94 KB of argument) that all pass: the report interpolates
# through n + 1 of the counts; through all 15,000 it took over 20 s
echo "ci_checks: verify at 15,000 given primes"
primes=$(python -c "from pairsum.oracle import default_verification_primes as p
print(','.join(map(str, p(14999))))")
timeout 10 python -m pairsum verify --n 2 --oracles ffield --primes "$primes" > "$tmp/verify.txt"
head -n 1 "$tmp/verify.txt" | grep -qx 'verify n=2 (PASS)'

# the y = -1 pipeline prints n = 60 in well under a second; the
# cardinality-resolved one grows as n^6 and would need minutes here
echo "ci_checks: reach n = 60 in both modes"
timeout 60 python -m pairsum table --to 60 --max-n 60 --mode corrected > /dev/null
timeout 60 python -m pairsum table --to 60 --max-n 60 --mode paper > /dev/null

# run.py exits 0 even when a job fails: its last line is the JSON summary,
# whose "correct" is true only when every job printed its pinned stdout
echo "ci_checks: benchmark smoke run"
timeout 180 python bench/run.py --workload all --seed 1 --seconds 1 | tail -n 1 \
  | python -c "import json, sys; sys.exit(json.load(sys.stdin)['correct'] is not True)"

echo "ci_checks: every check passed"
