#!/usr/bin/env bash
# The CI checks that need no fresh install: CLI smoke runs, warnings as
# errors, reach, hash-seed independence and a short benchmark run.  Run it
# from any directory, with the test extra installed:
#
#     bash tools/ci_checks.sh
#
# It runs `python` from PATH against the source tree and stops at the first
# failing check.  Its last line says that every check passed.
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

# argparse %-formats a help string only when --help asks for it, and each
# subcommand's summary only in the top-level help, so a bad one would show
# up nowhere else
echo "ci_checks: top-level and subcommand help"
python -m pairsum --help > /dev/null
for cmd in charpoly chambers table bipartite verify; do
  python -m pairsum "$cmd" --help > /dev/null
done
# the --mode choices are read from pairsum.Mode
for cmd in charpoly chambers table; do
  python -m pairsum "$cmd" --help | grep -q '{paper,corrected}'
done

# warnings as errors and the dev-mode checks: a deprecation in a newer Python
# fails the run instead of only printing a warning.  bipartite --to 12 is the
# largest table the command builds by default, and the one path of it with
# no graph census
echo "ci_checks: each subcommand under -W error -X dev"
python -W error -X dev -m pairsum charpoly --n 6 > /dev/null
python -W error -X dev -m pairsum chambers --n 6 > /dev/null
python -W error -X dev -m pairsum table --to 6 > /dev/null
python -W error -X dev -m pairsum bipartite --to 6 > /dev/null
python -W error -X dev -m pairsum bipartite --to 12 > /dev/null
python -W error -X dev -m pairsum verify --n 6 > /dev/null

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

# the graph checks are read by family name from a str-keyed map: their order
# and every other byte must not depend on the string hash seed
echo "ci_checks: output does not depend on the hash seed"
for argv in "verify --n 6 --format json" "bipartite --to 6 --format json"; do
  PYTHONHASHSEED=0 python -m pairsum $argv > "$tmp/seed0.txt"
  PYTHONHASHSEED=1 python -m pairsum $argv > "$tmp/seed1.txt"
  cmp "$tmp/seed0.txt" "$tmp/seed1.txt"
done

# run.py exits 0 even when a job fails: its last line is the JSON summary,
# whose "correct" is true only when every job printed its pinned stdout
echo "ci_checks: benchmark smoke run"
timeout 180 python bench/run.py --workload all --seed 1 --seconds 1 | tail -n 1 \
  | python -c "import json, sys; sys.exit(json.load(sys.stdin)['correct'] is not True)"

echo "ci_checks: every check passed"
