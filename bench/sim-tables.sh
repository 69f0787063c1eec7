#!/usr/bin/env bash
# Runs the four simulation bench suites (Figures 3-6 and Table II) once and
# writes to OUT only the lines they print themselves (the tables, their
# headings and the paper's figures) and the name of every failed or aborted
# test, so that the results of two checkouts compare with one `diff`.
#
# Usage: bench/sim-tables.sh OUT
# sbt takes its offline settings from SBT_OPTS and COURSIER_MODE, as for the
# repo's own build.
set -euo pipefail
out=${1:?usage: bench/sim-tables.sh OUT}
case $out in /*) ;; *) out=$PWD/$out ;; esac
cd "$(dirname "$0")/.."
log=$(mktemp)
trap 'rm -f "$log"' EXIT

# a failing suite is part of the output, so sbt's exit code is not
sbt --batch -Dsbt.log.noformat=true \
  "bench/testOnly *Figure3Bench *GapBench *SweepsBench *TableIIBench" >"$log" 2>&1 || true
if ! grep -q '^\[info\] Run completed' "$log"; then
  tail -n 40 "$log" >&2
  echo "sim-tables: the bench suites did not run" >&2
  exit 1
fi
{
  # sbt's and the suites' own log lines start with a bracketed tag
  grep -v -e '^\[' -e '^[[:space:]]*$' "$log" || true
  grep -E '\*\*\* (FAILED|ABORTED) \*\*\*' "$log" | sed -E 's/^\[[a-z]+\] (- )?//' || true
} >"$out"
