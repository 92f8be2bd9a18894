#!/bin/sh
# Regression gate for the parallel suite runner: a suite run at
# --jobs 4 must produce byte-identical per-workload results to
# --jobs 1. Only the run-dependent lines listed in strip_timing.sh
# (host timing, the recorded jobs count, the progress tally, per-trace
# metadata and checkpoint-store traffic) may differ; they are stripped
# before the diff.
#
# Usage: check_determinism.sh <path-to-lvpsim_cli> [workdir]
# Wired into ctest as `suite_determinism` (tools/CMakeLists.txt).
set -eu

CLI=${1:?usage: check_determinism.sh <lvpsim_cli> [workdir]}
DIR=${2:-$(mktemp -d)}
mkdir -p "$DIR"
INSTRS=${LVPSIM_CHECK_INSTRS:-10000}

export LVPSIM_SUITE=${LVPSIM_SUITE:-smoke}

"$CLI" --suite --predictor composite --instrs "$INSTRS" \
       --jobs 1 --json "$DIR/jobs1.json" > /dev/null
"$CLI" --suite --predictor composite --instrs "$INSTRS" \
       --jobs 4 --json "$DIR/jobs4.json" > /dev/null

# strip_timing: drops the run-dependent lines (timing, jobs, store
# traffic); the field list lives in strip_timing.sh.
. "$(dirname "$0")/strip_timing.sh"

strip_timing "$DIR/jobs1.json" > "$DIR/jobs1.stripped"
strip_timing "$DIR/jobs4.json" > "$DIR/jobs4.stripped"

if diff -u "$DIR/jobs1.stripped" "$DIR/jobs4.stripped"; then
    echo "OK: --jobs 1 and --jobs 4 results are identical" \
         "($LVPSIM_SUITE suite, $INSTRS instructions)"
else
    echo "FAIL: parallel suite run diverged from serial run" >&2
    exit 1
fi
