#!/bin/sh
# Regenerate tests/data/behaviour_fingerprint.txt, the committed
# behavioural fingerprint that the test_fingerprint gtest compares
# against (tests/test_behaviour_fingerprint.cc).
#
# Only run this for a change that alters simulated behaviour on
# purpose, and say in CHANGES.md why the fingerprint moved. A
# refactor that claims to be counter-exact must leave the file alone.
#
# Usage: tools/update_fingerprint.sh [build-dir]
#   build-dir  a configured CMake tree (default: build; configured
#              here when missing)
set -eu

src_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-$src_dir/build}
jobs=$(nproc 2>/dev/null || echo 4)

[ -f "$build_dir/CMakeCache.txt" ] ||
    cmake -B "$build_dir" -S "$src_dir" >/dev/null
cmake --build "$build_dir" -j "$jobs" --target test_fingerprint

# The test writes what it computed to its working directory, and
# fails whenever that differs from the committed file.
(cd "$build_dir/tests" &&
     ./test_fingerprint --gtest_brief=1 >/dev/null 2>&1 || true)
actual=$build_dir/tests/behaviour_fingerprint.actual.txt
[ -s "$actual" ] || { echo "no fingerprint written" >&2; exit 1; }
cp "$actual" "$src_dir/tests/data/behaviour_fingerprint.txt"
echo "wrote tests/data/behaviour_fingerprint.txt" \
     "($(grep -vc '^#' "$actual") cells)"
