#!/bin/sh
# Build and run the sanitizer configurations:
#
#   build-asan   AddressSanitizer + UndefinedBehaviorSanitizer, plus
#                float-cast-overflow (which GCC leaves out of
#                `undefined`)
#   build-tsan   ThreadSanitizer
#
# Each tree builds with LVPSIM_ASSERTIONS=ON (so the qa invariant
# checks run under the sanitizer too) and then runs the labeled ctest
# subsets:
#
#   -L smoke   fast unit/harness tests, including the core's own
#              unit tests (test_uarch: the scheduler, PAQ and
#              resource limits), the --jobs 4
#              parallel suite run, the sim::Memo build-once tests
#              (test_memo.cc), the cache concurrent-build tests
#              in test_checkpoint.cc (the TSan targets of interest),
#              the copy-on-write array tests (test_cow_array.cc) and
#              the sampled-run and trace-frontend suites
#   -L fuzz    seeded property tests (fixed seeds, deterministic),
#              including the checkpoint/restore fuzz in
#              test_checkpoint_fuzz.cc
#
# The TSan tree additionally runs the differential, sampling, and
# store labels at ctest -j4 — four concurrent simulations hammering
# the sim::Memo slot discipline (src/sim/memo.hh) behind every cache
# and the CheckpointStore claim/publish protocol (test_checkpoint_store and the two-process
# store_concurrency gate), which is exactly the interleaving the
# annotated locking contracts (common/sync.hh,
# docs/static_analysis.md) claim to make safe.
#
# Usage: tools/run_sanitizers.sh [source-dir]
#   LVPSIM_SAN_JOBS=<n>   build/test parallelism (default: nproc)
#   LVPSIM_SAN_ONLY=asan|tsan   run just one configuration
set -eu

src_dir=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
jobs=${LVPSIM_SAN_JOBS:-$(nproc 2>/dev/null || echo 4)}
only=${LVPSIM_SAN_ONLY:-}

# Only the targets the smoke/fuzz labels actually run: building the
# whole tree (benches, examples, every test binary) under a
# sanitizer takes many times longer for no extra coverage.
# gtest_discover_tests registers nothing for a binary that was not
# built, so a smoke- or fuzz-labelled suite left off this list would
# silently never run under a sanitizer.
targets="test_containers test_common test_trace test_uarch test_harness \
test_qa test_kernel_spec test_fuzz test_store test_sampling \
test_trace_frontend lvpsim_cli"
tsan_targets="test_differential test_sampling test_store"
asan_sanitizers=address,undefined,float-cast-overflow

run_config() {
    name=$1
    sanitizers=$2
    build_dir="$src_dir/build-$name"

    echo "== [$name] configure ($sanitizers) =="
    cmake -B "$build_dir" -S "$src_dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLVPSIM_ASSERTIONS=ON \
        -DLVPSIM_SANITIZE="$sanitizers" >/dev/null

    echo "== [$name] build =="
    # shellcheck disable=SC2086  # word-splitting is intended
    cmake --build "$build_dir" -j "$jobs" --target $targets

    echo "== [$name] ctest -L smoke =="
    (cd "$build_dir" && ctest -L smoke --output-on-failure -j "$jobs")

    echo "== [$name] ctest -L fuzz =="
    (cd "$build_dir" && ctest -L fuzz --output-on-failure -j "$jobs")

    if [ "$name" = tsan ]; then
        echo "== [$name] build (differential + sampling + store) =="
        # shellcheck disable=SC2086  # word-splitting is intended
        cmake --build "$build_dir" -j "$jobs" --target $tsan_targets

        echo "== [$name] ctest -L 'differential|sampling|store' -j4 =="
        (cd "$build_dir" &&
             ctest -L 'differential|sampling|store' \
                 --output-on-failure -j 4)
    fi
}

case $only in
    asan) run_config asan "$asan_sanitizers" ;;
    tsan) run_config tsan thread ;;
    "")
        run_config asan "$asan_sanitizers"
        run_config tsan thread
        ;;
    *)
        echo "unknown LVPSIM_SAN_ONLY='$only' (want asan or tsan)" >&2
        exit 2
        ;;
esac

echo "== all sanitizer runs clean =="
