#!/bin/sh
# Concurrency gate for the persistent checkpoint store: two suite
# processes launched at the same instant against one fresh store
# directory must (a) both finish with byte-identical results (timing
# and store-counter lines stripped by strip_timing.sh, the filter
# check_determinism.sh uses too), and (b) leave no stale `*.building` claim
# files behind — every claim is released on publish or on local-build
# fallback. A third, fresh process then runs against the now-warm
# store and must report store_misses == 0: everything the pair built
# is servable from disk.
#
# The check runs twice, on separate stores: a warmup leg (so "ckpt:"
# warmup checkpoints are raced, not just baselines) and a sampled leg
# (`--sample 3 --interval-len 2000`, so plans and interval-checkpoint
# lists are raced).
#
# Usage: check_store_concurrency.sh <path-to-lvpsim_cli> [workdir]
#   LVPSIM_CHECK_INSTRS=<n>   measured instructions (default 8000)
#   LVPSIM_CHECK_WARMUP=<n>   warmup-leg warmup instructions
#                             (default 4000)
# Wired into ctest as `store_concurrency` (tools/CMakeLists.txt).
set -eu

CLI=${1:?usage: check_store_concurrency.sh <lvpsim_cli> [workdir]}
DIR=${2:-$(mktemp -d)}
rm -rf "$DIR"
mkdir -p "$DIR"
INSTRS=${LVPSIM_CHECK_INSTRS:-8000}
WARMUP=${LVPSIM_CHECK_WARMUP:-4000}

export LVPSIM_SUITE=${LVPSIM_SUITE:-smoke}

# strip_timing: drops the run-dependent lines (timing, jobs, store
# traffic); the field list lives in strip_timing.sh.
. "$(dirname "$0")/strip_timing.sh"

# run_suite <json> <mode flags...>: one suite process on $STORE.
run_suite() {
    out=$1
    shift
    "$CLI" --suite --predictor composite --instrs "$INSTRS" "$@" \
           --jobs 2 --store "$STORE" --json "$out" > /dev/null
}

# check_leg <name> <mode flags...>: the three-process check on a fresh
# store under $DIR/<name>.
check_leg() {
    NAME=$1
    shift
    LEG="$DIR/$NAME"
    STORE="$LEG/store"
    mkdir -p "$LEG"

    # Race two fresh processes on the empty store. The O_EXCL claim
    # protocol decides per key who builds; the loser either waits for
    # the winner's publish or (on claim timeout) builds locally, so
    # both must succeed regardless of interleaving.
    run_suite "$LEG/a.json" "$@" &
    pid_a=$!
    run_suite "$LEG/b.json" "$@" &
    pid_b=$!
    wait "$pid_a"
    wait "$pid_b"

    strip_timing "$LEG/a.json" > "$LEG/a.stripped"
    strip_timing "$LEG/b.json" > "$LEG/b.stripped"
    if ! diff -u "$LEG/a.stripped" "$LEG/b.stripped"; then
        echo "FAIL ($LEG): concurrent store-sharing runs diverged" >&2
        exit 1
    fi

    leftover=$(find "$STORE" -name '*.building' 2>/dev/null | wc -l)
    if [ "$leftover" -ne 0 ]; then
        echo "FAIL ($LEG): $leftover stale claim file(s) left:" >&2
        find "$STORE" -name '*.building' >&2
        exit 1
    fi

    entries=$(find "$STORE" -name '*.lvpc' 2>/dev/null | wc -l)
    if [ "$entries" -eq 0 ]; then
        echo "FAIL ($LEG): no store entries were published" >&2
        exit 1
    fi

    # Warm check: a third process must be served entirely from disk.
    run_suite "$LEG/c.json" "$@"
    strip_timing "$LEG/c.json" > "$LEG/c.stripped"
    if ! diff -u "$LEG/a.stripped" "$LEG/c.stripped"; then
        echo "FAIL ($LEG): warm-store run diverged from the cold runs" >&2
        exit 1
    fi
    if ! grep -q '"store_misses": 0' "$LEG/c.json"; then
        echo "FAIL ($LEG): warm-store run still missed:" >&2
        grep '"store_' "$LEG/c.json" >&2
        exit 1
    fi
    if grep -q '"store_hits": 0' "$LEG/c.json"; then
        echo "FAIL ($LEG): warm-store run reported zero hits" >&2
        exit 1
    fi

    echo "OK ($NAME): 2 concurrent cold runs + 1 warm run agree" \
         "($entries entries, no stale claims," \
         "$LVPSIM_SUITE suite, $INSTRS instructions, $*)"
}

check_leg warmup --warmup "$WARMUP"
check_leg sampled --sample 3 --interval-len 2000
