#!/bin/sh
# Performance-regression gate over EVERY committed BENCH_*.json
# baseline: re-measure a short slice of each benchmark that has a
# committed baseline in the repo root and fail only on a collapse
# (several times worse than the committed Release numbers). CI
# machines vary widely, so the tolerances are deliberately generous;
# gradual drift is tracked by re-running the tools/bench_*.sh
# scripts instead.
#
#   baseline               measured slice        floor
#   BENCH_throughput.json  micro_throughput      per-workload kips >=
#                                                ref / TOL_THROUGHPUT
#   BENCH_sampling.json    sampling_throughput   speedup >=
#                                                ref / TOL_SAMPLING
#   BENCH_store.json       store_throughput      speedup and
#                                                memo_speedup >=
#                                                ref / TOL_STORE
#
# Speedup baselines are same-machine ratios, so they transfer across
# machines far better than absolute kIPS — but the short slices run
# at a smaller scale than the committed measurement, which shrinks
# the ratio; the tolerance absorbs both effects.
#
# Usage: check_perf_regression.sh <bench-bin-dir> <repo-root> \
#            <build-type>
#   LVPSIM_PERF_TOL_THROUGHPUT=<x>  (default $LVPSIM_PERF_TOL or 5.0)
#   LVPSIM_PERF_TOL_SAMPLING=<x>    (default 4.0)
#   LVPSIM_PERF_TOL_STORE=<x>       (default 3.0)
#
# Exits 77 (ctest SKIP_RETURN_CODE) on non-Release trees — debug or
# assertion-laden builds are legitimately slower — and when python3
# is unavailable. A baseline that is not committed, or whose bench
# binary is not built, is skipped with a note, not a failure.
set -eu

bindir=${1:?usage: check_perf_regression.sh <bench-bin-dir> <repo-root> <build-type>}
root=${2:?missing repo root}
build_type=${3:-}

tol_throughput=${LVPSIM_PERF_TOL_THROUGHPUT:-${LVPSIM_PERF_TOL:-5.0}}
tol_sampling=${LVPSIM_PERF_TOL_SAMPLING:-4.0}
tol_store=${LVPSIM_PERF_TOL_STORE:-3.0}

if [ "$build_type" != "Release" ]; then
    echo "SKIP: build type '$build_type' is not Release;" \
         "performance numbers are only meaningful at -O3" \
         "without assertions"
    exit 77
fi
if ! command -v python3 >/dev/null 2>&1; then
    echo "SKIP: python3 not available"
    exit 77
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0
gated=0

# ---- throughput: per-workload kips floors --------------------------
if [ -f "$root/BENCH_throughput.json" ] && \
   [ -x "$bindir/micro_throughput" ]; then
    gated=$((gated + 1))
    echo "== throughput (smoke slice, tol ${tol_throughput}x) =="
    LVPSIM_SUITE=smoke LVPSIM_INSTRS=40000 \
        "$bindir/micro_throughput" --repeat 3 \
        --json "$dir/throughput.json" > /dev/null
    python3 - "$dir/throughput.json" "$root/BENCH_throughput.json" \
        "$tol_throughput" <<'EOF' || failures=$((failures + 1))
import json
import sys

now_path, ref_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
now = json.load(open(now_path))
ref = json.load(open(ref_path))

def kips_by_workload(doc):
    return {r["workload"]: r["kips"] for r in doc["workloads"]
            if r.get("kips")}

now_k, ref_k = kips_by_workload(now), kips_by_workload(ref)
shared = sorted(set(now_k) & set(ref_k))
if not shared:
    # The committed baseline covers the full suite; a smoke slice
    # always intersects it, so an empty intersection means the
    # baseline file is from another world. Don't guess.
    print("FAIL: no common workloads between run and baseline")
    sys.exit(1)

failed = []
for w in shared:
    floor = ref_k[w] / tol
    status = "ok" if now_k[w] >= floor else "REGRESSED"
    print(f"  {w:24s} {now_k[w]:10.1f} kips "
          f"(baseline {ref_k[w]:10.1f}, floor {floor:10.1f}) {status}")
    if now_k[w] < floor:
        failed.append(w)

if failed:
    print(f"FAIL: {len(failed)}/{len(shared)} workloads more than "
          f"{tol}x slower than the committed baseline: "
          + ", ".join(failed))
    sys.exit(1)
print(f"OK: {len(shared)} workloads within {tol}x of the committed "
      "baseline")
EOF
else
    echo "note: throughput baseline or binary absent, not gated"
fi

# check_ratio <fresh.json> <ref.json> <tol> <what> [key]: both files
# carry a top-level ratio under key (default "speedup"); the fresh
# one must stay above ref/tol.
check_ratio() {
    python3 - "$1" "$2" "$3" "$4" "${5:-speedup}" <<'EOF'
import json
import sys

now_doc = json.load(open(sys.argv[1]))
ref_doc = json.load(open(sys.argv[2]))
tol = float(sys.argv[3])
what = sys.argv[4]
key = sys.argv[5]
now, ref = now_doc[key], ref_doc[key]
floor = ref / tol
print(f"  {what}: {now:.2f}x measured "
      f"(committed {ref:.2f}x, floor {floor:.2f}x)")
if now < floor:
    print(f"FAIL: {what} speedup collapsed more than {tol}x below "
          "the committed baseline")
    sys.exit(1)
print(f"OK: {what} speedup within {tol}x of the committed baseline")
EOF
}

# ---- sampling: sampled-vs-full speedup ratio -----------------------
if [ -f "$root/BENCH_sampling.json" ] && \
   [ -x "$bindir/sampling_throughput" ]; then
    gated=$((gated + 1))
    echo "== sampling (smoke slice, tol ${tol_sampling}x) =="
    LVPSIM_SUITE=smoke LVPSIM_INSTRS=500000 \
        "$bindir/sampling_throughput" --json "$dir/sampling.json" \
        > /dev/null
    check_ratio "$dir/sampling.json" "$root/BENCH_sampling.json" \
        "$tol_sampling" sampling || failures=$((failures + 1))
else
    echo "note: sampling baseline or binary absent, not gated"
fi

# ---- store: cold-vs-warm-disk and memo speedup ratios --------------
if [ -f "$root/BENCH_store.json" ] && \
   [ -x "$bindir/store_throughput" ]; then
    gated=$((gated + 1))
    echo "== store (smoke slice, tol ${tol_store}x) =="
    rm -rf "$dir/store"
    LVPSIM_SUITE=smoke LVPSIM_INSTRS=10000 \
        "$bindir/store_throughput" --store "$dir/store" \
        --json "$dir/store.json" > /dev/null
    store_failed=0
    check_ratio "$dir/store.json" "$root/BENCH_store.json" \
        "$tol_store" store || store_failed=1
    check_ratio "$dir/store.json" "$root/BENCH_store.json" \
        "$tol_store" memo memo_speedup || store_failed=1
    failures=$((failures + store_failed))
else
    echo "note: store baseline or binary absent, not gated"
fi

if [ "$gated" -eq 0 ]; then
    echo "SKIP: no committed BENCH_*.json baseline had a built" \
         "benchmark binary"
    exit 77
fi
if [ "$failures" -ne 0 ]; then
    echo "FAIL: $failures of $gated gated baselines regressed"
    exit 1
fi
echo "OK: all $gated gated baselines within tolerance"
