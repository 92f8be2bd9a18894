#!/usr/bin/env python3
"""Repository benchmark for lvpsim (see README.md in this directory).

Usage, from the root of a checkout:

    python3 lvpbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lvpbench/run.py --pin     # rewrite pinned_hashes.json

Builds the simulator libraries and the lvpbench binary as a Release
tree (-O3, invariant checks off) under $CARGO_TARGET_DIR (default
.bench_build), runs one measurement, checks the simulated results and
prints every metric with its unit. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned_hashes.json")
DEFAULT_SEED = 1  # the seed whose hashes pinned_hashes.json holds
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"lvpbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "lvpbench")


def build():
    """Configure once, then (re)build the binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "lvpbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr,
                          env=child_env()).returncode != 0:
            die("build failed: " + " ".join(cmd), 1)
    return out, os.path.join(out, "lvpbench")


def child_env():
    # No inherited LVPSIM_* setting (LVPSIM_STORE above all) may
    # change what the binary does, and temporary files stay in the
    # build tree.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LVPSIM_")}
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_binary(binary, scratch, workload, seed, seconds, trace):
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              env=child_env(), timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        die(f"{workload}: lvpbench exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        die(f"{workload}: lvpbench exited with {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{workload}: lvpbench printed no result", 1)
    return json.loads(lines[-1])


def provenance(build_out, res):
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    sha = cmd_out(["git", "rev-parse", "HEAD"]) or "unknown (no git)"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            digest.update(os.path.relpath(p, src).encode())
            with open(p, "rb") as fh:
                digest.update(fh.read())
    cxx = ""
    with open(os.path.join(build_out, "CMakeCache.txt")) as fh:
        for line in fh:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1].strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "compiler": (cmd_out([cxx, "--version"]).splitlines() or [cxx])[0],
        "cxx_flags": res.get("cxx_flags", "").strip(),
        "build_type": res.get("build_type", ""),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
    }


def check_hashes(workload, seed, res, pinned):
    """Cells whose hash disagrees with the pinned default-seed hash."""
    want = pinned.get(workload, {})
    bad = []
    for name, h in res["canary"].items():
        if want.get(name) != h:
            bad.append(f"canary {name}: {h} != pinned {want.get(name)}")
    if seed == DEFAULT_SEED:
        if set(res["hashes"]) != set(want):
            bad.append("cell list differs from the pinned one")
        for name, h in res["hashes"].items():
            if want.get(name, h) != h:
                bad.append(f"{name}: {h} != pinned {want[name]}")
    return bad


def pin(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    pinned = {}
    for w in workloads:
        res = run_binary(binary, os.path.join(build_dir(), "scratch"), w,
                         DEFAULT_SEED, 1, 0)
        if res["failed"]:
            die(f"{w}: {res['failed']} cells failed; not pinning", 1)
        pinned[w] = dict(sorted(res["hashes"].items()))
    with open(PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    print(f"pinned {sum(map(len, pinned.values()))} cell hashes in {PINNED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite pinned_hashes.json at the default seed")
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources next to the benchmark (src/ missing)")
    with open(bench_json) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if not args.pin and args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")

    build_out, binary = build()
    if args.pin:
        pin(binary)
        return

    res = run_binary(binary, os.path.join(build_out, f"scratch-{os.getpid()}"),
                     args.workload, args.seed, args.seconds, args.trace)
    with open(PINNED) as fh:
        pinned = json.load(fh)
    bad = check_hashes(args.workload, args.seed, res, pinned)
    failures = res["failures"] + bad
    failed = res["failed"] + len(bad)
    attempted = res["attempted"]

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in res["metrics"]:
            die(f"lvpbench did not report {m['name']}", 1)
        metrics[m["name"]] = {"value": res["metrics"][m["name"]],
                              "unit": m["unit"]}

    print(json.dumps({"provenance": provenance(build_out, res)}))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {res['passes']}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    info = res["info"]
    print(f"  {'fail_rate':34s} {failed / max(1, attempted):14.6g} ratio"
          f"  ({failed} of {attempted} cells)")
    if "sample_error" in info:
        print(f"  {'sample_error':34s} {info['sample_error']:14.6g} ratio")
    if "cell_tail_percentile" in info:
        print(f"  cell_tail_ms is p{info['cell_tail_percentile']} of "
              f"{info['cells']} cells ({info['cells_beyond_tail']} beyond)")
    if "setup_s_each" in info:
        print("  setup_s is the median of "
              + " ".join(f"{x:.4g}" for x in info["setup_s_each"]) + " s")
    for f in failures:
        print(f"  FAILED {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
