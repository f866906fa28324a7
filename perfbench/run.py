#!/usr/bin/env python3
"""Runs one workload of the NchooseK benchmark.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Workloads: serve_warm, batch_cold, decompose_large, qaoa_circuit (see
perfbench/README.md). The script builds nck_perfbench from the enclosing
source tree (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR, or .bench_build
at the tree's root, then runs it under a fixed thread budget: 4 workers
(fewer on smaller hosts) and as many OpenMP threads per worker as keep
workers x OpenMP threads within the core count.

Standard output ends with an info line (host, build, digests) and one JSON
result line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics, or with --trace 1 the per-layer metrics. The script exits non-zero
without a result when the source tree or its example corpus is missing,
the build fails, or a solve gets a wrong hard-feasibility verdict.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "examples" / "programs"
WORKLOADS = ("serve_warm", "batch_cold", "decompose_large", "qaoa_circuit")
BUILD_TYPE = "RelWithDebInfo"
MAX_WORKERS = 4
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then rebuilds nck_perfbench incrementally."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "nck_perfbench", "-j", str(os.cpu_count() or 1)],
                   stdout=log, stderr=log, check=True)
    return build_dir / "nck_perfbench"


def source_id():
    """The commit of a git checkout, else a digest of the built sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH):
        files += [p for p in tree.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def run(binary, args, workers, omp_threads, extra=()):
    """Runs nck_perfbench once; returns its (info, result) lines."""
    env = dict(os.environ)
    if omp_threads is None:
        env.pop("OMP_NUM_THREADS", None)  # the OpenMP default
    else:
        env["OMP_NUM_THREADS"] = str(omp_threads)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", str(CORPUS), "--workers", str(workers), *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"nck_perfbench exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench_info"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no NchooseK source tree at {ROOT}")
    if not CORPUS.is_dir() or not any(CORPUS.glob("*.nck")):
        die(f"the example corpus {CORPUS} is missing")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        die(f"build failed: {err}")

    cores = os.cpu_count() or 1
    workers = min(MAX_WORKERS, cores)
    omp_threads = max(1, cores // workers)
    info, result = run(binary, args, workers, omp_threads)

    if args.trace and args.workload == "batch_cold":
        # Pool workers x sample_annealer's OpenMP team: the budget above
        # against the OpenMP default (one thread per core in every worker).
        probe_args = argparse.Namespace(**vars(args))
        probe_args.seconds = max(1, args.seconds // 2)
        _, budget = run(binary, probe_args, workers, omp_threads,
                        ["--pool-probe"])
        _, default = run(binary, probe_args, workers, None, ["--pool-probe"])
        metrics = result["metrics"]
        metrics["runtime.pool_busy_frac_omp_default"] = {
            "value": default["metrics"]["runtime.pool_busy_frac"]["value"],
            "unit": "ratio"}
        metrics["runtime.omp_default_speedup"] = {
            "value": default["metrics"]["throughput_per_s"]["value"] /
                     budget["metrics"]["throughput_per_s"]["value"],
            "unit": "ratio"}
        for probe in (budget, default):
            result["attempted"] += probe["attempted"]
            result["failed"] += probe["failed"]
            result["correct"] = result["correct"] and probe["correct"]

    info.update({"cores": str(cores), "omp_threads": str(omp_threads),
                 "source": source_id()})
    print(json.dumps({"perfbench_info": info}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
