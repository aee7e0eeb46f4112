#!/usr/bin/env python3
"""Pipeline benchmark entry point.

Run from the root of a TriPoll source tree:

    python3 perfbench/run.py --workload cold-rmat --seed 1 --seconds 15 --trace 0

It builds perfbench/pipeline_bench (Release, under .bench_build/), generates
the workload's inputs for the seed once (cached under .bench_build/work/,
untimed, excluded from every metric), runs the workload and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports every end-to-end metric of
BENCHMARK.json, --trace 1 every per-layer metric.  An environment record
precedes it on its own line and is kept under .bench_build/results/.

--size tiny and --corrupt-reference exist for perfbench/selfcheck.py.
Exits non-zero without a result when the source tree, the build or the run
fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BUILD = ".bench_build"
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(CMAKE_DIR, "pipeline_bench")
KEEP_SEEDS = 12  # cached input sets kept per workload and size
RUN_TIMEOUT = 170
WORKLOADS = ("cold-rmat", "serve-web", "stream-temporal")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, env, timeout):
    with open(log, "w") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            fail(f"timed out after {timeout}s: {' '.join(cmd)} (log {log})")
    if proc.returncode != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(env):
    os.makedirs(CMAKE_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), env, 600)
    run_logged(["cmake", "--build", CMAKE_DIR, "--target", "pipeline_bench", "-j4"],
               os.path.join(BUILD, "build.log"), env, 900)


def prepare(args, env, digest):
    """Inputs for (workload, size, seed), generated once per source digest."""
    name = f"{args.workload}-{args.size}-s{args.seed}-{digest}"
    work = os.path.join(WORK, name)
    if os.path.exists(os.path.join(work, "info.txt")):
        os.utime(work)
        return work
    tmp = work + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    run_logged([BINARY, "prepare", "--workload", args.workload, "--seed", str(args.seed),
                "--dir", tmp, "--size", args.size],
               os.path.join(BUILD, f"prepare-{name}.log"), env, RUN_TIMEOUT)
    shutil.rmtree(work, ignore_errors=True)
    os.rename(tmp, work)
    # Keep the cache bounded: drop the least recently used input sets.
    prefix = f"{args.workload}-{args.size}-s"
    cached = [os.path.join(WORK, d) for d in os.listdir(WORK)
              if d.startswith(prefix) and ".tmp" not in d]
    cached.sort(key=os.path.getmtime, reverse=True)
    for old in cached[KEEP_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    return work


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=False)
        return out.stdout.strip() or "none"
    except OSError:
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json", "perfbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail(f"no {needed} here: run from the root of a TriPoll source tree")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)

    build(env)
    digest = source_digest()
    work = prepare(args, env, digest)

    cmd = [BINARY, "run", "--workload", args.workload, "--seed", str(args.seed), "--dir", work,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT}s")
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        fail(f"run failed ({proc.returncode})")
    record = json.loads(lines[-2][4:])
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")

    record.update({"git_commit": git_commit(), "source_digest": digest,
                   "trace": args.trace, "seconds": args.seconds, "time": time.time()})
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump({"env": record, "result": result}, f, indent=1)
    print("env " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
