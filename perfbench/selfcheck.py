#!/usr/bin/env python3
"""Tiny-size self-check of the pipeline benchmark; takes about two minutes,
most of it the first build.

    python3 perfbench/selfcheck.py

From the root of the source tree.  For each workload it runs perfbench/run.py
at --size tiny, untraced and traced, and asserts that the printed metric
names and units are exactly those of BENCHMARK.json, that every answer was
checked and none failed, and that a run whose references are deliberately
off by one counts every operation as failed.  Last, it runs the benchmark in
a directory that holds only BENCHMARK.json and perfbench/ and asserts that it
exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))


def run(workload, trace, *extra, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=900)


def result_of(proc):
    if proc.returncode != 0:
        sys.exit(f"selfcheck: run failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, message):
    if not cond:
        sys.exit(f"selfcheck: {message}")


def main():
    for w in (x["name"] for x in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            r = result_of(run(w, trace))
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, f"{w} trace {trace}: metric names/units differ: "
                               f"{sorted(set(got.items()) ^ set(want.items()))}")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  f"{w} trace {trace}: {r['failed']} of {r['attempted']} operations failed")
            if trace == 0:
                zero = [k for k, v in r["metrics"].items() if not v["value"] > 0]
                check(not zero, f"{w}: end-to-end metrics not positive: {zero}")
            else:
                check(r["metrics"]["trace.cover_frac"]["value"] > 0.5,
                      f"{w}: layer spans cover too little of an operation")
        r = result_of(run(w, 0, "--corrupt-reference"))
        check(not r["correct"] and r["failed"] == r["attempted"] > 0,
              f"{w}: a wrong reference was not counted as a failure "
              f"({r['failed']} of {r['attempted']})")
        print(f"selfcheck: {w} ok ({r['attempted']} operations checked)")

    bare = os.path.join(".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a directory without the source tree produced a result")
    shutil.rmtree(bare)
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
