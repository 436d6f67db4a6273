"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload for one second at tiny sizes, untraced and traced, and
checks the output contract against BENCHMARK.json: the last stdout line is
one JSON object with exactly the keys correct/attempted/failed/metrics, and
the metric names and units are the declared ones.  A run that is not
correct is printed with its failed ops (those are the package's answers).  Then
checks that a copy holding only BENCHMARK.json and perfbench/ exits non-zero
without printing a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def fail(message, proc=None):
    print("FAIL", message)
    if proc is not None:
        print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
    sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                fail(f"{workload} trace={trace}: exit code {proc.returncode}", proc)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: keys {sorted(out)}", proc)
            if out["attempted"] < 1 or not isinstance(out["correct"], bool):
                fail(f"{workload} trace={trace}: bad correct/attempted", proc)
            if not out["correct"]:
                # a wrong answer from the package is reported, not a harness fault
                notes = [l for l in proc.stdout.splitlines() if "failed:" in l or "check FAIL" in l]
                print(f"note {workload} trace={trace}: not correct, {out['failed']} failed ops:",
                      *notes[:5], sep="\n  ")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != declared[trace]:
                fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ set(declared[trace]))}", proc)
            print(f"ok {workload} trace={trace}: {out['attempted']} ops")

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "--workload", "simulate", "--seed", "3", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a copy without src/ must exit non-zero and print no result", proc)
    print("ok copy without src/ exits", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
