"""Benchmark of the phylonetsim package: one workload per invocation.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads: simulate, query, analyze, sweep
(see perfbench/README.md).  The run is split over WORKERS fresh processes,
one after the other; each sets up, then runs a closed loop of ops for its
share of --seconds.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics from spans and unit probes.  Lines before it are a readable report;
the full result, with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata

import report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("simulate", "query", "analyze", "sweep")
WORKERS = 3
DEFAULT_SEED = 1
# Not used while the benchmark was written: recheck claims with --seed 20221104.
HELD_OUT_SEED = 20221104
RUN_BUDGET_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_sha():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha:
        return sha
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed):
    cpu = next(
        (l.split(":", 1)[1].strip() for l in _read("/proc/cpuinfo").splitlines() if l.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, idx, "level"))
        kind = _read(os.path.join(base, idx, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, idx, "size"))
    mem = next((l.split(":", 1)[1].strip() for l in _read("/proc/meminfo").splitlines()
                if l.startswith("MemTotal")), "unknown")

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "ram": mem,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas_threads": THREAD_ENV,
        "git_sha": git_sha(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "workers": WORKERS,
        "note": "CPU frequency cannot be pinned and caches cannot be dropped here; "
                "per-worker values are shown beside each median as its spread.",
    }


def run_workers(args, size):
    scratch = os.path.join(OUT, "scratch")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + HERE
    deadline = time.monotonic() + RUN_BUDGET_S
    results = []
    for index in range(WORKERS):
        path = os.path.join(scratch, f"worker-{args.workload}-{index}.json")
        if os.path.exists(path):
            os.remove(path)
        t0 = time.monotonic()
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--index", str(index),
            "--last", str(WORKERS - 1), "--window", repr(args.seconds / WORKERS),
            "--trace", str(args.trace), "--size", size, "--t0", repr(t0),
            "--scratch", scratch, "--result", path,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
        with open(path) as fh:
            results.append(json.load(fh))
        os.remove(path)
    return results


def fmt(x):
    return f"{x:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the harness self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "phylonetsim", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source under {os.path.join(ROOT, 'src')}; "
                         "run from a full checkout\n")
        return 2

    workers = run_workers(args, "tiny" if args.tiny else "full")
    ops = [op for w in workers for op in w["ops"]]
    e2e, info = report.end_to_end(workers)
    checks, extra = report.pooled_checks(args.workload, workers)
    failures = [f for w in workers for f in w["failures"]]
    # At tiny sizes the estimators are too biased for 4-SE checks; they are
    # reported but only the per-op checks gate a self-test run.
    correct = info["failed"] == 0 and (args.tiny or all(c["passed"] for c in checks))

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
             f" workers={WORKERS} (one closed-loop client, one process at a time)"]
    env = environment(args.seed)
    lines.append("env " + json.dumps(env, sort_keys=True))
    lo, mid, hi = info["speed_factor"]
    lines.append(f"times scaled to the calibration loop's reference speed; speed factor "
                 f"min {fmt(lo)} median {fmt(mid)} max {fmt(hi)}")
    lines.append(f"{'end-to-end metric':22s} {'value':>12s} {'unit':5s} {'unscaled':>12s}  per-worker spread")
    units = dict(report.END_TO_END)
    for name, value in e2e.items():
        spread = info["per_worker"].get(name)
        spread = "[" + ", ".join(fmt(v) for v in spread) + "]" if spread else ""
        if name == "op_ms_tail":
            spread = f"p{info['op_ms_tail_percentile']:.4g} of {info['op_ms_tail_count']} successful ops"
        raw = fmt(info["raw"][name]) if name in info["raw"] else ""
        lines.append(f"{name:22s} {fmt(value):>12s} {units[name]:5s} {raw:>12s}  {spread}")
    lines.append(f"{'failed_frac':22s} {fmt(info['failed_frac']):>12s} {'ratio':5s}  "
                 f"{info['failed']} failed + {info['typed_errors']} typed errors of {info['attempted']} attempted"
                 f" ({fmt(info['typed_error_s'])} s in typed errors)")
    if "time_to_accuracy_s" in extra:
        c, c_se = extra["C"]
        lines.append(f"{'time_to_accuracy_s':22s} {fmt(extra['time_to_accuracy_s']):>12s} {'s':5s}  "
                     f"to a 1% standard error on C = {fmt(c)} +- {fmt(c_se)}")
    if "defect_probe" in extra:
        probe = extra["defect_probe"]
        lines.append(f"known defect, not gated: {probe['wrong']} of {sum(probe.values())} jittered points near "
                     f"(0.1, 0.01, 0.1) and (0.1, 0.01, 0.01) get a wrong tilted law; outcomes {probe}")
    if "em_strict_misses" in extra:
        lines.append(f"E[M] enclosures missing the 50-digit oracle by less than their rounding bound: "
                     f"{extra['em_strict_misses']} of {info['succeeded']} successful ops")
    for c in checks:
        verdict = ("PASS" if c["passed"] else "FAIL") if c["gate"] else "INFO"
        lines.append(f"check {verdict} {c['check']}: z={c['z']:.2f} ({c['detail']})")
    for f in failures[:20]:
        lines.append(f"op not ok: {f['op']}: {f['reason']}")
    if len(failures) > 20:
        lines.append(f"... and {len(failures) - 20} more (see the result file)")

    result = {"env": env, "end_to_end": e2e, "info": info, "checks": checks, "extra": extra,
              "failures": failures, "correct": correct}
    if args.trace:
        layer, missing = report.layer_metrics(args.workload, workers, ops)
        overhead, n_on, n_off = report.trace_overhead(ops)
        lines += report.layer_table(layer, args.workload)
        lines.append(
            "tracing overhead: " + (f"{100 * overhead:+.2f}%" if overhead is not None else "n/a")
            + f" (median traced op vs median untraced op, {n_on} and {n_off} alternating ops);"
            f" probes took {fmt(sum(w.get('probe_s', 0.0) for w in workers))} s"
        )
        result.update(layer=layer, trace_overhead=overhead)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([w.get("spans", []) for w in workers], fh)
        if missing:
            sys.stderr.write("perfbench: per-layer metrics not measured: " + ", ".join(missing) + "\n")
            return 1
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for line in lines:
        print("# " + line)
    print(json.dumps({"correct": correct, "attempted": info["attempted"], "failed": info["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
