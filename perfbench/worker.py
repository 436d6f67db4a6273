"""One benchmark worker: a fresh process that sets up one workload and runs
its closed loop (one client, one op at a time) for a fixed window.

Started by ``run.py``; not meant to be run by hand.  Writes one JSON
result file and exits 0, or exits non-zero if the harness itself broke.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback


# The host's speed drifts by up to ~1.7x for tens of seconds at a time
# (shared hardware; frequency cannot be pinned here).  A fixed pure-Python
# loop, timed between ops, measures that drift so report.py can scale each
# op to the speed at which the loop takes CAL_REF_S.
CAL_REF_S = 0.001
CAL_EVERY_S = 0.25


def _calibration_body():
    d = {}
    s = 0.0
    for i in range(6000):
        k = i & 255
        d[k] = d.get(k, 0.0) + i * 0.5
        s += (i % 7) * 1.5
    return s


def calibration():
    """Seconds of the calibration loop: best of three, to skip interrupts."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _calibration_body()
        best = min(best, time.perf_counter() - t)
    return best


class OpTimeout(BaseException):
    """The per-op time limit expired (BaseException: no handler in the package swallows it)."""


def _alarm(signum, frame):
    raise OpTimeout()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--last", type=int, required=True)
    ap.add_argument("--window", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    t = time.monotonic()
    cal_start = calibration()
    cal_cost = time.monotonic() - t

    import phylonetsim

    from spans import Tracer, layer_samples
    from workloads import SIZES, TYPED_ERRORS, WORKLOADS, CheckFailure, run_probes

    tracer = Tracer(phylonetsim)
    workload = WORKLOADS[args.workload](args.seed, args.index, args.size, args.scratch, tracer)
    if args.trace:
        tracer.install()
    workload.setup()
    tracer.uninstall()
    signal.signal(signal.SIGALRM, _alarm)

    setup_s = time.monotonic() - args.t0 - cal_cost
    cals = [[time.monotonic(), calibration()]]  # [taken at, seconds]
    setup_cal = 0.5 * (cal_start + cals[0][1])

    ops = []  # [seconds, outcome, traced, started at]
    failures = []
    count = workload.op_count(args.window)
    start = time.monotonic()
    while len(ops) < count if count else time.monotonic() - start < args.window:
        if time.monotonic() - cals[-1][0] >= CAL_EVERY_S:
            cals.append([time.monotonic(), calibration()])
        label, op = workload.next_op()
        traced = bool(args.trace) and len(ops) % 2 == 0
        if traced:
            tracer.op = len(ops)
            tracer.install()
        outcome = "ok"
        started = time.monotonic()
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, workload.op_limit_s)
        try:
            result = op()
        except OpTimeout:
            outcome = f"failed: time limit {workload.op_limit_s} s"
        except TYPED_ERRORS as exc:
            outcome = f"{'typed' if args.workload == 'sweep' else 'failed'}: {type(exc).__name__}"
        except Exception as exc:  # any other error fails the op, and the run goes on
            outcome = f"failed: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t
            tracer.uninstall()
        if outcome == "ok":
            try:
                workload.check(result)
            except CheckFailure as exc:
                outcome = f"failed: check: {exc}"
            except Exception as exc:
                outcome = f"failed: check raised {type(exc).__name__}: {exc}"
        ops.append([seconds, outcome, traced, started])
        if outcome != "ok":
            failures.append({"op": label, "reason": outcome})
    cals.append([time.monotonic(), calibration()])
    # speed factor of each op: reference over the calibrations either side
    for op in ops:
        after = next(i for i, c in enumerate(cals) if c[0] > op[3])
        op[3] = CAL_REF_S / (0.5 * (cals[after - 1][1] + cals[after][1]))

    out = {
        "index": args.index,
        "setup_s": setup_s,
        "setup_speed": CAL_REF_S / setup_cal,
        "ops": ops,
        "failures": failures,
        "partials": workload.partials(),
        "reference": workload.reference() if args.index == args.last else {},
    }
    if args.trace:
        t = time.perf_counter()
        if args.index == args.last:
            tracer.install()
            run_probes(workload, tracer)
            tracer.uninstall()
        out["layer"] = layer_samples(tracer.spans, tracer.samples, SIZES[args.size])
        out["probe_s"] = time.perf_counter() - t
        out["spans"] = [s for s in tracer.spans if s is not None]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
