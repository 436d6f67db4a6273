"""Turn worker results into the run's metrics, checks and tables.

Imports nothing from the package, so ``run.py`` stays light.
"""

from __future__ import annotations

import math
import statistics

# End-to-end metrics gated by BENCHMARK.json: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]

S, A, Q, W = "simulate", "analyze", "query", "sweep"

# Per-layer metrics: (name, unit, reducer, [(end-to-end metric, workload), ...]
# it should move).
LAYER_METRICS = [
    ("rng.uniform_ns", "ns", "median", [("ops_per_s", A), ("ops_per_s", S)]),
    ("rng.stream_open_us", "us", "median", [("ops_per_s", A)]),
    ("model.trajectory_us", "us", "median", [("ops_per_s", A), ("time_to_accuracy_s", A)]),
    ("model.events_per_trajectory", "count", "mean", [("ops_per_s", A), ("time_to_accuracy_s", A)]),
    ("model.conditioned_path_us.m1", "us", "median", [("ops_per_s", S), ("op_ms_tail", S)]),
    ("model.conditioned_path_us.m4", "us", "median", [("ops_per_s", S), ("op_ms_tail", S)]),
    ("model.conditioned_path_us.m16", "us", "median", [("ops_per_s", S), ("op_ms_tail", S)]),
    ("network.tree_ms", "ms", "median", [("ops_per_s", S)]),
    *[
        (f"network.decorate_us.m{m}", "us", "median", [("ops_per_s", S), ("op_ms_tail", S)])
        for m in (*range(7), "7_up")
    ],
    ("network.vertices.m5_up", "count", "mean", [("ops_per_s", S), ("op_ms_tail", S)]),
    ("network.sample_network_ms", "ms", "median", [("ops_per_s", S)]),
    ("network.decorate_share", "ratio", "median", [("ops_per_s", S)]),
    ("network.to_json_dict_ms", "ms", "median", [("ops_per_s", S)]),
    ("network.first_distance_ms", "ms", "median", [("setup_s", Q)]),
    ("network.sample_network_8000_s", "s", "median", [("setup_s", Q)]),
    ("network.distance_ms", "ms", "median", [("ops_per_s", Q), ("op_ms_p50", Q)]),
    ("analytics.expected_M_us", "us", "median", [("ops_per_s", W), ("op_ms_p50", W)]),
    ("analytics.extinction_ms", "ms", "median", [("ops_per_s", W), ("op_ms_p50", W)]),
    ("analytics.zeta_tilt_ms", "ms", "median", [("ops_per_s", W), ("op_ms_p50", W)]),
    ("analytics.malthusian_ms", "ms", "median", [("ops_per_s", W), ("op_ms_p50", W)]),
    ("analytics.nu_circ_us", "us", "median", [("ops_per_s", W), ("op_ms_p50", W)]),
    ("analytics.tilted_offspring_ms", "ms", "median",
     [("ops_per_s", W), ("op_ms_p50", W), ("setup_s", S), ("setup_s", Q)]),
    ("analytics.pgf_from_state_us", "us", "median", [("ops_per_s", W), ("op_ms_p50", W)]),
    ("analytics.laplace_f_us", "us", "median", [("ops_per_s", W), ("op_ms_p50", W)]),
    ("analytics.depth_mean", "count", "mean", [("ops_per_s", W)]),
    ("analytics.errors.PoleError", "count", "sum", [("failed_frac", W)]),
    ("analytics.errors.NumericalFailure", "count", "sum", [("failed_frac", W)]),
    ("analytics.errors.other", "count", "sum", [("failed_frac", W)]),
    # a known defect, counted outside the timed ops (workloads.defect_probe)
    ("analytics.defect_probe.wrong", "count", "sum", []),
    ("limits.crt_constants_s", "s", "median", [("ops_per_s", A)]),
    ("limits.crt_C_rel_se", "ratio", "median", [("time_to_accuracy_s", A)]),
    ("limits.gw_size_probability_ms", "ms", "median", [("ops_per_s", W)]),
    ("cli.simulate_emit_ms", "ms", "median", [("ops_per_s", S)]),
    ("cli.simulate_json_mb", "MB", "median", [("ops_per_s", S)]),
    ("cli.analyze_numerics_ms", "ms", "median", [("op_ms_p50", A)]),
]

REDUCERS = {"median": statistics.median, "mean": statistics.fmean, "sum": math.fsum}


def tail(values):
    """(value, percentile): the highest percentile with >= 10 values beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0 * (n - 1) / n
    return xs[n - 11], 100.0 * (n - 10) / n


def scaled(op):
    """Op seconds at the reference speed (op[3] is the worker's speed factor)."""
    return op[0] * op[3]


def worker_rate(ops):
    busy = math.fsum(scaled(op) for op in ops if not op[1].startswith("typed"))
    return sum(op[1] == "ok" for op in ops) / busy if busy > 0 else 0.0


def end_to_end(workers):
    """Gated metrics plus the human-only ones, with per-worker spreads.

    Times are scaled to the reference speed of the calibration loop; the
    unscaled values are kept in ``info["raw"]``.
    """
    ops = [op for w in workers for op in w["ops"]]
    ok = [op for op in ops if op[1] == "ok"]
    typed = [op for op in ops if op[1].startswith("typed")]
    failed = [op for op in ops if op[1].startswith("failed")]
    if not ok:
        raise RuntimeError("no successful op in the run")
    # Typed errors are the sweep's answer for a point outside the working
    # domain.  Their cost depends on which failing anchors a window happens
    # to reach, so it is reported apart (typed_error_s) and kept out of the
    # throughput denominator; a failed op's time stays in it.
    t_val, t_pct = tail([scaled(op) for op in ok])
    setups = [w["setup_s"] * w["setup_speed"] for w in workers]
    m = {
        "setup_s": statistics.median(setups),
        "ops_per_s": worker_rate(ops),
        "op_ms_p50": statistics.median(scaled(op) for op in ok) * 1e3,
        "op_ms_tail": t_val * 1e3,
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers),
    }
    raw_tail = tail([op[0] for op in ok])[0]
    info = {
        "attempted": len(ops),
        "failed": len(failed),
        "succeeded": len(ok),
        "typed_errors": len(typed),
        "failed_frac": (len(failed) + len(typed)) / len(ops),
        "typed_error_s": math.fsum(scaled(op) for op in typed),
        "op_ms_tail_percentile": t_pct,
        "op_ms_tail_count": len(ok),
        "speed_factor": [min(op[3] for op in ops), statistics.median(op[3] for op in ops),
                         max(op[3] for op in ops)],
        "raw": {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "ops_per_s": len(ok) / math.fsum(op[0] for op in ops if not op[1].startswith("typed")),
            "op_ms_p50": statistics.median(op[0] for op in ok) * 1e3,
            "op_ms_tail": raw_tail * 1e3,
        },
        "per_worker": {
            "setup_s": setups,
            "ops_per_s": [worker_rate(w["ops"]) for w in workers],
            "op_ms_p50": [
                statistics.median(scaled(op) for op in w["ops"] if op[1] == "ok") * 1e3
                for w in workers
                if any(op[1] == "ok" for op in w["ops"])
            ],
            "peak_rss_mb": [w["rss_mb"] for w in workers],
        },
    }
    return m, info


# Pooled checks take at most this many ops, the first ones of the run, so a
# faster program does not meet a stronger check: a small O(1/n) estimator
# bias would otherwise reach 4 SE once enough ops fit in the window.
POOL_OPS = 64


def pooled_checks(workload, workers):
    """Run-wide statistical checks at 4 standard errors.

    Returns (list of check dicts, extra metrics).  Never byte digests: later
    changes may consume random numbers differently on purpose.
    """
    checks, extra = [], {}
    parts = [w["partials"] for w in workers]
    ref = next((w["reference"] for w in workers if w["reference"]), {})

    def add(name, diff, se, detail, gate=True):
        z = abs(diff) / se if se > 0 else (0.0 if diff == 0 else math.inf)
        checks.append({"check": name, "z": z, "passed": z <= 4.0 or not gate, "gate": gate, "detail": detail})

    if workload == "simulate":
        xs = [x for p in parts for x in p["length_per_n"]][:POOL_OPS]
        ell, ell_se = ref["ell_crosscheck"]
        if len(xs) >= 2:
            mean = statistics.fmean(xs)
            se = statistics.stdev(xs) / math.sqrt(len(xs))
            add("mean |G|/n vs ell", mean - ell, math.hypot(se, ell_se),
                f"{mean:.6g} +- {se:.2g} over {len(xs)} networks vs ell_crosscheck {ell:.6g} +- {ell_se:.2g}")
    elif workload == "query":
        diff, var, n = 0.0, 0.0, 0
        for p in parts:
            hs = p["heights"]
            if len(hs) >= 2:
                diff += statistics.fmean(hs) - p["exact_mean_height"]
                var += statistics.variance(hs) / len(hs)
                n += len(hs)
        if n:
            add("mean height of uniform points vs exact", diff, math.sqrt(var),
                f"summed over {len(parts)} networks, {n} points")
    elif workload == "analyze":
        ests = [e for p in parts for e in p["estimates"]]

        def pool(key, es):
            # Plain mean: every op uses the same sample count.  Weighting by
            # 1/se^2 would favour the ops whose weights missed the heavy tail,
            # which read low, and bias the pooled value.
            value = math.fsum(e[key][0] for e in es) / len(es)
            return value, math.sqrt(math.fsum(e[key][1] ** 2 for e in es)) / len(es)

        if ests:
            head = ests[:POOL_OPS]
            for a, b in (("EUstar", "EUstar_formula"), ("ell", "ell_crosscheck")):
                (va, sa), (vb, sb) = pool(a, head), pool(b, head)
                add(f"{a} vs {b}, pooled", va - vb, math.hypot(sa, sb),
                    f"{va:.6g} +- {sa:.2g} vs {vb:.6g} +- {sb:.2g} over {len(head)} ops")
                # Single ops are not gated: the weights zeta^M are heavy-tailed,
                # so one op in a few hundred lands beyond 4 SE.
                z = max(abs(e[a][0] - e[b][0]) / math.hypot(e[a][1], e[b][1]) for e in ests)
                add(f"{a} vs {b}, largest single-op z", z, 1.0, f"over {len(ests)} ops", gate=False)
            c, c_se = pool("C", ests)
            ok_s = math.fsum(scaled(op) for w in workers for op in w["ops"] if op[1] == "ok")
            # seconds of ops to a 1% standard error on C at this op cost
            extra["time_to_accuracy_s"] = ok_s * (c_se / c / 0.01) ** 2
            extra["C"] = [c, c_se]
    elif workload == "sweep":
        extra["em_strict_misses"] = sum(p["em_strict_misses"] for p in parts)
        extra["defect_probe"] = ref["defect_probe"]
    return checks, extra


def error_kind(outcome):
    """analytics.errors.* bucket of a non-ok sweep op outcome."""
    kind = outcome.removeprefix("typed: ")
    return kind if kind in ("PoleError", "NumericalFailure") else "other"


def layer_metrics(workload, workers, ops):
    """Reduce the workers' per-layer samples.

    On sweep the error counts are taken over the run's ops; elsewhere they
    come from the probe's sweep ops.
    """
    samples = {}
    for w in workers:
        for name, vals in w.get("layer", {}).items():
            samples.setdefault(name, []).extend(v for v in vals if v is not None)
    if workload == "sweep":
        for kind in ("PoleError", "NumericalFailure", "other"):
            samples[f"analytics.errors.{kind}"] = [
                sum(op[1] != "ok" and error_kind(op[1]) == kind for op in ops)
            ]
        ref = next(w["reference"] for w in workers if w["reference"])
        samples["analytics.defect_probe.wrong"] = [ref["defect_probe"]["wrong"]]
    out, missing = {}, []
    for name, unit, reducer, _ in LAYER_METRICS:
        vals = samples.get(name)
        if not vals:
            missing.append(name)
            continue
        out[name] = {"value": float(REDUCERS[reducer](vals)), "unit": unit, "n": len(vals)}
    return out, missing


def trace_overhead(ops):
    """Median traced op over median untraced op, minus one (alternating ops)."""
    on = [scaled(op) for op in ops if op[1] == "ok" and op[2]]
    off = [scaled(op) for op in ops if op[1] == "ok" and not op[2]]
    if not on or not off:
        return None, len(on), len(off)
    return statistics.median(on) / statistics.median(off) - 1.0, len(on), len(off)


def layer_table(layer, workload):
    lines = [f"per-layer table ({workload} run; median of samples unless noted)"]
    lines.append(f"{'metric':36s} {'value':>14s} {'unit':6s} {'n':>6s}  should move")
    for name, unit, reducer, moves in LAYER_METRICS:
        entry = layer.get(name)
        value = f"{entry['value']:.6g}" if entry else "not measured"
        count = str(entry["n"]) if entry else "-"
        target = ", ".join(f"{m} on {w}" for m, w in moves) or "none: counts wrong answers of a known defect"
        note = f" ({reducer})" if reducer != "median" else ""
        lines.append(f"{name:36s} {value:>14s} {unit:6s} {count:>6s}  {target}{note}")
    return lines
