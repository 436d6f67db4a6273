"""The four benchmark workloads and the unit probes of the traced run.

Each workload object owns its set-up, draws its op inputs from the
workload seed, runs one op, checks the op's output with deterministic
invariants, and keeps the partial sums that ``report.pooled_checks`` turns
into run-wide statistical checks.  This module runs only inside a worker
process; the package is imported here so that import time lands in
``setup_s``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import time

import mpmath
import numpy as np

from phylonetsim import analytics, cli, errors, limits, network
from phylonetsim.model import sample_conditioned_path, simulate_trajectory
from phylonetsim.params import ModelParams
from phylonetsim.rng import BufferedRng, RngStream

from spans import CLI_MAIN, DISTANCE, FIRST_DISTANCE

PARAMS = ModelParams(1.0, 1.0, 1.0)

# Errors the package raises on purpose for a parameter point outside its
# working domain.  On sweep they are an answer, checked for type; anywhere
# else, and any other exception, they fail the op.
TYPED_ERRORS = (
    errors.PoleError,
    errors.NumericalFailure,
    errors.DivergentTailError,
    errors.RetryBudgetError,
    errors.EventCapError,
    errors.GlueError,
)

SIZES = {
    "full": {"simulate_n": 2000, "query_n": 8000, "query_pairs": 4000, "analyze_samples": 20_000},
    "tiny": {"simulate_n": 60, "query_n": 300, "query_pairs": 400, "analyze_samples": 400},
}

# Sweep anchors: the decade grid {0.01, 0.1, 1, 10}^3, which holds the
# known failing corners.  Each visit moves the anchor by a log-uniform
# factor of at most 10**SWEEP_JITTER (inward at the box edge), so no point
# is visited twice in a process and the per-point caches never hit.
SWEEP_ANCHORS = (-2.0, -1.0, 0.0, 1.0)
SWEEP_JITTER = 0.02
SWEEP_PASS_S = 7.0
# The PoleError corners, beta = 0.01 with alpha, mu <= 0.1, are visited
# exactly: there the package raises PoleError every time.  Jittered, the
# outcome flips between PoleError, a right answer and, near (0.1, 0.01, 0.1)
# and (0.1, 0.01, 0.01), a silently wrong tilt.  defect_probe counts that
# defect apart from the timed ops.
POLE_CORNERS = {(a, -2.0, m) for a in (-2.0, -1.0) for m in (-2.0, -1.0)}
DEFECT_ANCHORS = ((-1.0, -2.0, -1.0), (-1.0, -2.0, -2.0))
DEFECT_PROBE_POINTS = 32  # per anchor
DEFECT_PROBE_LIMIT_S = 1.0  # per point, so the probe ends within about a minute


class CheckFailure(Exception):
    """A per-op invariant did not hold."""


def check(cond, message):
    if not cond:
        raise CheckFailure(message)


def finite(*xs):
    return all(math.isfinite(float(x)) for x in xs)


class Workload:
    """Base: op seeds come from (workload seed, worker index)."""

    name = ""
    op_limit_s = 30.0

    def __init__(self, seed, index, size, scratch, tracer):
        self.seed = seed
        self.index = index
        self.size_name = size
        self.size = SIZES[size]
        self.scratch = scratch
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, index, sum(map(ord, self.name))])

    def draw_seed(self):
        return int(self.rng.integers(1, 2**31))

    def prepare(self):
        """State the ops need, without running any."""

    def setup(self):
        """Untimed work before the first timed op (tables, inputs, warm op)."""
        self.prepare()

    def op_count(self, window):
        """Ops to run, or None to run until the window has passed."""
        return None

    def next_op(self):
        """(label, zero-argument callable) of the next op; inputs are drawn here, untimed."""
        raise NotImplementedError

    def check(self, result):
        """Raise CheckFailure if the op's output is wrong."""

    def partials(self):
        return {}

    def reference(self):
        """Run-wide reference values; computed by the last worker only."""
        return {}


class Simulate(Workload):
    """`phylonetsim simulate --n 2000` at (1,1,1), through cli.main."""

    name = "simulate"

    def prepare(self):
        self.n = self.size["simulate_n"]
        self.path = os.path.join(self.scratch, f"simulate-{self.index}.json")
        self.length_per_n = []

    def setup(self):
        self.prepare()
        label, op = self._op(self.draw_seed())
        self.check(op())
        self.length_per_n.clear()

    def _op(self, s):
        argv = ["simulate", "--n", str(self.n), "--seed", str(s), "--out", self.path]
        return " ".join(argv[:5]), lambda: self.tracer.span(CLI_MAIN, cli.main, argv)

    def next_op(self):
        return self._op(self.draw_seed())

    def check(self, rc):
        check(rc == 0, f"exit code {rc}")
        self.tracer.add("cli.simulate_json_mb", os.path.getsize(self.path) / 1e6)
        with open(self.path) as fh:
            doc = json.load(fh)
        check(len(doc["networks"]) == 1, "one network expected")
        d = doc["networks"][0]
        G = network.GluedNetwork.from_json_dict(d)  # raises GlueError on a glue mismatch
        check(G.n_colors == self.n, f"{G.n_colors} vertices, expected {self.n}")
        glue = [[c, v, i] for v in range(self.n) for i, c in enumerate(G.tree.children[v])]
        check(d["glue"] == glue and len(glue) == self.n - 1, "glue list disagrees with the tree")
        via_paths = math.fsum(dec.trajectory.L for dec in G.decorations)
        check(abs(G.total_length - via_paths) <= 1e-9 * via_paths, "|G| != sum of decoration lengths")
        self.length_per_n.append(G.total_length / self.n)

    def partials(self):
        return {"length_per_n": self.length_per_n}

    def reference(self):
        cc = limits.crt_constants(PARAMS, RngStream(self.seed, 7), n_samples=self.size["analyze_samples"])
        # the measure-change estimator: plain Monte Carlo, so unbiased
        return {"ell_crosscheck": [cc.ell_crosscheck.value, cc.ell_crosscheck.std_error]}


class Query(Workload):
    """distance(G, a, b) on one n=8000 network with pre-drawn point pairs."""

    name = "query"
    op_limit_s = 10.0

    def setup(self):
        s = self.draw_seed()
        self.G = network.sample_network(PARAMS, self.size["query_n"], RngStream(s))
        self.buf = BufferedRng(RngStream(s, 1))
        self.draw_pairs()
        a, b = self.pairs.pop()
        self.tracer.span(FIRST_DISTANCE, network.distance, self.G, a, b)  # builds the graph
        self.heights = []

    def draw_pairs(self):
        self.pairs = [
            (network.uniform_point(self.G, self.buf), network.uniform_point(self.G, self.buf))
            for _ in range(self.size["query_pairs"])
        ]

    def next_op(self):
        if not self.pairs:
            self.draw_pairs()
        a, b = self.pairs.pop()
        self.current = (a, b)
        return "distance", lambda: self.tracer.span(DISTANCE, network.distance, self.G, a, b)

    def check(self, d):
        a, b = self.current
        ha, hb = self.G.time_coordinate(a), self.G.time_coordinate(b)
        eps = 1e-9 * max(1.0, ha + hb)
        check(math.isfinite(d), "non-finite distance")
        check(abs(ha - hb) - eps <= d <= ha + hb + eps, f"d={d} outside [|ha-hb|, ha+hb]")
        d_back = network.distance(self.G, b, a)
        check(abs(d - d_back) <= eps, f"d(a,b)={d} != d(b,a)={d_back}")
        self.heights += [ha, hb]

    def partials(self):
        # E[h(U)] for a length-uniform point, exactly, from the decorations
        num = []
        for v, dec in enumerate(self.G.decorations):
            base = self.G.root_height[v] - dec.trajectory.start_time
            num += [ln.length * (base + 0.5 * (ln.birth_time + ln.end_time)) for ln in dec.lineages]
        return {"heights": self.heights, "exact_mean_height": math.fsum(num) / self.G.total_length}


class Analyze(Workload):
    """`phylonetsim analyze` at (1,1,1) with 20 000 samples, through cli.main."""

    name = "analyze"

    def prepare(self):
        self.path = os.path.join(self.scratch, f"analyze-{self.index}.json")
        self.estimates = []

    def setup(self):
        self.prepare()
        label, op = self.next_op()
        self.check(op())
        self.estimates.clear()

    def next_op(self):
        argv = ["analyze", "--seed", str(self.draw_seed()), "--samples",
                str(self.size["analyze_samples"]), "--out", self.path]
        return " ".join(argv[:3]), lambda: self.tracer.span(CLI_MAIN, cli.main, argv)

    def check(self, rc):
        check(rc == 0, f"exit code {rc}")
        with open(self.path) as fh:
            a = json.load(fh)["analysis"]
        em = a["expected_M"]["value"]
        check(abs(em - (math.e - 2.0)) <= 1e-10, f"E[M]={em} != e-2")
        check(a["extinction_probability"]["value"] == 1.0, "p_ext != 1")
        cc = a["crt_constants"]
        sigma = math.sqrt(a["tilt"]["sigma_hat_sq"])
        check(
            abs(cc["C"]["value"] * 2.0 * cc["EUstar"]["value"] - sigma) <= 1e-12 * sigma,
            "C * 2 E[U*] != sigma_hat",
        )
        keys = ("EUstar", "EUstar_formula", "ell", "ell_crosscheck", "C")
        self.estimates.append({k: [cc[k]["value"], cc[k]["std_error"]] for k in keys})

    def partials(self):
        return {"estimates": self.estimates}


def sweep_point(params):
    """The certified analysis of one parameter point: the sweep op."""
    out = {"params": params}
    out["em"] = analytics.expected_M(params)
    out["pe"] = analytics.extinction_probability(params)
    out["tilt"] = analytics.zeta_tilt(params)
    out["lam"] = analytics.malthusian(params)
    out["nu"] = analytics.nu_circ_pmf(params)
    out["tilted"] = analytics.tilted_offspring(params)[1]
    out["pgf"] = analytics.pgf_from_state(params, 3, 0.7)
    out["lap"] = analytics.laplace_f(params, 2, 1.0)
    out["gw"] = limits.gw_size_probability(out["tilted"], 500)
    return out


def expected_M_oracle(params):
    """E[M] = mu sum_j prod_{k<=j} 1/rho_k at 50 digits."""
    with mpmath.workdps(50):
        a, b, m = (mpmath.mpf(x) for x in (params.alpha, params.beta, params.mu))
        s, w, j = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            j += 1
            rho = a + m + (j - 1) * b
            w /= rho
            s += m * w
            if rho > 2 and m * w < mpmath.mpf(10) ** -45 * s:
                return s


class Sweep(Workload):
    """Certified analysis of one parameter point per op, near the decade grid."""

    name = "sweep"
    op_limit_s = 20.0

    def op_count(self, window):
        # Whole passes only: the slowest healthy anchors are a handful per
        # pass, so a window ending mid-pass would move op_ms_tail by which
        # of them it reached.  SWEEP_PASS_S is the nominal pass time.
        return 64 * max(1, round(window / SWEEP_PASS_S))

    def prepare(self):
        self.queue = []
        self.em_strict_misses = 0

    def setup(self):
        self.prepare()
        sweep_point(PARAMS)  # warms code paths; (1,1,1) is never drawn again

    def next_op(self):
        if not self.queue:
            self.queue = self._pass()[::-1]
        p = self.queue.pop()
        return f"sweep alpha={p.alpha!r} beta={p.beta!r} mu={p.mu!r}", lambda: sweep_point(p)

    def _pass(self):
        """All 64 anchors once, jittered, in four seed-shuffled rounds.

        Each round holds every (alpha, beta) pair once and every mu four
        times, so a window that ends mid-pass still sees the failing corners
        (alpha = 10 with beta <= 0.1) and the slow ones in their share.
        """
        sa, sb = self.rng.permutation(4), self.rng.permutation(4)
        points = []
        for r in range(4):
            rnd = [(i, j, (sa[i] + sb[j] + r) % 4) for i in range(4) for j in range(4)]
            for k in self.rng.permutation(16):
                logs = tuple(SWEEP_ANCHORS[x] for x in rnd[k])
                pt = logs if logs in POLE_CORNERS else jitter(logs, self.rng)
                points.append(ModelParams(*(float(10.0**x) for x in pt)))
        return points

    def check(self, r):
        p = r["params"]
        em, pe = r["em"], r["pe"]
        for key in ("em", "pe", "pgf", "lap"):
            cv = r[key]
            check(finite(cv.lower, cv.upper) and cv.lower <= cv.upper, f"{key}: bad enclosure {cv}")
        tilt = r["tilt"]
        check(finite(tilt.zeta, tilt.E_zetaM, tilt.sigma_hat_sq, r["lam"], *r["gw"]), "non-finite output")
        check(np.all(np.isfinite(r["nu"].probs)) and np.all(np.isfinite(r["tilted"])), "non-finite pmf")
        # The package sums the series in plain floating point, without outward
        # rounding.  Strict misses are counted and reported; the op fails only
        # beyond the forward error bound of a depth-j running product and sum,
        # 2 j eps |E[M]|.
        oracle = expected_M_oracle(p)
        if not em.lower <= oracle <= em.upper:
            self.em_strict_misses += 1
        slack = 2 * em.depth * sys.float_info.epsilon * abs(em.upper)
        check(em.lower - slack <= oracle <= em.upper + slack,
              f"E[M] enclosure [{em.lower!r}, {em.upper!r}] misses {mpmath.nstr(oracle, 20)}")
        g = analytics.g_eval(p, pe.midpoint).midpoint
        check(abs(g - pe.midpoint) <= 1e-8, f"|g(p_ext) - p_ext| = {abs(g - pe.midpoint)}")
        if em.midpoint != 1.0:
            check(np.sign(r["lam"]) == np.sign(em.midpoint - 1.0), f"sign(lambda={r['lam']}) != sign(E[M]-1)")
        mean = float(np.arange(r["tilted"].size) @ r["tilted"])
        check(abs(mean - 1.0) <= 1e-6, f"tilted mean {mean}")
        lo, hi = analytics.simple_pext_bounds(p)
        check(lo - 1e-12 <= pe.midpoint <= hi + 1e-12, f"p_ext {pe.midpoint} outside [{lo}, {hi}]")
        check(0.0 <= r["gw"][0] <= 1.0, "P(|T| = 500) outside [0, 1]")

    def partials(self):
        return {"em_strict_misses": self.em_strict_misses}

    def reference(self):
        return {"defect_probe": defect_probe(self.seed, self.size_name)}


def jitter(logs, rng):
    """Move each log10 coordinate by at most SWEEP_JITTER, inward at the box edge."""
    jit = rng.uniform(-SWEEP_JITTER, SWEEP_JITTER, 3)
    return [x + (abs(j) if x == -2.0 else -abs(j) if x == 1.0 else j) for x, j in zip(logs, jit)]


class ProbeTimeout(BaseException):
    """A defect-probe point ran past DEFECT_PROBE_LIMIT_S."""


def _probe_alarm(signum, frame):
    raise ProbeTimeout()


def defect_probe(seed, size):
    """Outcomes of jittered points around DEFECT_ANCHORS, untimed and not gated.

    Some of these points get a silently wrong tilted law (mean about 0.64
    or 0.10, not 1) instead of PoleError.  The count of such "wrong"
    outcomes is reported by every sweep run and every traced run.
    """
    rng = np.random.default_rng([seed, 77])
    checker = Sweep(seed, 0, size, "", None)
    checker.prepare()
    counts = {"wrong": 0, "ok": 0, "PoleError": 0, "NumericalFailure": 0, "timeout": 0, "other": 0}
    previous = signal.signal(signal.SIGALRM, _probe_alarm)
    try:
        for anchor in DEFECT_ANCHORS * DEFECT_PROBE_POINTS:
            p = ModelParams(*(float(10.0**x) for x in jitter(anchor, rng)))
            signal.setitimer(signal.ITIMER_REAL, DEFECT_PROBE_LIMIT_S)
            try:
                checker.check(sweep_point(p))
                kind = "ok"
            except CheckFailure:
                kind = "wrong"
            except ProbeTimeout:
                kind = "timeout"
            except Exception as exc:
                kind = type(exc).__name__
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            counts[kind if kind in counts else "other"] += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    return counts


WORKLOADS = {w.name: w for w in (Simulate, Query, Analyze, Sweep)}


# -- unit probes (traced run only) -------------------------------------------


def _reps(tracer, name, reps, count, fn, scale):
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(count):
            fn()
        tracer.add(name, (time.perf_counter() - t0) / count * scale)


def run_probes(workload, tracer):
    """Time unit costs on inputs drawn from the workload seed.

    Layers the workload's own ops leave untouched are measured here by
    one traced op of the workload that does exercise them, so every run
    reports every per-layer metric.
    """
    seed, size = workload.seed, workload.size
    stream = RngStream(seed, 900)
    buf = BufferedRng(stream)
    _reps(tracer, "rng.uniform_ns", 5, 100_000, buf.uniform, 1e9)
    opened = iter(range(10**6))
    _reps(tracer, "rng.stream_open_us", 5, 200, lambda: BufferedRng(RngStream(seed, next(opened))), 1e6)
    for _ in range(5):
        t0 = time.perf_counter()
        events = [len(simulate_trajectory(PARAMS, 1, buf).events) for _ in range(2000)]
        tracer.add("model.trajectory_us", (time.perf_counter() - t0) / 2000 * 1e6)
        tracer.add("model.events_per_trajectory", sum(events) / len(events))
    for m, count in ((1, 200), (4, 50), (16, 10)):
        _reps(tracer, f"model.conditioned_path_us.m{m}", 5, count,
              lambda: sample_conditioned_path(PARAMS, m, buf), 1e6)

    def one_op(cls):
        w = cls(seed, 1000, workload.size_name, workload.scratch, tracer)
        w.prepare()
        w.next_op()[1]()
        return w

    other = workload.name
    if other != "simulate":
        sim = one_op(Simulate)
        tracer.add("cli.simulate_json_mb", os.path.getsize(sim.path) / 1e6)
    if other != "query":
        G = network.sample_network(PARAMS, size["query_n"], RngStream(seed, 901))
        qbuf = BufferedRng(RngStream(seed, 902))
        pts = [network.uniform_point(G, qbuf) for _ in range(12)]
        tracer.span(FIRST_DISTANCE, network.distance, G, pts[0], pts[1])
        for a, b in zip(pts[2::2], pts[3::2]):
            tracer.span(DISTANCE, network.distance, G, a, b)
    if other != "analyze":
        one_op(Analyze)
    if other != "sweep" or not any(s and s[0] == "analytics.laplace_f" and s[6] for s in tracer.spans):
        # sweep points until three succeed, so every analytics function is timed
        sweep = Sweep(seed, 1000, workload.size_name, workload.scratch, tracer)
        sweep.prepare()
        errs = {"PoleError": 0, "NumericalFailure": 0, "other": 0}
        done = 0
        while done < 3 and sum(errs.values()) < 20:
            try:
                sweep.next_op()[1]()
                done += 1
            except TYPED_ERRORS as exc:
                kind = type(exc).__name__
                errs[kind if kind in errs else "other"] += 1
        if other != "sweep":
            for kind, count in errs.items():
                tracer.add(f"analytics.errors.{kind}", count)
    if other != "sweep":  # a sweep run takes the count from Sweep.reference
        tracer.uninstall()
        tracer.add("analytics.defect_probe.wrong", defect_probe(seed, workload.size_name)["wrong"])
        tracer.install()

    # decorate at every outdegree bucket, topped up where the trees gave few
    have = {}
    for s in tracer.spans:
        if s is not None and s[0] == "network.decorate" and s[6]:
            have[min(s[5], 7)] = have.get(min(s[5], 7), 0) + 1
    for m in range(8):
        for _ in range(max(0, 5 - have.get(m, 0))):
            network.decorate(PARAMS, m, buf)
