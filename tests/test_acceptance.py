"""Acceptance suite: every criterion at its stated tolerance, full scale.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  Statistical criteria use fixed seeds for reproducibility; the
bands are 3 standard errors or named significance levels, as stated.
"""

import json
import math
import time

import numpy as np
import pytest

from phylonetsim import ModelParams, RngStream
from phylonetsim import analytics, limits, network, verify
from phylonetsim.cli import main as cli_main
from phylonetsim.rng import BufferedRng

P111 = ModelParams(1.0, 1.0, 1.0)
P222 = ModelParams(0.2, 0.2, 0.2)
SEED = 8_062_026


def report(num, ok, text):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def crt_cc():
    return limits.crt_constants(P111, RngStream(SEED, 1), n_samples=100_000)


def test_criterion_01_analytic_exactness():
    t0 = time.perf_counter()
    for _ in range(100):
        em1 = analytics.expected_M(P111, 1e-12)
        em2 = analytics.expected_M(P222, 1e-12)
    per_call = (time.perf_counter() - t0) / 200
    err1 = abs(em1.midpoint - (math.e - 2.0))
    err2 = abs(em2.midpoint - 0.04 * (math.exp(5.0) - 6.0))
    ok = err1 <= 1e-10 and err2 <= 1e-10 and per_call < 1e-3
    report(
        1,
        ok,
        f"E[M] errors {err1:.2e}, {err2:.2e} (tol 1e-10); {per_call * 1e6:.0f} us/call (< 1 ms)",
    )


def test_criterion_02_certified_convergents():
    t0 = time.perf_counter()
    zs = [i / 10 for i in range(11)]
    ok = True
    worst_n20 = 0.0
    decays = {}
    for params in (P111, P222):
        sups = []
        for n in (4, 8, 12, 16, 20, 24, 28):
            sup = 0.0
            for z in zs:
                lo, hi = analytics.convergent_pair(params, z, n)
                ok &= lo <= hi + 1e-15
                sup = max(sup, hi - lo)
            sups.append(sup)
            ok &= sup <= analytics.gap_majorant(params, n) + 1e-15
            if params is P111 and n == 20:
                worst_n20 = sup
        ok &= all(a > b or b == 0.0 for a, b in zip(sups, sups[1:]))
        decays[(params.alpha)] = sups
    ok &= worst_n20 < 1e-15
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(
        2,
        ok,
        f"gap(n=20, (1,1,1)) = {worst_n20:.2e} < 1e-15; decay tables monotone; {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_03_extinction_probability():
    t0 = time.perf_counter()
    pe1 = analytics.extinction_probability(P111, tol=1e-10)
    pe2 = analytics.extinction_probability(P222, tol=1e-10)
    resid = abs(analytics.g_eval(P222, pe2.midpoint, tol=1e-12).midpoint - pe2.midpoint)
    elapsed = time.perf_counter() - t0
    ok = (
        pe1.lower == pe1.upper == 1.0
        and 0.23852 - 1e-5 <= pe2.midpoint <= 0.34000
        and resid <= 1e-8
        and elapsed < 1.0
    )
    report(
        3,
        ok,
        f"p_ext(1,1,1)=1 exactly; p_ext(0.2)={pe2.midpoint:.6f} in [0.23852,0.34000], "
        f"|g(p)-p|={resid:.1e} (<=1e-8); {elapsed:.2f}s",
    )


def test_criterion_04_tilt_and_growth_rate():
    ok = True
    resids = []
    for params in (P111, P222):
        t = analytics.zeta_tilt(params, tol=1e-12)
        g = analytics.g_eval(params, t.zeta, tol=1e-14).midpoint
        g1 = analytics.g_derivatives(params, t.zeta, 1, tol=1e-12).midpoint
        resid = abs(t.zeta * g1 / g - 1.0)
        resids.append(resid)
        ok &= resid <= 1e-8
    sign_check = verify.check_growth_rate_signs()
    ok &= sign_check.passed
    mc = []
    for params, seed in ((P222, SEED + 3), (P111, SEED + 4)):
        c = verify.check_malthusian_mc(params, seed=seed, n=100_000)
        mc.append(c)
        ok &= c.passed
    report(
        4,
        ok,
        f"|phi(zeta)-1| = {max(resids):.1e} (<=1e-8); sign(lambda)=sign(E[M]-1) on 5-point grid; "
        f"mu E[int X e^(-lam t)] = 1 within 3 SE at 1e5 (gaps {mc[0].statistic:.4f}<={mc[0].threshold:.4f}, "
        f"{mc[1].statistic:.4f}<={mc[1].threshold:.4f})",
    )


def test_criterion_05_measure_change():
    checks = verify.check_measure_change(P111, seed=SEED + 5, n=100_000)
    ok = all(c.passed for c in checks)
    detail = "; ".join(f"{c.name}: gap {c.statistic:.5f} <= {c.threshold:.5f}" for c in checks)
    report(5, ok, detail + " (1e5 per side)")


def test_criterion_06_path_decomposition():
    checks = verify.check_x_mut_equivalence(P111, seed=SEED + 6, n=100_000)
    ok = all(c.passed for c in checks)
    detail = "; ".join(f"{c.name}: p={c.statistic:.4f}" for c in checks)
    report(6, ok, detail + " (KS/chi2 at 0.01, 1e5 samples)")


def test_criterion_07_dwass_and_size_asymptotics(crt_cc):
    t0 = time.perf_counter()
    small = verify.check_dwass_small_n(P111, seed=SEED + 7, n_samples=100_000)
    _, probs = analytics.tilted_offspring(P111)
    ratios = []
    for n in (250, 500, 1000, 2000):
        v, _ = limits.gw_size_probability(probs, n)
        ratios.append(v / (n**-1.5 / math.sqrt(2.0 * math.pi * crt_cc.sigma_hat_sq)))
    trend = all(abs(b - 1.0) <= abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    ok = small.passed and abs(ratios[-1] - 1.0) <= 0.10 and trend and elapsed < 60.0
    report(
        7,
        ok,
        f"exact-vs-MC worst z = {small.statistic:.2f} (<=3) for n<=8; ratio(2000) = {ratios[-1]:.4f} "
        f"(within 10%), trend {['%.4f' % r for r in ratios]}; {elapsed:.1f}s (< 1 min)",
    )


def test_criterion_08_network_samplers():
    two = verify.check_tilted_vs_direct(P111, seed=SEED + 8, n=4, n_samples=6000)
    dh = verify.check_distance_height(P111, seed=SEED + 9, n=40, n_points=150)
    G = network.sample_network(P111, 30, RngStream(SEED + 10))
    exact_len = G.total_length == math.fsum(d.total_length for d in G.decorations)
    ok = all(c.passed for c in two) and all(c.passed for c in dh) and exact_len
    report(
        8,
        ok,
        f"tilted-vs-direct at n=4: p = {two[0].statistic:.4f}, {two[1].statistic:.4f} (>=0.01); "
        "d(root,x)==height(x) exact on all tested points; |G_n| == sum L_v exactly",
    )


def test_criterion_09_crt_scale(crt_cc):
    ok_dual = crt_cc.EUstar.overlaps(crt_cc.EUstar_formula)
    rep500 = verify.verify_crt_scaling(
        P111, 500, 1000, RngStream(SEED, 11), constants=crt_cc, workers=4
    )
    ms = rep500["mean_size_per_color"]
    gap = abs(ms["value"] - crt_cc.ell.value)
    band = 3.0 * math.hypot(ms["std_error"], crt_cc.ell.std_error)
    ok_size = gap <= band
    rep2000 = verify.verify_crt_scaling(
        P111, 2000, 200, RngStream(SEED, 12), constants=crt_cc, workers=4
    )
    ok_maxh = rep2000["max_height_rel_err"] <= 0.15
    supdevs = []
    for n, reps in ((200, 150), (800, 80), (3200, 40)):
        r = verify.verify_crt_scaling(
            P111, n, reps, RngStream(SEED, 100 + n), constants=crt_cc, workers=4
        )
        supdevs.append(r["mean_sup_deviation_rescaled"])
    ok_trend = supdevs[0] > supdevs[1] > supdevs[2]
    ok = ok_dual and ok_size and ok_maxh and ok_trend
    report(
        9,
        ok,
        f"dual E[U*]: {crt_cc.EUstar.value:.4f}+-{crt_cc.EUstar.std_error:.4f} vs "
        f"{crt_cc.EUstar_formula.value:.4f}+-{crt_cc.EUstar_formula.std_error:.4f} (3SE); "
        f"|G_500|/500 gap {gap:.4f} <= {band:.4f}; max-height rel err "
        f"{rep2000['max_height_rel_err']:.3f} (<=0.15); sup-dev/sqrt(n) "
        f"{['%.3f' % s for s in supdevs]} decreasing "
        "(GHP convergence itself is replaced by these property checks)",
    )


def test_criterion_10_local_limit():
    tilt = analytics.zeta_tilt(P111)
    # internal: N statistic of the focal decoration, the ball of radius 0, in one batch
    buf = BufferedRng(RngStream(SEED, 13))
    n_balls = 30_000
    Ns = np.array([len(net.alive_at(0.0)) for net in limits.focal_network_batch(P111, tilt.zeta, n_balls, buf)])
    tab = limits.prob_N_table(P111, tilt.zeta)
    kcap = 8
    probs = np.concatenate([tab[: kcap - 1], [1.0 - tab[: kcap - 1].sum()]])
    internal = verify.chi2_vs_expected("ball_N_internal", Ns - 1, probs)
    finite = verify.check_finite_n_local(
        P111, seed=SEED + 14, n=2000, n_networks=400, ball_samples=20_000
    )
    identity = verify.check_prob_N_basics(P111)
    ok = internal.passed and all(c.passed for c in finite) and all(c.passed for c in identity)
    report(
        10,
        ok,
        f"ball-internal N: p = {internal.statistic:.4f} (>= {internal.threshold:.2f}); "
        f"finite-n (n=2000) N law p = {finite[0].statistic:.4f} (>=0.01), focal outdegree p = "
        f"{finite[1].statistic:.4f} (>= {finite[1].threshold:.2f}); prob_N(zeta=1) == nu_circ exactly",
    )


def test_criterion_11_reproducibility(tmp_path):
    argv = [
        "analyze", "--alpha", "1", "--beta", "1", "--mu", "1",
        "--samples", "2000", "--seed", "33",
    ]
    outs = []
    for i in range(2):
        path = tmp_path / f"rep{i}.json"
        assert cli_main(argv + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    base = [
        "verify", "--suite", "crt", "--alpha", "1", "--beta", "1", "--mu", "1",
        "--seed", "6", "--n", "80", "--replicates", "32", "--samples", "5000",
    ]
    w_outs = []
    for i, w in enumerate(("1", "3")):
        path = tmp_path / f"w{i}.json"
        cli_main(base + ["--workers", w, "--out", str(path)])
        w_outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and w_outs[0] == w_outs[1]
    report(
        11,
        ok,
        "byte-identical JSON across reruns and across worker counts (1 vs 3)",
    )
