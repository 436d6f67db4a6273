import itertools
import math
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phylonetsim import (
    ModelParams,
    RngStream,
    expected_M,
    extinction_probability,
    g_derivatives,
    g_eval,
    laplace_f,
    malthusian,
    nu_circ_pmf,
    offspring_pmf,
    pgf_from_state,
    simple_pext_bounds,
    simulate_trajectory,
    zeta_tilt,
)
from phylonetsim import analytics
from phylonetsim import params as params_mod
from phylonetsim.analytics import critical_mu, gap_majorant, offspring_tables, tilted_offspring
from phylonetsim.errors import DivergentTailError, NumericalFailure, PoleError
from phylonetsim.cli import main
from phylonetsim.rng import BufferedRng
import phylonetsim.verify as V

P111 = ModelParams(1.0, 1.0, 1.0)
P222 = ModelParams(0.2, 0.2, 0.2)


def brute_series(params: ModelParams, n_terms: int = 400) -> float:
    # independent oracle: plain partial sums, no tail logic
    total = 0.0
    for j in range(1, n_terms + 1):
        prod = 1.0
        for k in range(1, j + 1):
            prod /= params.alpha + params.mu + (k - 1) * params.beta
        total += params.mu * prod
    return total


def mp_series(params: ModelParams) -> mpmath.mpf:
    # independent oracle: the E[M] series at 50 digits, summed until the
    # terms fall below 1e-45 of the sum once rho_j > 2
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


class TestExpectedM:
    def test_closed_forms(self):
        em = expected_M(P111, 1e-12)
        assert em.width <= 1e-12
        assert em.midpoint == pytest.approx(math.e - 2.0, abs=1e-10)
        em2 = expected_M(P222, 1e-12)
        assert em2.midpoint == pytest.approx(0.04 * (math.exp(5.0) - 6.0), abs=1e-10)

    def test_enclosure_contains_50_digit_series(self):
        # at the first two points (E[M] ~ 2.5e21 and 2.4e13) a plain float
        # sum gives a zero-width enclosure several ulps off the series
        points = (
            ModelParams(0.102, 0.0100073, 0.0993),
            ModelParams(0.05, 0.01, 0.3),
            P111,
            P222,
        )
        for p in points:
            exact = mp_series(p)
            for tol in (1e-6, 1e-12, 1e-14):
                em = expected_M(p, tol)
                assert em.lower <= exact <= em.upper, (p, tol, em, exact)

    def test_independent_partial_sums(self):
        for p in (ModelParams(0.5, 0.7, 0.3), ModelParams(1.3, 0.4, 2.0)):
            assert expected_M(p).midpoint == pytest.approx(brute_series(p), abs=1e-11)

    def test_mu_dependence(self):
        # mu raises both the mutation intensity and the down-rate rho_k, so
        # E[M] is monotone in mu only in some regimes: increasing at
        # alpha = beta = 1, but decreasing from mu=0.5 to mu=1 at (0.2, 0.7).
        vals = [expected_M(ModelParams(1.0, 1.0, m)).midpoint for m in (0.2, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        lo = expected_M(ModelParams(0.2, 0.7, 0.5)).midpoint
        hi = expected_M(ModelParams(0.2, 0.7, 1.0)).midpoint
        assert lo > hi

    def test_runtime_below_1ms(self):
        expected_M(P111)  # warm any caches
        t0 = time.perf_counter()
        for _ in range(200):
            expected_M(P111, 1e-12)
            expected_M(P222, 1e-12)
        per_call = (time.perf_counter() - t0) / 400
        assert per_call < 1e-3


class TestGEval:
    def test_pgf_at_one_bracketed(self):
        for p in (P111, P222):
            cv = g_eval(p, 1.0)
            assert cv.lower <= 1.0 <= cv.upper

    def test_enclosures_ordered_on_grid(self):
        for p in (P111, P222):
            for z in np.linspace(0, 1, 11):
                cv = g_eval(p, float(z), tol=1e-13)
                assert 0.0 <= cv.lower <= cv.upper <= 1.0

    def test_monte_carlo_oracle_at_zero(self):
        buf = BufferedRng(RngStream(300))
        n = 50_000
        hits = sum(simulate_trajectory(P111, 1, buf).M == 0 for _ in range(n))
        g0 = g_eval(P111, 0.0).midpoint
        assert abs(hits / n - g0) <= 3.0 * math.sqrt(g0 * (1 - g0) / n)

    def test_beyond_one_is_flagged(self):
        cv = g_eval(P111, 1.2, tol=1e-10)
        assert not cv.certified
        assert cv.upper >= cv.lower > 1.0

    def test_pole_detection(self):
        with pytest.raises((PoleError, NumericalFailure)):
            g_eval(P111, 40.0, tol=1e-10)

    def test_gap_majorant_on_grid(self):
        for c in V.check_convergent_gap(P111) + V.check_convergent_gap(P222):
            assert c.passed, (c.name, c.detail)

    def test_start_level_is_excursion_pgf(self):
        # a 2-excursion has fewer mutations than the full path on average
        g2 = g_eval(P111, 0.5, start_level=2).midpoint
        g1 = g_eval(P111, 0.5, start_level=1).midpoint
        assert 0 < g1 < g2 < 1


class TestDerivatives:
    def test_prime_brackets_expected_M(self):
        for p in (P111, P222):
            d = g_derivatives(p, 1.0, 1, tol=1e-11)
            em = expected_M(p).midpoint
            assert d.lower - 1e-12 <= em <= d.upper + 1e-12

    def test_second_matches_mc(self):
        buf = BufferedRng(RngStream(301))
        n = 60_000
        vals = np.fromiter(
            ((lambda m: m * (m - 1))(simulate_trajectory(P111, 1, buf).M) for _ in range(n)),
            float,
            n,
        )
        d2 = g_derivatives(P111, 1.0, 2, tol=1e-9).midpoint
        assert abs(vals.mean() - d2) <= 3.0 * vals.std() / math.sqrt(n)

    def test_order1_at_zero_is_p1(self):
        pmf = offspring_pmf(P111, 30, tol=1e-13)
        d = g_derivatives(P111, 0.0, 1, tol=1e-11)
        assert d.midpoint == pytest.approx(float(pmf.probs[1]), abs=1e-9)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            g_derivatives(P111, 0.5, 3)


class TestExtinction:
    def test_subcritical_is_exactly_one(self):
        pe = extinction_probability(P111)
        assert pe.lower == pe.upper == 1.0

    def test_supercritical_value(self):
        pe = extinction_probability(P222, tol=1e-10)
        assert 0.23852 - 1e-5 <= pe.midpoint <= 0.34
        g = g_eval(P222, pe.midpoint, tol=1e-12)
        assert abs(g.midpoint - pe.midpoint) <= 1e-8

    def test_simple_bounds_values(self):
        lo, hi = simple_pext_bounds(P222)
        assert lo == pytest.approx(0.23851648071345035, abs=1e-12)
        assert hi == pytest.approx(0.34, abs=1e-12)
        assert simple_pext_bounds(P111) == (1.0, 1.0)

    def test_bounds_cover_p_ext_on_grid(self):
        for p in (P222, ModelParams(0.1, 0.3, 0.5), ModelParams(0.15, 0.1, 0.4)):
            if expected_M(p).midpoint <= 1.0:
                continue
            lo, hi = simple_pext_bounds(p)
            pe = extinction_probability(p).midpoint
            assert lo - 1e-9 <= pe <= hi + 1e-9


class TestOffspringPmf:
    def test_normalization(self):
        pmf = offspring_pmf(P111, 40, tol=1e-12)
        assert abs(float(pmf.probs.sum()) + pmf.tail_bound - 1.0) <= 1e-10

    def test_p0_is_g0(self):
        pmf = offspring_pmf(P222, 60, tol=1e-12)
        assert float(pmf.probs[0]) == pytest.approx(g_eval(P222, 0.0).midpoint, abs=1e-10)

    def test_mean_matches_expected_M(self):
        pmf = offspring_pmf(P111, 60, tol=1e-13)
        assert pmf.mean() == pytest.approx(math.e - 2.0, abs=1e-8)

    def test_empirical_chi2_at_1e6(self):
        buf = BufferedRng(RngStream(302))
        n = 1_000_000
        ms = np.fromiter((simulate_trajectory(P111, 1, buf).M for _ in range(n)), int, n)
        pmf = offspring_pmf(P111, 24, tol=1e-13)
        c = V.chi2_vs_expected("pmf_chi2", ms, pmf.probs, alpha=0.01)
        assert c.passed, c.detail

    def test_level_cap_is_typed(self):
        # beta = 0.0005 keeps rho_k < 1 for ~1800 levels; the truncation
        # level would pass the cap, so no table is built
        t0 = time.perf_counter()
        with pytest.raises(NumericalFailure, match="levels"):
            offspring_tables(ModelParams(0.05, 0.0005, 0.05), 256)
        assert time.perf_counter() - t0 < 5.0

    def test_duality(self):
        assert V.check_pmf_pgf_duality(P111).passed
        assert V.check_pmf_pgf_duality(P222).passed


class TestTilt:
    def test_residual(self):
        for p in (P111, P222):
            c = V.check_tilt_consistency(p)
            assert c.passed and c.statistic <= 1e-8

    def test_signs(self):
        assert zeta_tilt(P111).zeta > 1.0  # E[M] < 1
        assert zeta_tilt(P222).zeta < 1.0  # E[M] > 1

    def test_critical_tilt_is_identity(self):
        mu_c = critical_mu(0.2, 0.2)
        t = zeta_tilt(ModelParams(0.2, 0.2, mu_c), tol=1e-10)
        assert abs(t.zeta - 1.0) <= 1e-6

    def test_variance_positive_and_consistent(self):
        tilt, probs = tilted_offspring(P111)
        assert tilt.sigma_hat_sq > 0
        mean = float(np.arange(probs.size) @ probs)
        var = float((np.arange(probs.size) ** 2) @ probs) - mean**2
        assert mean == pytest.approx(1.0, abs=1e-8)
        assert var == pytest.approx(tilt.sigma_hat_sq, abs=1e-6)

    def test_overflowing_series_fails_fast(self):
        # zeta ~ 18.4: zeta^m overflows at m = 244, where P(M = m) has
        # underflowed to 0, so every support cap from 384 on sums to NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"zeta = 18\.4.*m = 244.*2\.1e-07"):
                tilted_offspring(ModelParams(10.1, 0.0102, 0.99))


class TestNuCirc:
    def test_head_values(self):
        nu = nu_circ_pmf(P111)
        assert float(nu.probs[0]) == pytest.approx(0.5 / (math.e - 2.0), abs=1e-12)
        assert float(nu.probs[1]) == pytest.approx((1.0 / 6.0) / (math.e - 2.0), abs=1e-12)

    def test_ratio_identity(self):
        nu = nu_circ_pmf(P222)
        for n in range(1, 10):
            ratio = float(nu.probs[n] / nu.probs[n - 1])
            assert ratio == pytest.approx(1.0 / P222.rho(n + 1), rel=1e-12)

    def test_sampler_consistency(self):
        for c in V.check_nu_circ_sampler(P111, seed=8, n=20_000):
            assert c.passed, c.name

    def test_stationarity_identity(self):
        assert V.check_nu_stationarity(P111).passed
        assert V.check_nu_stationarity(P222).passed

    def test_stopping_rule_is_the_exact_one(self):
        # oracle: the O(n^2) rule with the exactly rounded sum at every state
        def exact_rule(params, tol=1e-12):
            weights, w, n = [], 1.0, 0
            while True:
                n += 1
                rho = params.rho(n)
                if w > 1e300 * rho:
                    weights, w = [v / w for v in weights], 1.0
                w /= rho
                weights.append(w)
                r = 1.0 / params.rho(n + 1)
                if r < 1.0 and w * r / (1.0 - r) <= tol * math.fsum(weights):
                    total = math.fsum(weights)
                    return np.asarray(weights) / total, w * r / (1.0 - r) / total

        grid = [10 ** (k / 2) for k in range(-4, 3)]
        for a, b, m in itertools.product(grid, grid, grid):
            params = ModelParams(a, b, m)
            probs, tail = exact_rule(params)
            nu = nu_circ_pmf(params)
            assert nu.probs.tobytes() == probs.tobytes() and nu.tail_bound == tail


class TestDomain:
    """Every point of the box gets finite values or a typed error, never inf or NaN."""

    @settings(max_examples=200, deadline=2000, derandomize=True, database=None)
    @given(*[st.floats(min_value=1e-3, max_value=10.0)] * 3)
    @example(0.05, 0.0005, 0.05)
    def test_finite_or_typed_error(self, alpha, beta, mu):
        params = ModelParams(alpha, beta, mu)
        try:
            em = expected_M(params)
        except NumericalFailure:
            pass
        else:
            assert math.isfinite(em.lower) and math.isfinite(em.upper)
        kernel_calls = [lambda z=z: g_eval(params, z) for z in (0.0, 0.5, 1.0)] + [
            lambda: pgf_from_state(params, 3, 0.7),
            lambda: laplace_f(params, 2, 1.0),
            lambda: g_derivatives(params, 0.5, 1),
        ]
        for call in kernel_calls:
            try:
                cv = call()
            except (PoleError, DivergentTailError, NumericalFailure):
                continue
            assert math.isfinite(cv.lower) and math.isfinite(cv.upper)
        try:
            nu = nu_circ_pmf(params)
        except NumericalFailure:
            return
        assert np.all(np.isfinite(nu.probs)) and math.isfinite(nu.tail_bound)
        assert abs(math.fsum(nu.probs) - 1.0) <= 1e-12

    def test_overflowing_mean_is_typed(self):
        # E[M] ~ e^1339 here: nu_circ stays a finite pmf, E[M] names the regime
        params = ModelParams(0.05, 0.0005, 0.05)
        fsum_calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(math, "fsum", lambda xs, fsum=math.fsum: fsum_calls.append(1) or fsum(xs))
            nu = nu_circ_pmf(params)  # 2 124 states
        # the exact sum runs near the stopping state only, not at each of them
        assert len(fsum_calls) <= 3
        assert np.all(np.isfinite(nu.probs)) and abs(math.fsum(nu.probs) - 1.0) <= 1e-12
        t0 = time.perf_counter()
        with pytest.raises(NumericalFailure, match="not representable"):
            expected_M(params)
        assert time.perf_counter() - t0 < 0.1


class TestLaplaceF:
    def test_at_zero_is_one(self):
        for k in (1, 2, 5):
            cv = laplace_f(P111, k, 0.0)
            assert cv.lower <= 1.0 <= cv.upper + 1e-15
            assert cv.upper == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_in_lambda(self):
        assert V.check_laplace_monotone(P111, k=2).passed

    def test_domain_boundary(self):
        with pytest.raises(ValueError):
            laplace_f(P111, 1, -(1.0 + P111.alpha + P111.mu))

    def test_negative_lambda_not_certified(self):
        cv = laplace_f(P111, 1, -0.5, tol=1e-10)
        assert not cv.certified
        assert cv.midpoint > 1.0

    def test_monte_carlo(self):
        c = V.check_laplace_mc(P111, seed=9, n=30_000)
        assert c.passed, c.detail


class TestMalthusian:
    def test_signs_on_grid(self):
        c = V.check_growth_rate_signs()
        assert c.passed, c.detail

    def test_critical_value_is_zero(self):
        for c in V.check_critical_identities():
            assert c.passed, c.name

    def test_mc_identity(self):
        c = V.check_malthusian_mc(P222, seed=10, n=30_000)
        assert c.passed, c.detail


class TestMemo:
    """zeta_tilt and malthusian are solved once per parameter set and tol."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # fresh tables, and a count of the inner solver runs by name
        monkeypatch.setattr(params_mod, "_tables", {})
        counts = {"tilt": 0, "growth": 0}
        for name, key in (("_solve_tilt", "tilt"), ("_solve_growth_rate", "growth")):
            inner = getattr(analytics, name)

            def counting(params, tol, inner=inner, key=key):
                counts[key] += 1
                return inner(params, tol)

            monkeypatch.setattr(analytics, name, counting)
        return counts

    def test_analyze_solves_once(self, solves, tmp_path):
        argv = ["analyze", "--samples", "2000", "--out", str(tmp_path / "a.json")]
        assert main(argv) == 0
        assert solves == {"tilt": 1, "growth": 1}
        assert main(argv) == 0
        assert solves == {"tilt": 1, "growth": 1}

    def test_tol_kept_apart(self, solves):
        a, b = zeta_tilt(P222, tol=1e-10), zeta_tilt(P222, tol=1e-12)
        assert solves["tilt"] == 2
        assert zeta_tilt(P222, tol=1e-10) is a and zeta_tilt(P222, tol=1e-12) is b
        malthusian(P222, tol=1e-10)
        malthusian(P222, tol=1e-9)
        assert solves == {"tilt": 2, "growth": 2}

    def test_typed_errors_are_raised_again(self, solves):
        for _ in range(2):
            with pytest.raises(PoleError):
                zeta_tilt(ModelParams(0.1, 0.01, 0.1))
            with pytest.raises(DivergentTailError):
                malthusian(ModelParams(0.1, 0.01, 0.01))
        assert solves == {"tilt": 2, "growth": 2}

    def test_eviction_drops_the_memo(self, solves):
        zeta_tilt(P111)
        zeta_tilt(P111)
        assert solves["tilt"] == 1
        for i in range(params_mod.TABLES_CAP):
            params_mod.tables(ModelParams(1.0, 1.0, 2.0 + i))
        zeta_tilt(P111)
        assert solves["tilt"] == 2


class TestPgfFromState:
    def test_empty_product(self):
        cv = pgf_from_state(P111, 0, 0.7)
        assert cv.lower == cv.upper == 1.0

    def test_single_excursion(self):
        a = pgf_from_state(P111, 1, 0.3, tol=1e-13)
        b = g_eval(P111, 0.3, tol=1e-13)
        assert a.midpoint == pytest.approx(b.midpoint, abs=1e-11)

    def test_monte_carlo_from_state_3(self):
        c = V.check_pgf_state_mc(P111, seed=11, n=30_000)
        assert c.passed, c.detail


class TestSoundness:
    def test_enclosure_soundness(self):
        for p in (P111, P222):
            for c in V.check_enclosure_soundness(p):
                assert c.passed, c.name

    def test_gap_majorant_function(self):
        assert gap_majorant(P111, 3) == pytest.approx(1.0 / (2 * 3 * 4))


def mp_truncated(params: ModelParams, x: float, depth: int, terminal, passage: bool = False) -> dict:
    # independent oracle: the depth-truncated backward recursion at 50 digits,
    # v_k = a_k / (d_k - v_{k+1}) from v_{depth+1} = terminal, as {k: v_k};
    # terminal "gbar" is the self-consistent pgf terminal of the lower convergent
    with mpmath.workdps(50):
        a, b, m, x = (mpmath.mpf(t) for t in (params.alpha, params.beta, params.mu, x))
        rho = lambda k: a + m + (k - 1) * b
        if terminal == "gbar":
            v = (1 + rho(depth) - mpmath.sqrt((1 - rho(depth)) ** 2 - 4 * m * (x - 1))) / 2
        else:
            v = mpmath.mpf(terminal)
        vs = {}
        for k in range(depth, 0, -1):
            if passage:
                v = rho(k) / (1 + rho(k) + x / k - v)
            else:
                v = (a + m * x + (k - 1) * b) / (1 + rho(k) - v)
            vs[k] = v
        return vs


class TestKernelOracle:
    """Each certified end is its truncated recursion at the returned depth, to rounding.

    The bound is 4 (depth + k) eps W, with W = prod_{j<=depth} max(1, 1/rho_j):
    for z <= 1 and lam >= 0, W bounds how much a rounding error made at any
    level is amplified on its way down to the result.
    """

    POINTS = (P111, P222, ModelParams(2.0, 0.5, 0.1), ModelParams(0.05, 0.01, 0.3))

    @staticmethod
    def assert_ends_match(params, cv, k, ends):
        w = math.prod(max(1.0, 1.0 / params.rho(j)) for j in range(1, cv.depth + 1))
        bound = 4.0 * (cv.depth + k) * sys.float_info.epsilon * w
        clip = lambda v: min(max(v, 0), 1)
        lo, hi = clip(min(ends)), clip(max(ends))
        assert abs(cv.lower - lo) <= bound, (params, cv, float(lo), bound)
        assert abs(cv.upper - hi) <= bound, (params, cv, float(hi), bound)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("params", POINTS)
    def test_g_eval(self, params, tol):
        for z in (0.0, 0.5, 1.0):
            cv = g_eval(params, z, tol=tol)
            ends = [mp_truncated(params, z, cv.depth, t)[1] for t in ("gbar", 1)]
            self.assert_ends_match(params, cv, 1, ends)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("params", POINTS)
    def test_pgf_from_state(self, params, tol):
        for z in (0.0, 0.7, 1.0):
            cv = pgf_from_state(params, 3, z, tol=tol)
            trails = [mp_truncated(params, z, cv.depth, t) for t in ("gbar", 1)]
            self.assert_ends_match(params, cv, 3, [vs[1] * vs[2] * vs[3] for vs in trails])

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("params", POINTS)
    def test_laplace_f(self, params, tol):
        for lam in (0.0, 1.0):
            cv = laplace_f(params, 2, lam, tol=tol)
            ends = [mp_truncated(params, lam, cv.depth, t, passage=True)[2] for t in (0, 1)]
            self.assert_ends_match(params, cv, 2, ends)
