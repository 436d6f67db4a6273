import math

import numpy as np
import pytest

from phylonetsim import ModelParams, RngStream
from phylonetsim.analytics import nu_circ_pmf, zeta_tilt
from phylonetsim.limits import (
    crt_constants,
    gw_size_probability,
    prob_N,
    prob_N_table,
    reversal_mark_factor,
    sample_focal_network,
    sample_local_ball,
    sample_spinal_network,
    verify_crt_scaling,
)
from phylonetsim.model import TrajectoryStats, simulate_batch
from phylonetsim.network import build_color_network, tilted_offspring_cached
from phylonetsim.rng import BufferedRng
import phylonetsim.limits as limits
import phylonetsim.verify as V

P111 = ModelParams(1.0, 1.0, 1.0)
P222 = ModelParams(0.2, 0.2, 0.2)


@pytest.fixture
def pasted(monkeypatch):
    """(pasted trajectory, network) of every color the limit samplers paste, in order."""
    seen = []

    def recording(params, traj, rng):
        net = build_color_network(params, traj, rng)
        seen.append((traj, net))
        return net

    monkeypatch.setattr(limits, "build_color_network", recording)
    return seen


def excursion_ell(params: ModelParams, zeta: float, depth: int = 200) -> tuple:
    # independent oracle: h_k(lam) = E_k[exp(-lam L) zeta^M] over one
    # k-excursion solves h_k = (alpha + mu zeta + (k-1) beta) / (1 + rho_k + lam
    # - h_{k+1}); returns (h_1(0), ell = -h_1'(0) / h_1(0)).
    h, dh = 1.0, 0.0
    for k in range(depth, 0, -1):
        a = params.alpha + params.mu * zeta + (k - 1) * params.beta
        den = 1.0 + params.rho(k) - h
        h, dh = a / den, -a * (1.0 - dh) / den**2
    return h, -dh / h


class TestGwSizeProbability:
    def test_small_n_identities(self):
        _, probs = tilted_offspring_cached(P111)
        v1, e1 = gw_size_probability(probs, 1)
        assert v1 == pytest.approx(float(probs[0]), rel=1e-12) and e1 <= 1e-12
        v2, _ = gw_size_probability(probs, 2)
        assert v2 == pytest.approx(float(probs[0] * probs[1]), rel=1e-12)

    def test_asymptotic_ratio(self):
        tilt, probs = tilted_offspring_cached(P111)
        ratios = []
        for n in (250, 500, 1000, 2000):
            v, err = gw_size_probability(probs, n)
            assert err <= 1e-10
            ratios.append(v / (n**-1.5 / math.sqrt(2 * math.pi * tilt.sigma_hat_sq)))
        assert abs(ratios[-1] - 1.0) <= 0.10
        assert all(abs(b - 1.0) <= abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))

    def test_input_validation(self):
        _, probs = tilted_offspring_cached(P111)
        with pytest.raises(ValueError):
            gw_size_probability(probs, 0)


class TestCrtConstants:
    def test_dual_estimators_agree(self):
        cc = crt_constants(P111, RngStream(501), n_samples=40_000)
        assert cc.EUstar.overlaps(cc.EUstar_formula)
        assert cc.ell.overlaps(cc.ell_crosscheck)
        assert cc.C.value * 2.0 * cc.EUstar.value == pytest.approx(
            math.sqrt(cc.sigma_hat_sq), abs=1e-12
        )

    def test_supercritical_params_too(self):
        cc = crt_constants(P222, RngStream(502), n_samples=20_000)
        assert cc.EUstar.overlaps(cc.EUstar_formula)
        assert cc.ell.overlaps(cc.ell_crosscheck)
        assert not cc.EUstar.flags  # zeta < 1: exact rejection regime, no ESS flag

    def test_size_check_at_small_n(self):
        cc = crt_constants(P111, RngStream(503), n_samples=30_000)
        E_zetaM, ell = excursion_ell(P111, cc.zeta)
        assert E_zetaM == pytest.approx(cc.E_zetaM, abs=1e-12)
        report = verify_crt_scaling(P111, 150, 80, RngStream(504), constants=cc)
        ms = report["mean_size_per_color"]
        assert abs(ms["value"] - ell) <= 3.0 * ms["std_error"], (ms, ell)
        assert 0.9 <= report["mean_height_correlation"] <= 1.0

    def test_critical_params_collapse_the_bias(self):
        # at zeta = 1 the importance weights degenerate to 1 and the two
        # EUstar estimators remain consistent
        from phylonetsim.analytics import critical_mu

        p = ModelParams(0.2, 0.2, critical_mu(0.2, 0.2))
        cc = crt_constants(p, RngStream(514), n_samples=15_000)
        assert abs(cc.zeta - 1.0) <= 1e-6
        assert cc.EUstar.overlaps(cc.EUstar_formula)
        assert reversal_mark_factor(p, cc.zeta, 5) == pytest.approx(1.0, abs=1e-5)

    def test_three_batched_calls(self, monkeypatch):
        calls = []

        def counting(params, x0, n, rng):
            calls.append(rng.path)
            return simulate_batch(params, x0, n, rng)

        monkeypatch.setattr(limits, "simulate_batch", counting)
        crt_constants(P111, RngStream(515), n_samples=2_000)
        assert calls == [(0,), (1,), (41,)]

    @pytest.mark.parametrize("params", [ModelParams(0.05, 0.02, 0.5), ModelParams(0.1, 0.01, 1.0)])
    def test_runs_from_every_nu_circ_state(self, params, monkeypatch):
        # the stub records the start states instead of running them: real
        # runs from these states take minutes
        starts = []

        def recording(p, x0, n, rng):
            starts.append(np.broadcast_to(x0, (n,)))
            return TrajectoryStats(np.zeros(n, dtype=np.int64), np.ones(n), np.ones(n), np.ones(n))

        monkeypatch.setattr(limits, "simulate_batch", recording)
        n_samples = 10_000
        crt_constants(params, RngStream(516), n_samples=n_samples)
        probs = nu_circ_pmf(params).probs
        assert probs.size > 40
        ks, counts = np.unique(starts[1], return_counts=True)
        assert np.array_equal(ks, np.arange(1, probs.size + 1))
        assert np.array_equal(counts, [max(400, int(n_samples * p)) for p in probs])
        assert np.all(np.diff(starts[1]) >= 0)  # each state's runs are one slice


class TestReversalFactor:
    def test_identity_at_one(self):
        for k in (1, 3, 7):
            assert reversal_mark_factor(P111, 1.0, k) == 1.0

    def test_explicit_product(self):
        z = 1.5
        expect = (1 + 0.5 * 1 / 2) * (1 + 0.5 * 1 / 3)
        assert reversal_mark_factor(P111, z, 2) == pytest.approx(expect, rel=1e-14)


class TestProbN:
    def test_basics(self):
        for c in V.check_prob_N_basics(P111):
            assert c.passed, c.name

    def test_single_value_accessor(self):
        zeta = zeta_tilt(P111).zeta
        tab = prob_N_table(P111, zeta)
        assert prob_N(P111, zeta, 1) == pytest.approx(float(tab[0]), rel=1e-12)
        assert prob_N(P111, zeta, 10_000) == 0.0
        with pytest.raises(ValueError):
            prob_N(P111, zeta, 0)

    def test_zeta_one_reduces_to_nu(self):
        tab = prob_N_table(P222, 1.0)
        nu = nu_circ_pmf(P222)
        k = min(tab.size, nu.probs.size)
        assert np.allclose(tab[:k], nu.probs[:k], atol=1e-9)


class TestFocalSpinal:
    def test_focal_checks(self):
        for c in V.check_focal_sampler(P111, seed=505, n=12_000):
            assert c.passed, (c.name, c.statistic, c.threshold)

    def test_spinal_checks(self):
        for c in V.check_spinal_sampler(P111, seed=506, n=12_000):
            assert c.passed, (c.name, c.statistic, c.threshold)

    def test_rejection_mode_weight_is_one(self):
        # zeta < 1: exact rejection, unit weights
        zeta = zeta_tilt(P222).zeta
        buf = BufferedRng(RngStream(507))
        for _ in range(50):
            net, w = sample_focal_network(P222, zeta, buf)
            assert w == 1.0
            assert net.focal_point is not None and net.focal_point[1] == 0.0

    def test_focal_alive_count_is_K(self, pasted):
        buf = BufferedRng(RngStream(508))
        for _ in range(100):
            net, _ = sample_focal_network(P111, 1.0, buf)
            traj, kept = pasted[-1]
            assert kept is net and len(net.alive_at(0.0)) == traj.pre_zero_state()

    def test_derived_trajectory_is_the_pasted_one(self, pasted):
        # a network keeps only its columns; the trajectory read from them must be
        # the pasted one, negative start time and time-0 event included
        zeta = zeta_tilt(P111).zeta
        buf = BufferedRng(RngStream(512))
        for _ in range(30):
            sample_focal_network(P111, zeta, buf)
            sample_spinal_network(P111, zeta, buf)
        for i in range(5):
            sample_local_ball(P111, zeta, 2, RngStream(513, i))
        assert any(traj.start_time < 0 for traj, _ in pasted)
        assert any(e[0] == 0.0 for traj, _ in pasted for e in traj.events)
        for traj, net in pasted:
            derived = net.trajectory
            assert derived.initial_state == traj.initial_state == 1
            assert derived.start_time == traj.start_time
            assert derived.events == traj.events
            t_prev, s = traj.start_time, traj.initial_state
            for t, _, s_after in traj.events:
                assert len(net.alive_at(0.5 * (t_prev + t))) == s
                t_prev, s = t, s_after
            assert [t for _, t in net.mutation_points] == traj.mutation_times()
            assert net.total_length == pytest.approx(traj.L, rel=1e-12, abs=1e-12)


class TestLocalBall:
    def test_structure_checks(self):
        for c in V.check_local_ball(P111, seed=509, n=600):
            assert c.passed, c.name

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            sample_local_ball(P111, 1.0, -1, RngStream(510))

    def test_truncation_depths(self):
        zeta = zeta_tilt(P111).zeta
        ball = sample_local_ball(P111, zeta, 2, RngStream(511))
        for v in ball.vertices:
            assert v.depth <= 2
            if v.depth == 2 and v.role == "offspring":
                assert all(c == -1 for c in v.children)


class TestFiniteN:
    def test_local_laws_small(self):
        checks = V.check_finite_n_local(
            P111, seed=512, n=400, n_networks=150, ball_samples=8000
        )
        for c in checks:
            assert c.passed, (c.name, c.statistic, c.threshold)

    def test_time_since_mutation_small(self):
        c = V.check_time_since_mutation(P111, seed=513, n_networks=150, n=400, n_mc=15_000)
        assert c.passed, (c.statistic, c.threshold)
