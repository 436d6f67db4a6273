import math

import numpy as np
import pytest
from scipy import stats

from phylonetsim import (
    BIRTH,
    COALESCENCE,
    DEATH,
    MUTATION,
    MarkedTrajectory,
    ModelParams,
    RngStream,
    condition_on_mutations,
    expected_M,
    g_eval,
    paste_back_to_back,
    rho,
    sample_nu_circ,
    sample_x_mut,
    simulate_batch,
    simulate_trajectory,
)
from phylonetsim.errors import EventCapError, NumericalFailure, RetryBudgetError
from phylonetsim.model import resample_negative_kinds, sample_conditioned_path
from phylonetsim.rng import BufferedRng
import phylonetsim.model as model
import phylonetsim.verify as V

P111 = ModelParams(1.0, 1.0, 1.0)
P222 = ModelParams(0.2, 0.2, 0.2)


class TestRho:
    def test_direct_substitution(self):
        assert rho(P111, 3) == 4.0
        assert rho(P222, 1) == pytest.approx(0.4)

    def test_k1_is_beta_independent(self):
        for beta in (0.1, 1.0, 7.5):
            assert rho(ModelParams(0.3, beta, 0.6), 1) == pytest.approx(0.9)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            rho(P111, 0)

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, -1.0, 1.0)


class TestRngStream:
    def test_reproducible(self):
        a = simulate_trajectory(P111, 1, RngStream(7, 3))
        b = simulate_trajectory(P111, 1, RngStream(7, 3))
        assert a.events == b.events

    def test_streams_differ(self):
        a = simulate_trajectory(P111, 1, RngStream(7, 3))
        b = simulate_trajectory(P111, 1, RngStream(7, 4))
        assert a.events != b.events

    def test_nested_substreams_do_not_collide(self):
        # regression: arithmetic id derivation used to wrap mod 2**64
        g1 = RngStream(42, 123).substream(5).substream(0).generator().random(4)
        g2 = RngStream(42, 124).substream(5).substream(0).generator().random(4)
        g3 = RngStream(42, 123).substream(6).substream(0).generator().random(4)
        assert not np.allclose(g1, g2)
        assert not np.allclose(g1, g3)


class TestSimulate:
    def test_wellformed_many_paths(self):
        for j, p in enumerate([P111, P222, ModelParams(0.5, 2.0, 0.3)]):
            buf = BufferedRng(RngStream(100, j))
            for _ in range(3000):
                simulate_trajectory(p, 1, buf).validate()

    def test_first_event_birth_prob(self):
        # from state 1 the first event is a birth with probability 1/(1+alpha+mu)
        buf = BufferedRng(RngStream(101))
        n = 30_000
        hits = sum(simulate_trajectory(P111, 1, buf).events[0][1] == BIRTH for _ in range(n))
        p = 1.0 / 3.0
        assert abs(hits / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_first_downjump_mutation_prob(self):
        buf = BufferedRng(RngStream(102))
        down = mut = 0
        for _ in range(30_000):
            kind = simulate_trajectory(P111, 1, buf).events[0][1]
            if kind != BIRTH:
                down += 1
                mut += kind == MUTATION
        p = P111.mu / rho(P111, 1)
        assert abs(mut / down - p) <= 3.0 * math.sqrt(p * (1 - p) / down)

    def test_mean_M_matches_series(self):
        buf = BufferedRng(RngStream(103))
        n = 100_000
        ms = np.fromiter((simulate_trajectory(P111, 1, buf).M for _ in range(n)), float, n)
        target = math.e - 2.0
        assert abs(ms.mean() - target) <= 3.0 * ms.std() / math.sqrt(n)

    def test_event_cap_is_loud(self):
        with pytest.raises(EventCapError):
            simulate_trajectory(P111, 5, RngStream(104), event_cap=3)

    def test_start_state_validated(self):
        with pytest.raises(ValueError):
            simulate_trajectory(P111, 0, RngStream(105))

    def test_L_compensated_sum(self):
        tr = simulate_trajectory(P222, 4, RngStream(106))
        terms = []
        t, s = tr.start_time, tr.initial_state
        for u, _, s_after in tr.events:
            terms.append(s * (u - t))
            t, s = u, s_after
        assert tr.L == pytest.approx(sum(terms), rel=1e-12)


class TestSimulateBatch:
    def test_reproducible_per_stream(self):
        # 5000 runs span two blocks
        a = simulate_batch(P111, 2, 5000, RngStream(7, 3))
        b = simulate_batch(P111, 2, 5000, RngStream(7, 3))
        c = simulate_batch(P111, 2, 5000, RngStream(7, 4))
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x, y)
            assert not np.array_equal(x, z)

    def test_start_state_validated(self):
        with pytest.raises(ValueError):
            simulate_batch(P111, 0, 10, RngStream(601))

    def test_event_cap_is_loud(self, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_EVENT_CAP", 3)
        with pytest.raises(EventCapError):
            simulate_batch(P111, 5, 10, RngStream(602))
        with pytest.raises(EventCapError):
            simulate_batch(P111, np.array([1, 5, 2]), 3, RngStream(602))

    def test_int_start_equals_full_array(self):
        # 5000 runs span two blocks
        a = simulate_batch(P222, 3, 5000, RngStream(606))
        b = simulate_batch(P222, np.full(5000, 3), 5000, RngStream(606))
        for name, x, y in zip(a._fields, a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_start_states_validated(self):
        for bad in (np.array([1, 0, 2]), np.array([-1, 3, 3]), np.array([1.0, 2.0, 3.0]), np.ones((3, 1), int)):
            with pytest.raises(ValueError):
                simulate_batch(P111, bad, 3, RngStream(607))

    def test_mixed_starts_match_scalar_batches(self):
        starts, n = (1, 2, 5), 20_000
        x0 = np.random.default_rng(608).permutation(np.repeat(starts, n))
        mixed = simulate_batch(P111, x0, x0.size, RngStream(609))
        for j, k in enumerate(starts):
            alone = simulate_batch(P111, k, n, RngStream(610, j))
            mine = x0 == k
            c = V.chi2_two_sample(f"mixed_starts_M_x0={k}", alone.M, mixed.M[mine])
            assert c.passed, c.detail
            a, b = alone.T, mixed.T[mine]
            c = V._three_se(
                f"mixed_starts_T_x0={k}",
                float(a.mean()),
                float(a.std()) / math.sqrt(a.size),
                float(b.mean()),
                float(b.std()) / math.sqrt(b.size),
            )
            assert c.passed, c.detail

    @pytest.mark.parametrize("x0", [1, 3])
    def test_matches_scalar_simulator(self, x0):
        buf = BufferedRng(RngStream(603, x0))
        n_scalar, n_batch = 20_000, 100_000
        trs = [simulate_trajectory(P111, x0, buf) for _ in range(n_scalar)]
        batch = simulate_batch(P111, x0, n_batch, RngStream(604, x0))
        m_scalar = np.array([tr.M for tr in trs])
        c = V.chi2_two_sample(f"batch_M_law_x0={x0}", m_scalar, batch.M)
        assert c.passed, c.detail
        scalar = {
            "T": [tr.T for tr in trs],
            "L": [tr.L for tr in trs],
            "S": [math.fsum(tr.mutation_times()) for tr in trs],
        }
        for name, vals in scalar.items():
            a, b = np.asarray(vals), getattr(batch, name)
            c = V._three_se(
                f"batch_mean_{name}",
                float(a.mean()),
                float(a.std()) / math.sqrt(n_scalar),
                float(b.mean()),
                float(b.std()) / math.sqrt(n_batch),
            )
            assert c.passed, (name, c.detail)

    @pytest.mark.parametrize("params", [P111, P222])
    def test_mean_M_matches_series(self, params):
        n = 200_000
        ms = simulate_batch(params, 1, n, RngStream(605)).M
        target = expected_M(params).midpoint
        assert abs(ms.mean() - target) <= 3.0 * ms.std() / math.sqrt(n)


class TestConditioning:
    def test_m0_has_no_mutations(self):
        buf = BufferedRng(RngStream(107))
        for _ in range(200):
            tr = condition_on_mutations(P111, 0, buf)
            assert tr.M == 0
            assert all(e[1] != MUTATION for e in tr.events)

    def test_retry_budget_error_carries_rate(self):
        with pytest.raises(RetryBudgetError) as err:
            condition_on_mutations(P111, 25, RngStream(108), max_retries=50)
        assert err.value.attempts == 50
        assert err.value.acceptance_rate <= 1.0 / 50

    def test_conditional_T_matches_stratum(self):
        buf = BufferedRng(RngStream(109))
        n = 20_000
        ts = np.fromiter((condition_on_mutations(P111, 1, buf).T for _ in range(n)), float, n)
        buf2 = BufferedRng(RngStream(110))
        ref = []
        while len(ref) < n:
            tr = simulate_trajectory(P111, 1, buf2)
            if tr.M == 1:
                ref.append(tr.T)
        ref = np.asarray(ref)
        gap = abs(ts.mean() - ref.mean())
        band = 3.0 * math.hypot(ts.std() / math.sqrt(n), ref.std() / math.sqrt(n))
        assert gap <= band

    def test_m0_acceptance_rate_is_g_at_zero(self):
        buf = BufferedRng(RngStream(111))
        n = 50_000
        hits = sum(simulate_trajectory(P111, 1, buf).M == 0 for _ in range(n))
        g0 = g_eval(P111, 0.0).midpoint
        assert abs(hits / n - g0) <= 3.0 * math.sqrt(g0 * (1 - g0) / n)

    def test_decomposition_sampler_matches_rejection(self):
        for m in (0, 1, 3, 5):
            buf1 = BufferedRng(RngStream(112, m))
            buf2 = BufferedRng(RngStream(113, m))
            n = 6000
            a = np.empty(n)
            b = np.empty(n)
            for i in range(n):
                t1 = sample_conditioned_path(P111, m, buf1)
                t1.validate()
                assert t1.M == m
                t2 = condition_on_mutations(P111, m, buf2)
                a[i] = t1.L
                b[i] = t2.L
            assert stats.ks_2samp(a, b).pvalue >= 0.005

    def test_decomposition_deep_tail(self):
        tr = sample_conditioned_path(P111, 14, RngStream(114))
        tr.validate()
        assert tr.M == 14

    @pytest.mark.parametrize(
        "params, m", [(ModelParams(0.2, 0.0008, 0.01), 256), (ModelParams(0.4, 0.0006, 0.005), 200)]
    )
    def test_decomposition_deeper_than_recursion_limit(self, params, m):
        # near-critical points whose excursions nest past a thousand levels
        tr = sample_conditioned_path(params, m, RngStream(77, m, (0,)))
        tr.validate()
        assert tr.M == m


class TestPasting:
    def _two_runs(self, seed, k_left, k_right):
        f = simulate_trajectory(P111, k_left, RngStream(seed, 0))
        g = (
            simulate_trajectory(P111, k_right, RngStream(seed, 1))
            if k_right >= 1
            else MarkedTrajectory(0, [], 0.0)
        )
        return f, g

    def test_domain(self):
        f, g = self._two_runs(115, 3, 2)
        pasted = paste_back_to_back(f, g, zero_kind=MUTATION)
        assert pasted.start_time == -f.T
        assert pasted.end_time == g.end_time

    def test_values_on_nonnegative_times(self):
        f, g = self._two_runs(116, 2, 2)
        pasted = paste_back_to_back(f, g)
        for t in np.linspace(0.0, g.T * 0.999, 7):
            assert pasted.state_at(t) == g.state_at(t)

    def test_zero_length_g_gives_pure_reversal(self):
        f, g = self._two_runs(117, 1, 0)
        pasted = paste_back_to_back(f, g, zero_kind=MUTATION)
        for t in np.linspace(pasted.start_time, -1e-9, 7):
            # left-limit time reversal of f
            shifted = -t
            left_lim = f.initial_state
            for u, _, s_after in f.events:
                if u >= shifted:
                    break
                left_lim = s_after
            assert pasted.state_at(t) == left_lim

    def test_carried_marks_count(self):
        f, g = self._two_runs(118, 2, 1)
        pasted = paste_back_to_back(f, g, zero_kind=MUTATION)
        carried = sum(1 for t, kind, _ in pasted.events if t < 0 and kind == MUTATION)
        interior = sum(1 for e in f.events[:-1] if e[1] == MUTATION)
        assert carried == interior

    def test_join_requires_kind(self):
        f, g = self._two_runs(119, 3, 2)
        with pytest.raises(ValueError):
            paste_back_to_back(f, g)

    def test_resampled_kinds_are_valid(self):
        f, g = self._two_runs(120, 3, 2)
        pasted = paste_back_to_back(f, g, zero_kind=MUTATION)
        fixed = resample_negative_kinds(pasted, P111, RngStream(121))
        fixed.validate()
        assert fixed.state_at(0.0) == 2


class TestNuCircAndXMut:
    def test_nu_circ_draw_range(self):
        buf = BufferedRng(RngStream(122))
        draws = [sample_nu_circ(P111, buf) for _ in range(2000)]
        assert min(draws) >= 1

    def test_x_mut_structure(self):
        buf = BufferedRng(RngStream(123))
        for _ in range(300):
            tr = sample_x_mut(P111, buf)
            tr.validate()
            k = tr.pre_zero_state()
            # the time-0 transition is the distinguished mutation K -> K-1
            zero_events = [e for e in tr.events if e[0] == 0.0]
            assert len(zero_events) == 1
            assert zero_events[0][1] == MUTATION
            assert zero_events[0][2] == k - 1
            assert tr.start_time < 0

    def test_m_biased_view_envelope_is_typed(self):
        with pytest.raises(NumericalFailure, match="m_env = 1"):
            V.sample_m_biased_view(P111, RngStream(124), 1000, m_env=1)

    def test_x_mut_equivalence_suite(self):
        for c in V.check_x_mut_equivalence(P111, seed=7, n=8000):
            assert c.passed, (c.name, c.statistic, c.threshold)


class TestMeasureChangeAndIntensity:
    def test_measure_change(self):
        for c in V.check_measure_change(P111, seed=5, n=30_000):
            assert c.passed, (c.name, c.detail)

    def test_intensity_identity(self):
        for c in V.check_intensity_identity(P111, seed=6, n=20_000):
            assert c.passed, (c.name, c.detail)

    def test_rate_consistency(self):
        # fixed seed for reproducibility; the p-values are uniform under the null
        for c in V.check_rate_consistency(P111, seed=203, n=30_000):
            assert c.passed, (c.name, c.statistic)


class TestSerialization:
    def test_round_trip(self):
        tr = simulate_trajectory(P222, 2, RngStream(124))
        d = tr.to_json_dict()
        assert set(d) == {"initial_state", "start_time", "events"}
        assert all(kind in "BDCM" for _, kind in d["events"])
        back = MarkedTrajectory.from_json_dict(d)
        assert back.events == tr.events
        assert back.M == tr.M
