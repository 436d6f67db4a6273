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
    expected_M,
    g_eval,
    simulate_batch,
    simulate_trajectory,
)
from phylonetsim.errors import EventCapError, NumericalFailure
from phylonetsim.model import plain_paths, sample_conditioned_path
from phylonetsim.params import tables
from phylonetsim.verify import paste_back_to_back, resample_negative_kinds, sample_nu_circ, sample_x_mut
import phylonetsim.model as model
import phylonetsim.verify as V

P111 = ModelParams(1.0, 1.0, 1.0)
P222 = ModelParams(0.2, 0.2, 0.2)


def raw_M(params, n, rng):
    """M of n raw runs from state 1, drawn in plain_paths batches from one stream."""
    return np.concatenate([V.path_summaries(b).M for b in V.raw_runs(params, n, rng.generator())])


def first_kinds(params, n, rng):
    """The kind letter of the first event of n raw runs from state 1, in one batch."""
    batch = plain_paths(params, np.ones(n, dtype=np.int64), rng.generator())
    return np.frombuffer(batch.kinds.encode(), dtype="S1")[batch.offsets[:-1]]


def rejection_paths(params, m, n, rng):
    """n draws from the trajectory law given M = m by rejection: the first n
    raw runs from state 1 with M = m, read in order from plain_paths batches."""
    gen, out = rng.generator(), []
    while len(out) < n:
        batch = plain_paths(params, np.ones(V.RUN_BLOCK, dtype=np.int64), gen)
        hits = np.flatnonzero(V.path_summaries(batch).M == m)[: n - len(out)]
        out += [batch.trajectory(i) for i in hits]
    return out


class TestRho:
    def test_direct_substitution(self):
        assert P111.rho(3) == 4.0
        assert P222.rho(1) == pytest.approx(0.4)

    def test_k1_is_beta_independent(self):
        for beta in (0.1, 1.0, 7.5):
            assert ModelParams(0.3, beta, 0.6).rho(1) == pytest.approx(0.9)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            P111.rho(0)

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
        # every path of a batch, from mixed start states
        starts = np.tile([1, 2, 5], 1000)
        for j, p in enumerate([P111, P222, ModelParams(0.5, 2.0, 0.3)]):
            batch = plain_paths(p, starts, RngStream(100, j).generator())
            for i, x0 in enumerate(starts):
                tr = batch.trajectory(i)
                V.validate_trajectory(tr)
                assert tr.initial_state == x0

    def test_first_event_birth_prob(self):
        # from state 1 the first event is a birth with probability 1/(1+alpha+mu)
        n = 30_000
        hits = (first_kinds(P111, n, RngStream(101)) == BIRTH.encode()).sum()
        p = 1.0 / 3.0
        assert abs(hits / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_first_downjump_mutation_prob(self):
        kinds = first_kinds(P111, 30_000, RngStream(102))
        down = (kinds != BIRTH.encode()).sum()
        mut = (kinds == MUTATION.encode()).sum()
        p = P111.mu / P111.rho(1)
        assert abs(mut / down - p) <= 3.0 * math.sqrt(p * (1 - p) / down)

    def test_mean_M_matches_series(self):
        n = 100_000
        ms = raw_M(P111, n, RngStream(103))
        target = math.e - 2.0
        assert abs(ms.mean() - target) <= 3.0 * ms.std() / math.sqrt(n)

    def test_event_cap_is_loud(self, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_EVENT_CAP", 3)
        with pytest.raises(EventCapError):
            simulate_trajectory(P111, 5, RngStream(104))

    def test_start_state_validated(self):
        with pytest.raises(ValueError):
            simulate_trajectory(P111, 0, RngStream(105))
        with pytest.raises(ValueError):
            plain_paths(P111, [1, -1], RngStream(105).generator())

    def test_start_zero_is_an_empty_path(self):
        o = plain_paths(P111, [2, 0, 1], RngStream(107).generator()).offsets
        assert o[0] < o[1] == o[2] < o[3]

    def test_L_compensated_sum(self):
        tr = simulate_trajectory(P222, 4, RngStream(106))
        terms = []
        t, s = tr.start_time, tr.initial_state
        for u, _, s_after in tr.events:
            terms.append(s * (u - t))
            t, s = u, s_after
        assert tr.L == pytest.approx(sum(terms), rel=1e-12)


class TestRateTable:
    @pytest.mark.parametrize(
        "params", [P111, ModelParams(0.05, 0.01, 0.3), ModelParams(10.0, 0.01, 0.99)]
    )
    def test_rows_are_the_rate_split_exactly(self, params):
        cum, hold = tables(params).rates(2000)
        for k in range(1, 2001):
            tot = 1.0 + params.rho(k)
            assert cum[0, k] == 1.0 / tot, k
            assert cum[1, k] == (1.0 + params.mu) / tot, k
            assert cum[2, k] == (1.0 + params.mu + params.alpha) / tot, k
            assert hold[k] == 1.0 / (k * tot), k


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
    def test_matches_plain_paths(self, x0):
        n_paths, n_batch = 20_000, 100_000
        paths = V.path_summaries(plain_paths(P111, np.full(n_paths, x0), RngStream(603, x0).generator()))
        batch = simulate_batch(P111, x0, n_batch, RngStream(604, x0))
        c = V.chi2_two_sample(f"batch_M_law_x0={x0}", paths.M, batch.M)
        assert c.passed, c.detail
        for name in ("T", "L", "S"):
            a, b = getattr(paths, name), getattr(batch, name)
            c = V._three_se(
                f"batch_mean_{name}",
                float(a.mean()),
                float(a.std()) / math.sqrt(n_paths),
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
        paths = model.conditioned_paths(P111, np.zeros(200, dtype=np.int64), RngStream(107).generator())
        assert MUTATION not in paths.kinds
        for i in range(200):
            assert paths.trajectory(i).M == 0

    def test_conditional_T_matches_stratum(self):
        n = 20_000
        paths = model.conditioned_paths(P111, np.ones(n, dtype=np.int64), RngStream(109).generator())
        ts = paths.times[paths.offsets[1:] - 1]
        ref = np.array([tr.T for tr in rejection_paths(P111, 1, n, RngStream(110))])
        gap = abs(ts.mean() - ref.mean())
        band = 3.0 * math.hypot(ts.std() / math.sqrt(n), ref.std() / math.sqrt(n))
        assert gap <= band

    def test_m0_acceptance_rate_is_g_at_zero(self):
        n = 50_000
        hits = (raw_M(P111, n, RngStream(111)) == 0).sum()
        g0 = g_eval(P111, 0.0).midpoint
        assert abs(hits / n - g0) <= 3.0 * math.sqrt(g0 * (1 - g0) / n)

    def test_decomposition_sampler_matches_rejection(self):
        # one lockstep batch per m against the rejection oracle
        for m in (0, 1, 3, 5):
            n = 6000
            paths = model.conditioned_paths(P111, np.full(n, m), RngStream(112, m).generator())
            a = np.empty(n)
            for i in range(n):
                t1 = paths.trajectory(i)
                V.validate_trajectory(t1)
                assert t1.M == m
                a[i] = t1.L
            b = np.array([tr.L for tr in rejection_paths(P111, m, n, RngStream(113, m))])
            assert stats.ks_2samp(a, b).pvalue >= 0.005

    def test_decomposition_deep_tail(self):
        tr = sample_conditioned_path(P111, 14, RngStream(114))
        V.validate_trajectory(tr)
        assert tr.M == 14

    @pytest.mark.parametrize(
        "params, m", [(ModelParams(0.2, 0.0008, 0.01), 256), (ModelParams(0.4, 0.0006, 0.005), 200)]
    )
    def test_decomposition_deeper_than_recursion_limit(self, params, m):
        # near-critical points whose excursions nest past a thousand levels
        tr = sample_conditioned_path(params, m, RngStream(77, m, (0,)))
        V.validate_trajectory(tr)
        assert tr.M == m


class TestHTransform:
    @pytest.mark.parametrize("params", [P111, ModelParams(2.0, 0.5, 0.1), ModelParams(0.3, 0.3, 1.0)])
    def test_first_step_identity(self, params):
        # h(k, r)(1 + rho_k) = h(k+1, r) + mu h(k-1, r-1) + (alpha + (k-1) beta) h(k-1, r)
        ht = model.h_transform(params)
        h = ht.h
        for k in range(1, ht.n_trunc + 1):
            for r in range(40):
                lhs = h[k, r] * (1.0 + params.rho(k))
                rhs = h[k + 1, r] + params.mu * (h[k - 1, r - 1] if r else 0.0)
                rhs += (params.alpha + (k - 1) * params.beta) * h[k - 1, r]
                assert abs(lhs - rhs) <= 1e-12 * lhs, (k, r, lhs, rhs)

    @pytest.mark.parametrize(
        # past m_max = 256, and a P(M = m) that underflowed to 1.2e-309
        "params, m", [(P111, 300), (ModelParams(2.0, 0.5, 0.1), 241)]
    )
    def test_unsupported_outdegree_draws_nothing(self, params, m):
        gen, twin = RngStream(130).generator(), RngStream(130).generator()
        with pytest.raises(NumericalFailure, match=f"P\\(M = {m}\\)"):
            model.conditioned_paths(params, [1, 0, m, 2], gen)
        assert gen.random() == twin.random()
        with pytest.raises(ValueError):
            model.conditioned_paths(P111, [1, -1], gen)

    def test_event_cap_is_loud_in_a_batch(self, monkeypatch):
        # m = 5 needs at least 9 events
        monkeypatch.setattr(model, "DEFAULT_EVENT_CAP", 8)
        with pytest.raises(EventCapError):
            model.conditioned_paths(P111, [0, 1, 5, 0], RngStream(131).generator())


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
            assert V.state_at(pasted, t) == V.state_at(g, t)

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
            assert V.state_at(pasted, t) == left_lim

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
        V.validate_trajectory(fixed)
        assert V.state_at(fixed, 0.0) == 2


class TestNuCircAndXMut:
    def test_nu_circ_draw_range(self):
        draws = sample_nu_circ(P111, 2000, RngStream(122).generator())
        assert draws.shape == (2000,) and draws.min() >= 1

    def test_x_mut_structure(self):
        for tr in sample_x_mut(P111, 300, RngStream(123)):
            V.validate_trajectory(tr)
            k = V.pre_zero_state(tr)
            # the time-0 transition is the distinguished mutation K -> K-1
            zero_events = [e for e in tr.events if e[0] == 0.0]
            assert len(zero_events) == 1
            assert zero_events[0][1] == MUTATION
            assert zero_events[0][2] == k - 1
            assert tr.start_time < 0

    def test_m_biased_view_tail_is_typed(self):
        # at m_max = 5 the size-biased law of M has 0.4% of its mass left out
        with pytest.raises(NumericalFailure, match="beyond m_max = 5"):
            V.sample_m_biased_view(P111, RngStream(124), 1000, m_max=5)

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
        # the path follows from the start state and the kinds: +1 per birth, else -1
        s, events = d["initial_state"], []
        for t, kind in d["events"]:
            s += 1 if kind == BIRTH else -1
            events.append((t, kind, s))
        back = MarkedTrajectory(d["initial_state"], events, d["start_time"])
        assert back.events == tr.events
        assert back.M == tr.M
