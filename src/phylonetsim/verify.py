"""Statistical verification suites.

Each check returns a :class:`Check` with the decision, the test statistic
and its threshold; suites bundle them for the CLI ``verify`` command and
for the acceptance tests.  Monte Carlo comparisons use 3-standard-error
bands; distributional comparisons use chi-square / Kolmogorov-Smirnov at
significance ``ALPHA`` = 0.01 (Bonferroni over categories for weighted
laws).
Every path is drawn in batches.  Reference samples that need only M, T,
L or the mutation-time sum of raw runs come from ``model.simulate_batch``;
checks that read the events of raw runs take them from
``model.plain_paths`` batches as event arrays (:func:`raw_runs`,
:func:`path_events`); M-biased paths come from ``model.conditioned_paths``.
Local-limit checks draw their focal and spinal networks in one batch
each.  The oracles live here: the pasting of two raw runs
(:func:`sample_x_mut`) for the M-biased view and the spinal network, the
direct network sampler, which grows color trees from raw runs until one
has n colors, for ``network.sample_network``, and the per-color lineage
loop (:func:`build_color_network`) for ``network.realize``.  So do the
readers of a
``model.MarkedTrajectory`` that only checks use (:func:`validate_trajectory`,
:func:`state_at`, :func:`pre_zero_state`, :func:`mutation_times`) and the
desk-scale CRT checks on sampled networks (:func:`verify_crt_scaling`).
No production module imports this one.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import stats

from . import analytics, limits, model, network
from .errors import NumericalFailure, RetryBudgetError
from .params import ModelParams
from .rng import BufferedRng, RngStream, buffered

ALPHA = 0.01  # significance of every distributional check


@dataclass
class Check:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "statistic": self.statistic,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def _three_se(name, v1, se1, v2, se2, detail=None) -> Check:
    gap = abs(v1 - v2)
    band = 3.0 * math.hypot(se1, se2)
    d = {"value_a": v1, "se_a": se1, "value_b": v2, "se_b": se2}
    if detail:
        d.update(detail)
    return Check(name, gap <= band, gap, band, d)


def _pool_tail(counts_list):
    """Pool trailing categories until the last column's expected count in the
    smaller sample, column total x smaller row total / grand total, is 8."""
    counts = np.array(counts_list, dtype=float)
    total = counts.sum(axis=0)
    rows = counts.sum(axis=1)
    keep = counts.shape[1]
    while keep > 2 and total[keep - 1 :].sum() * rows.min() / rows.sum() < 8.0:
        keep -= 1
    pooled = np.empty((counts.shape[0], keep))
    pooled[:, : keep - 1] = counts[:, : keep - 1]
    pooled[:, keep - 1] = counts[:, keep - 1 :].sum(axis=1)
    return pooled


def chi2_two_sample(name, a, b, cap=None) -> Check:
    """Contingency chi-square for two integer-valued samples."""
    hi = max(int(np.max(a)), int(np.max(b))) + 1 if cap is None else cap
    ca = np.bincount(np.minimum(a, hi - 1), minlength=hi)
    cb = np.bincount(np.minimum(b, hi - 1), minlength=hi)
    table = _pool_tail([ca, cb])
    table = table[:, table.sum(axis=0) > 0]
    chi2, p, dof, _ = stats.chi2_contingency(table)
    return Check(name, p >= ALPHA, float(p), ALPHA, {"chi2": float(chi2), "dof": int(dof)})


def chi2_vs_expected(name, values, expected_probs) -> Check:
    """Goodness of fit of integer samples against an exact pmf."""
    n = len(values)
    k = len(expected_probs)
    counts = np.bincount(np.minimum(values, k - 1), minlength=k).astype(float)
    exp = np.asarray(expected_probs, dtype=float) * n
    exp[-1] = n - exp[:-1].sum()  # pool the tail into the last bin
    keep = k
    while keep > 2 and exp[keep - 1] < 8.0:
        exp[keep - 2] += exp[keep - 1]
        counts[keep - 2] += counts[keep - 1]
        keep -= 1
    chi2, p = stats.chisquare(counts[:keep], exp[:keep])
    return Check(name, p >= ALPHA, p, ALPHA, {"chi2": float(chi2), "bins": int(keep)})


def _weighted_props(values, weights, n_cats):
    """Self-normalized category proportions with delta-method errors."""
    v = np.minimum(np.asarray(values), n_cats - 1)
    w = np.asarray(weights, dtype=float)
    n = w.size
    wbar = w.mean()
    props = np.empty(n_cats)
    ses = np.empty(n_cats)
    for c in range(n_cats):
        ind = (v == c).astype(float)
        p = float((w * ind).sum() / w.sum())
        resid = w * (ind - p)
        props[c] = p
        ses[c] = math.sqrt(np.mean(resid * resid) / n) / wbar
    return props, ses


def _ess(w) -> float:
    w = np.asarray(w, dtype=float)
    return float(w.sum() ** 2 / (w * w).sum())


def weighted_two_sample(name, va, wa, vb, wb, n_cats) -> Check:
    """Bonferroni max-z comparison of two weighted categorical samples, over
    the categories with an effective count of at least 15 in both."""
    pa, sa = _weighted_props(va, wa, n_cats)
    pb, sb = _weighted_props(vb, wb, n_cats)
    ess_a, ess_b = _ess(wa), _ess(wb)
    se = np.hypot(sa, sb)
    use = (se > 0) & (pa * ess_a >= 15.0) & (pb * ess_b >= 15.0)
    if not use.any():
        return Check(name, False, math.inf, 0.0, {"cats": 0})
    z = np.max(np.abs(pa[use] - pb[use]) / se[use])
    z_crit = stats.norm.ppf(1.0 - ALPHA / (2 * int(use.sum())))
    return Check(name, z <= z_crit, float(z), float(z_crit), {"cats": int(use.sum())})


# -- model suite -------------------------------------------------------------


def sample_m_biased_view(params: ModelParams, rng: RngStream, n_samples: int, m_max: int = 256):
    """Independent draws from the trajectory viewed from a uniform mutation.

    M is drawn from m P(M = m) / E[M] on 1..m_max (``analytics.offspring_tables``),
    the paths given M in one ``model.conditioned_paths`` call, then a uniform
    mutation of each path.  Returns arrays (K, U, M, duration): the state
    just before that mutation, its time, M and the lifetime.  Raises
    NumericalFailure when E[M] less the tables' sum of m P(M = m) is above 1e-9 E[M].
    """
    P = analytics.offspring_tables(params, m_max)[0][1]
    biased = np.arange(P.size) * P
    EM = analytics.expected_M(params).upper
    missing = EM - math.fsum(biased)
    if missing > 1e-9 * EM:
        raise NumericalFailure(f"the size-biased law of M has {missing / EM:.3g} of its mass beyond m_max = {m_max}")
    gen = rng.generator()
    cdf = np.cumsum(biased)
    M = np.searchsorted(cdf, gen.random(n_samples) * cdf[-1], side="right")
    paths = model.conditioned_paths(params, M, gen, m_max)
    at_mutation = np.flatnonzero(np.frombuffer(paths.kinds.encode(), dtype=np.uint8) == ord(model.MUTATION))
    # the mutations of path i are entries sum(M[:i]) ... of at_mutation
    pick = at_mutation[np.cumsum(M) - M + (gen.random(n_samples) * M).astype(np.int64)]
    return paths.states[pick] + 1, paths.times[pick], M, paths.times[paths.offsets[1:] - 1]


RUN_BLOCK = 8192  # raw runs per model.plain_paths batch in raw_runs

_KIND_INDEX = np.zeros(128, dtype=np.int64)
_KIND_INDEX[np.frombuffer(b"BMDC", dtype=np.uint8)] = np.arange(4)


class PathEvents(NamedTuple):
    """The events of a ``model.PathBatch`` whose paths start at 1 or above, one entry per event."""

    path: np.ndarray  # index of its path
    kind: np.ndarray  # 0 birth, 1 mutation, 2 death, 3 coalescence
    before: np.ndarray  # state before it
    t: np.ndarray  # its time
    t_prev: np.ndarray  # time of the event before it on its path, 0 for the first


def path_events(batch: model.PathBatch) -> PathEvents:
    kind = _KIND_INDEX[np.frombuffer(batch.kinds.encode(), dtype=np.uint8)]
    t_prev = np.concatenate([[0.0], batch.times[:-1]])
    t_prev[batch.offsets[:-1]] = 0.0
    before = batch.states + np.where(kind == 0, -1, 1)
    path = np.repeat(np.arange(batch.offsets.size - 1), np.diff(batch.offsets))
    return PathEvents(path, kind, before, batch.times, t_prev)


def path_summaries(batch: model.PathBatch) -> model.TrajectoryStats:
    """M, T, L and the sum of mutation times of each path of a batch whose paths start at 1 or above."""
    ev, n = path_events(batch), batch.offsets.size - 1
    mut = ev.kind == 1
    return model.TrajectoryStats(
        np.bincount(ev.path, mut, minlength=n).astype(np.int64),
        batch.times[batch.offsets[1:] - 1],
        np.bincount(ev.path, ev.before * (ev.t - ev.t_prev), minlength=n),
        np.bincount(ev.path, ev.t * mut, minlength=n),
    )


def raw_runs(params: ModelParams, n: int, gen: np.random.Generator):
    """n raw runs from state 1, yielded as ``model.plain_paths`` batches of
    at most RUN_BLOCK paths drawn one after another from gen."""
    for lo in range(0, n, RUN_BLOCK):
        yield model.plain_paths(params, np.ones(min(RUN_BLOCK, n - lo), dtype=np.int64), gen)


def validate_trajectory(tr: model.MarkedTrajectory) -> None:
    """Raise ValueError if any trajectory invariant is violated."""
    t, s = tr.start_time, tr.initial_state
    if s < 1:
        raise ValueError("initial state must be >= 1")
    for i, (u, kind, s_after) in enumerate(tr.events):
        if u <= t and not (i == 0 and u >= t):
            raise ValueError(f"event times not strictly increasing at index {i}")
        step = s_after - s
        if kind == model.BIRTH and step != 1:
            raise ValueError(f"birth with step {step} at index {i}")
        if kind in model.DOWN_KINDS and step != -1:
            raise ValueError(f"{kind} with step {step} at index {i}")
        if kind not in model.DOWN_KINDS and kind != model.BIRTH:
            raise ValueError(f"unknown event kind {kind!r}")
        if s_after < 0:
            raise ValueError("state went negative")
        if s_after == 0 and i != len(tr.events) - 1:
            raise ValueError("state hit 0 before the last event")
        t, s = u, s_after
    if tr.events and tr.events[-1][2] != 0:
        raise ValueError("trajectory does not end at 0")


def state_at(tr: model.MarkedTrajectory, t: float) -> int:
    """State of the right-continuous path at time t."""
    if t < tr.start_time:
        raise ValueError(f"t={t} before start of domain {tr.start_time}")
    s = tr.initial_state
    for u, _, s_after in tr.events:
        if u > t:
            break
        s = s_after
    return s


def pre_zero_state(tr: model.MarkedTrajectory) -> int:
    """Left limit of the state at time 0 (state after the last t<0 event)."""
    s = tr.initial_state
    for u, _, s_after in tr.events:
        if u >= 0.0:
            break
        s = s_after
    return s


def mutation_times(tr: model.MarkedTrajectory) -> list:
    return [e[0] for e in tr.events if e[1] == model.MUTATION]


def check_trajectory_wellformed(param_sets, seed=1) -> Check:
    """10 000 raw runs, shared out evenly over the parameter sets, each well formed."""
    bad = 0
    for j, params in enumerate(param_sets):
        for batch in raw_runs(params, 10_000 // len(param_sets), RngStream(seed, j).generator()):
            for i in range(batch.offsets.size - 1):
                try:
                    validate_trajectory(batch.trajectory(i))
                except ValueError:
                    bad += 1
    return Check("trajectory_wellformed", bad == 0, float(bad), 0.0)


def check_first_event_law(params: ModelParams, seed=2, n=40_000) -> list:
    first = np.concatenate(
        [path_events(b).kind[b.offsets[:-1]] for b in raw_runs(params, n, RngStream(seed).generator())]
    )
    first_birth = int((first == 0).sum())
    down_total = n - first_birth
    down_mut = int((first == 1).sum())
    rho1 = params.rho(1)
    p_birth = 1.0 / (1.0 + rho1)
    se_b = math.sqrt(p_birth * (1 - p_birth) / n)
    c1 = _three_se("first_event_birth_prob", first_birth / n, se_b, p_birth, 0.0)
    p_mut = params.mu / rho1
    se_m = math.sqrt(p_mut * (1 - p_mut) / down_total)
    c2 = _three_se("first_downjump_mutation_prob", down_mut / down_total, se_m, p_mut, 0.0)
    return [c1, c2]


def check_rate_consistency(params: ModelParams, seed=3, n=60_000) -> list:
    """Per-state event-kind frequencies against the transition-rate split, in states 1 to 4."""
    counts = np.zeros((5, 4))
    for batch in raw_runs(params, n, RngStream(seed).generator()):
        ev = path_events(batch)
        low = ev.before <= 4
        counts += np.bincount(4 * ev.before[low] + ev.kind[low], minlength=counts.size).reshape(counts.shape)
    checks = []
    for k in range(1, 5):
        rho = params.rho(k)
        probs = np.array(
            [1.0, params.mu, params.alpha, (k - 1) * params.beta]
        ) / (1.0 + rho)
        obs = counts[k]
        use = probs > 0
        chi2, p = stats.chisquare(obs[use], obs.sum() * probs[use] / probs[use].sum())
        checks.append(
            Check(f"rate_consistency_state_{k}", p >= ALPHA, float(p), ALPHA, {"chi2": float(chi2)})
        )
    return checks


def check_mean_M(params: ModelParams, seed=4, n=100_000) -> Check:
    """Mean of M over n batched runs against the E[M] series."""
    ms = model.simulate_batch(params, 1, n, RngStream(seed)).M
    target = analytics.expected_M(params).midpoint
    return _three_se("mean_M", float(ms.mean()), float(ms.std()) / math.sqrt(n), target, 0.0)


def check_measure_change(params: ModelParams, seed=5, n=100_000) -> list:
    """E_mu[s^M] against E_{s mu}[e^{(s-1) mu L}] at s = 0.5 and 0.9,
    overlapping 3-SE intervals.

    Both sides are n batched runs, on streams (seed, 2j) and (seed, 2j + 1).
    """
    checks = []
    for j, s in enumerate((0.5, 0.9)):
        a = s ** model.simulate_batch(params, 1, n, RngStream(seed, 2 * j)).M
        tilted = ModelParams(params.alpha, params.beta, s * params.mu)
        L = model.simulate_batch(tilted, 1, n, RngStream(seed, 2 * j + 1)).L
        b = np.exp((s - 1.0) * params.mu * L)
        checks.append(
            _three_se(
                f"measure_change_s={s}",
                float(a.mean()),
                float(a.std()) / math.sqrt(n),
                float(b.mean()),
                float(b.std()) / math.sqrt(n),
            )
        )
    return checks


def check_intensity_identity(params: ModelParams, seed=6, n=60_000) -> list:
    """E[#(M cap [0,a])] = mu E[int_0^a X_t dt]: the per-path compensator
    difference has mean zero exactly, tested at three horizons."""
    batches = list(raw_runs(params, n, RngStream(seed).generator()))
    t_typ = float(np.median(np.concatenate([b.times[b.offsets[1:] - 1] for b in batches])))
    events = [(path_events(b), b.offsets.size - 1) for b in batches]
    checks = []
    for a in (0.5 * t_typ, t_typ, 4.0 * t_typ):
        diffs = []
        for ev, size in events:
            area = np.bincount(ev.path, ev.before * (np.minimum(ev.t, a) - np.minimum(ev.t_prev, a)), minlength=size)
            diffs.append(params.mu * area - np.bincount(ev.path, (ev.kind == 1) & (ev.t <= a), minlength=size))
        diffs = np.concatenate(diffs)
        checks.append(
            _three_se(
                f"intensity_identity_a={a:.3g}",
                float(diffs.mean()),
                float(diffs.std()) / math.sqrt(n),
                0.0,
                0.0,
            )
        )
    return checks


# -- pasting oracle of the trajectory viewed from a mutation -----------------


def paste_back_to_back(f: model.MarkedTrajectory, g: model.MarkedTrajectory, zero_kind: str | None = None):
    """Back-to-back pasting: left-limit time reversal of f on t<0, then g on t>=0.

    The result lives on [-T_f, T_g).  Marks of f are carried over at negated
    times; on the reversed section a carried kind labels the originating
    event of f, whose jump direction is flipped by the reversal.  When the
    left limit at 0 differs from g(0) by one, an explicit joining event is
    inserted at time 0 with kind ``zero_kind``.
    """
    if f.start_time != 0.0 or g.start_time != 0.0:
        raise ValueError("paste_back_to_back expects f and g defined from time 0")
    if not f.events:
        raise ValueError("f must have at least one event (it must reach 0)")
    events = []
    # f's final (absorbing) event becomes the left edge of the domain;
    # interior events reverse, with state_after = f's state just before them.
    for j in range(len(f.events) - 2, -1, -1):
        u, kind, _ = f.events[j]
        before = f.events[j - 1][2] if j >= 1 else f.initial_state
        events.append((-u, kind, before))
    left_limit = f.initial_state
    if left_limit != g.initial_state:
        if abs(left_limit - g.initial_state) != 1:
            raise ValueError(
                f"cannot join states {left_limit} -> {g.initial_state} with one event"
            )
        if zero_kind is None:
            raise ValueError("zero_kind required when f(0-) != g(0)")
        events.append((0.0, zero_kind, g.initial_state))
    events.extend(g.events)
    start = -f.events[-1][0]
    init = f.events[-2][2] if len(f.events) >= 2 else f.initial_state
    return model.MarkedTrajectory(init, events, start)


def resample_negative_kinds(traj: model.MarkedTrajectory, params: ModelParams, rng) -> model.MarkedTrajectory:
    """Redraw marks on the t<0 section so kinds agree with jump directions.

    Given the state path, down-jump kinds are independent categorical draws
    (mutation mu/rho_k, death alpha/rho_k, else coalescence, k = state
    before the jump); up-jumps are births.  Events at t >= 0 are untouched.
    """
    buf = buffered(rng)
    events = []
    s = traj.initial_state
    for t, kind, s_after in traj.events:
        if t >= 0:
            events.append((t, kind, s_after))
        elif s_after > s:
            events.append((t, model.BIRTH, s_after))
        else:
            k = s
            rho = params.rho(k)
            u = buf.uniform() * rho
            if u < params.mu:
                events.append((t, model.MUTATION, s_after))
            elif u < params.mu + params.alpha:
                events.append((t, model.DEATH, s_after))
            else:
                events.append((t, model.COALESCENCE, s_after))
        s = s_after
    return model.MarkedTrajectory(traj.initial_state, events, traj.start_time)


def sample_nu_circ(params: ModelParams, n: int, gen: np.random.Generator) -> np.ndarray:
    """n states seen just before a uniform mutation: P(K=k) proportional to prod_{j<=k} 1/rho_j."""
    cdf = np.cumsum(analytics.nu_circ_pmf(params).probs)
    return 1 + np.searchsorted(cdf, gen.random(n) * cdf[-1], side="right")


def sample_x_mut(params: ModelParams, n: int, rng) -> list:
    """n trajectories viewed from a uniformly chosen mutation time, biased by M.

    Draws K ~ nu_circ, pastes an independent run from K (time-reversed, on
    t<0) to a run from K-1 (on t>=0); the joining down-jump at time 0 is the
    distinguished mutation.  Kinds on the reversed section are redrawn from
    the categorical mark law, which is the conditional law of the remaining
    marks given the distinguished one.  All n K and 2n runs come from one
    ``model.plain_paths`` batch.  The oracle of the M-biased view and, at
    zeta = 1, of the spinal network.
    """
    buf = buffered(rng)
    K = sample_nu_circ(params, n, buf.generator())
    runs = model.plain_paths(params, np.concatenate([K, K - 1]), buf.generator())
    return [
        resample_negative_kinds(
            paste_back_to_back(runs.trajectory(i), runs.trajectory(n + i), zero_kind=model.MUTATION), params, buf
        )
        for i in range(n)
    ]


def check_x_mut_equivalence(params: ModelParams, seed=7, n=20_000) -> list:
    """sample_x_mut against independent M-biased views: K, M and duration laws."""
    K_ref, U_ref, M_ref, D_ref = sample_m_biased_view(params, RngStream(seed, 0), n)
    trs = sample_x_mut(params, n, RngStream(seed, 1))
    K_s = np.array([pre_zero_state(tr) for tr in trs])
    M_s = np.array([tr.M for tr in trs])
    D_s = np.array([tr.T for tr in trs])
    U_s = np.array([-tr.start_time for tr in trs])
    checks = [
        chi2_two_sample("x_mut_K_law", K_ref, K_s),
        chi2_two_sample("x_mut_M_law", M_ref, M_s),
    ]
    ks, p = stats.ks_2samp(D_ref, D_s)
    checks.append(Check("x_mut_duration_law", p >= ALPHA, float(p), ALPHA, {"ks": float(ks)}))
    ks_u, p_u = stats.ks_2samp(U_ref, U_s)
    checks.append(Check("x_mut_mutation_time_law", p_u >= ALPHA, float(p_u), ALPHA, {"ks": float(ks_u)}))
    return checks


def check_nu_circ_sampler(params: ModelParams, seed=8, n=50_000) -> list:
    draws = sample_nu_circ(params, n, RngStream(seed).generator())
    pmf = analytics.nu_circ_pmf(params)
    k = min(pmf.probs.size, 12)
    probs = np.concatenate([pmf.probs[: k - 1], [1.0 - pmf.probs[: k - 1].sum()]])
    c1 = chi2_vs_expected("nu_circ_sampler_law", draws - 1, probs)
    c2 = _three_se(
        "nu_circ_sampler_mean",
        float(draws.mean()),
        float(draws.std()) / math.sqrt(n),
        pmf.mean(),
        0.0,
    )
    return [c1, c2]


def model_suite(params: ModelParams, seed: int, scale: float) -> list:
    n = lambda base: max(2000, int(base * scale))
    checks = [check_trajectory_wellformed([params], seed)]
    checks += check_first_event_law(params, seed + 1, n(40_000))
    checks += check_rate_consistency(params, seed + 2, n(60_000))
    checks.append(check_mean_M(params, seed + 3, n(100_000)))
    checks += check_measure_change(params, seed + 4, n(100_000))
    checks += check_intensity_identity(params, seed + 5, n(60_000))
    checks += check_x_mut_equivalence(params, seed + 6, n(20_000))
    checks += check_nu_circ_sampler(params, seed + 7, n(50_000))
    return checks


# -- analytics suite ---------------------------------------------------------


def check_enclosure_soundness(params: ModelParams) -> list:
    """Certified enclosures contain an independent higher-precision midpoint."""
    checks = []
    em_hi = analytics.expected_M(params, 1e-15)
    em = analytics.expected_M(params, 1e-10)
    checks.append(
        Check(
            "soundness_expected_M",
            em.lower <= em_hi.midpoint <= em.upper,
            em_hi.midpoint,
            0.0,
            {"lower": em.lower, "upper": em.upper},
        )
    )
    ok = True
    worst = 0.0
    for z in np.linspace(0.0, 1.0, 11):
        loose = analytics.g_eval(params, float(z), tol=1e-8)
        tight = analytics.g_eval(params, float(z), tol=1e-14)
        ok &= loose.lower <= tight.midpoint <= loose.upper and loose.lower <= loose.upper
        worst = max(worst, loose.width)
    checks.append(Check("soundness_g_eval_grid", ok, worst, 1e-8))
    lf_hi = analytics.laplace_f(params, 1, 0.7, tol=1e-15)
    lf = analytics.laplace_f(params, 1, 0.7, tol=1e-9)
    checks.append(
        Check("soundness_laplace_f", lf.lower <= lf_hi.midpoint <= lf.upper, lf_hi.midpoint, 0.0)
    )
    return checks


def check_convergent_gap(params: ModelParams) -> list:
    """Sup gap over a z-grid at depths 4 to 24: decreasing in depth and below
    the product majorant."""
    zs = np.linspace(0.0, 1.0, 11)
    sups = []
    ok_major = True
    ok_order = True
    for n in (4, 8, 12, 16, 20, 24):
        gap = 0.0
        for z in zs:
            lo, hi = analytics.convergent_pair(params, float(z), n)
            ok_order &= lo <= hi + 1e-15
            gap = max(gap, hi - lo)
        sups.append(gap)
        ok_major &= gap <= analytics.gap_majorant(params, n) + 1e-15
    decreasing = all(a >= b for a, b in zip(sups, sups[1:]))
    return [
        Check("convergent_order", ok_order, 0.0, 0.0),
        Check("convergent_gap_majorant", ok_major, max(sups), 0.0, {"sup_gaps": sups}),
        Check("convergent_gap_decreasing", decreasing, 0.0, 0.0, {"sup_gaps": sups}),
    ]


def check_tilt_consistency(params: ModelParams) -> Check:
    t = analytics.zeta_tilt(params, tol=1e-12)
    g = analytics.g_eval(params, t.zeta, tol=1e-14).midpoint
    g1 = analytics.g_derivatives(params, t.zeta, 1, tol=1e-12).midpoint
    resid = abs(t.zeta * g1 / g - 1.0)
    return Check("tilt_phi_residual", resid <= 1e-8, resid, 1e-8, {"zeta": t.zeta})


def check_pmf_pgf_duality(params: ModelParams) -> Check:
    pmf = analytics.offspring_pmf(params, 60, tol=1e-13)
    worst = 0.0
    for z in (0.0, 0.3, 0.7, 1.0):
        series = float(np.power(z, np.arange(61)) @ pmf.probs)
        g = analytics.g_eval(params, z, tol=1e-13)
        worst = max(worst, abs(series - g.midpoint))
    thr = 10 * (pmf.tail_bound + 1e-12)
    return Check("pmf_pgf_duality", worst <= thr, worst, thr)


def check_nu_stationarity(params: ModelParams) -> Check:
    """nu_circ(n) proportional to n * pi_n with pi_i ~ i^{-1} prod 1/rho_k, for n <= 30."""
    nu = analytics.nu_circ_pmf(params, tol=1e-14)
    kmax = min(30, nu.probs.size)
    pi = np.empty(kmax)
    w = 1.0
    for i in range(1, kmax + 1):
        w /= params.rho(i)
        pi[i - 1] = w / i
    lhs = nu.probs[:kmax] / nu.probs[0]
    rhs = (np.arange(1, kmax + 1) * pi) / (1 * pi[0])
    worst = float(np.max(np.abs(lhs - rhs) / rhs))
    return Check("nu_circ_stationarity", worst <= 1e-12, worst, 1e-12)


def check_extinction(params: ModelParams) -> list:
    em = analytics.expected_M(params).midpoint
    pe = analytics.extinction_probability(params, tol=1e-10)
    checks = []
    if em <= 1.0:
        checks.append(Check("extinction_subcritical_one", pe.lower == pe.upper == 1.0, pe.midpoint, 1.0))
    else:
        lo, hi = analytics.simple_pext_bounds(params)
        checks.append(
            Check(
                "extinction_within_simple_bounds",
                lo - 1e-12 <= pe.midpoint <= hi + 1e-12,
                pe.midpoint,
                0.0,
                {"lower": lo, "upper": hi},
            )
        )
        g = analytics.g_eval(params, pe.midpoint, tol=1e-12)
        resid = abs(g.midpoint - pe.midpoint)
        checks.append(Check("extinction_fixed_point", resid <= 1e-8, resid, 1e-8))
    return checks


def check_growth_rate_signs() -> Check:
    ok = True
    details = []
    for p in (
        ModelParams(1.0, 1.0, 1.0),
        ModelParams(0.2, 0.2, 0.2),
        ModelParams(0.5, 0.3, 0.4),
        ModelParams(0.1, 0.5, 0.8),
        ModelParams(0.3, 1.5, 2.0),
    ):
        em = analytics.expected_M(p).midpoint
        lam = analytics.malthusian(p)
        agree = (lam > 0) == (em > 1.0) if abs(em - 1.0) > 1e-9 else abs(lam) < 1e-6
        ok &= agree
        details.append({"params": (p.alpha, p.beta, p.mu), "E_M": em, "lambda": lam})
    return Check("growth_rate_sign", ok, 0.0, 0.0, {"grid": details})


def check_critical_identities() -> list:
    """Growth rate 0 and tilt 1 at the critical mu of alpha = beta = 0.2."""
    mu_c = analytics.critical_mu(0.2, 0.2)
    p = ModelParams(0.2, 0.2, mu_c)
    lam = analytics.malthusian(p, tol=1e-10)
    t = analytics.zeta_tilt(p, tol=1e-10)
    return [
        Check("critical_lambda_zero", abs(lam) <= 1e-6, abs(lam), 1e-6, {"mu_c": mu_c}),
        Check("critical_zeta_one", abs(t.zeta - 1.0) <= 1e-6, abs(t.zeta - 1.0), 1e-6),
    ]


def check_laplace_mc(params: ModelParams, seed=9, n=50_000) -> Check:
    """E_1[e^{-T}] over n batched runs against the certified laplace_f at lam = 1."""
    vals = np.exp(-model.simulate_batch(params, 1, n, RngStream(seed)).T)
    target = analytics.laplace_f(params, 1, 1.0, tol=1e-12).midpoint
    return _three_se(
        "laplace_f_mc", float(vals.mean()), float(vals.std()) / math.sqrt(n), target, 0.0
    )


def check_laplace_monotone(params: ModelParams, k=2) -> Check:
    lams = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [analytics.laplace_f(params, k, l, tol=1e-12).midpoint for l in lams]
    ok = all(a > b for a, b in zip(vals, vals[1:])) and abs(vals[0] - 1.0) < 1e-10
    return Check("laplace_f_monotone", ok, 0.0, 0.0, {"values": vals})


def check_malthusian_mc(params: ModelParams, seed=10, n=100_000) -> Check:
    """mu E[int X_t e^{-lam t} dt] = 1 at the computed growth rate."""
    lam = analytics.malthusian(params, tol=1e-10)
    vals = []
    for batch in raw_runs(params, n, RngStream(seed).generator()):
        ev = path_events(batch)
        if lam != 0.0:
            area = ev.before * (np.exp(-lam * ev.t_prev) - np.exp(-lam * ev.t)) / lam
        else:
            area = ev.before * (ev.t - ev.t_prev)
        vals.append(params.mu * np.bincount(ev.path, area, minlength=batch.offsets.size - 1))
    vals = np.concatenate(vals)
    return _three_se(
        "malthusian_mc_identity",
        float(vals.mean()),
        float(vals.std()) / math.sqrt(n),
        1.0,
        0.0,
        detail={"lambda": lam},
    )


def check_pgf_state_mc(params: ModelParams, seed=11, n=50_000) -> Check:
    """E_3[0.7^M] over n batched runs from state 3 against pgf_from_state."""
    vals = 0.7 ** model.simulate_batch(params, 3, n, RngStream(seed)).M
    target = analytics.pgf_from_state(params, 3, 0.7, tol=1e-12).midpoint
    return _three_se(
        "pgf_from_state_mc", float(vals.mean()), float(vals.std()) / math.sqrt(n), target, 0.0
    )


def check_derivative_oracles(params: ModelParams, seed=12, n=100_000) -> list:
    """g'(1) brackets E[M]; g''(1) against the mean of M(M-1) over n batched
    runs; g'(0) against P(M = 1)."""
    em = analytics.expected_M(params, 1e-14)
    d1 = analytics.g_derivatives(params, 1.0, 1, tol=1e-11)
    c1 = Check(
        "g_prime_brackets_EM",
        d1.lower - 1e-12 <= em.midpoint <= d1.upper + 1e-12,
        em.midpoint,
        0.0,
        {"lower": d1.lower, "upper": d1.upper},
    )
    m = model.simulate_batch(params, 1, n, RngStream(seed)).M
    vals = m * (m - 1)
    d2 = analytics.g_derivatives(params, 1.0, 2, tol=1e-9)
    c2 = _three_se(
        "g_second_vs_mc_factorial_moment",
        float(vals.mean()),
        float(vals.std()) / math.sqrt(n),
        d2.midpoint,
        0.0,
    )
    pmf = analytics.offspring_pmf(params, 40, tol=1e-13)
    d0 = analytics.g_derivatives(params, 0.0, 1, tol=1e-11)
    c3 = Check(
        "g_prime_at_zero_is_p1",
        abs(d0.midpoint - pmf.probs[1]) <= 1e-8,
        abs(d0.midpoint - pmf.probs[1]),
        1e-8,
    )
    return [c1, c2, c3]


def analytics_suite(params: ModelParams, seed: int, scale: float) -> list:
    n = lambda base: max(2000, int(base * scale))
    checks = []
    checks += check_enclosure_soundness(params)
    checks += check_convergent_gap(params)
    checks.append(check_tilt_consistency(params))
    checks.append(check_pmf_pgf_duality(params))
    checks.append(check_nu_stationarity(params))
    checks += check_extinction(params)
    checks.append(check_growth_rate_signs())
    checks += check_critical_identities()
    checks.append(check_laplace_mc(params, seed + 13, n(50_000)))
    checks.append(check_laplace_monotone(params))
    checks.append(check_malthusian_mc(params, seed + 14, n(100_000)))
    checks.append(check_pgf_state_mc(params, seed + 15, n(50_000)))
    checks += check_derivative_oracles(params, seed + 16, n(100_000))
    return checks


# -- network suite -----------------------------------------------------------


def build_color_network(traj: model.MarkedTrajectory, rng) -> network.ColorNetwork:
    """The per-color lineage loop, the law oracle of `network.realize`: a
    color's columns from its marked trajectory, started in state 1.

    A birth splits a uniform alive lineage, a death or a mutation stops
    one, and a coalescence ends a uniform lineage into another uniform one,
    each drawn from the buffer of rng as the events come.
    """
    if traj.initial_state != 1:
        raise ValueError("a color starts from a single lineage")
    parent, birth, end, kind, target = [-1], [traj.start_time], [math.nan], [""], [-1]
    alive = [0]
    mutation_points = []
    uniform = buffered(rng).uniform
    for t, k, _ in traj.events:
        if k == model.BIRTH:
            i = 0 if len(alive) == 1 else int(uniform() * len(alive))
            parent.append(alive[i])
            alive.append(len(birth))
            birth.append(t)
            end.append(math.nan)
            kind.append("")
            target.append(-1)
        elif k == model.COALESCENCE:
            i = int(uniform() * len(alive))
            j = int(uniform() * (len(alive) - 1))
            if j >= i:
                j += 1
            ender = alive[j]
            end[ender], kind[ender], target[ender] = t, model.COALESCENCE, alive[i]
            alive[j] = alive[-1]
            alive.pop()
        else:  # death or mutation stops a uniform alive lineage
            i = 0 if len(alive) == 1 else int(uniform() * len(alive))
            ender = alive[i]
            end[ender], kind[ender] = t, k
            if k == model.MUTATION:
                mutation_points.append((ender, t))
            alive[i] = alive[-1]
            alive.pop()
    if alive:
        raise ValueError("trajectory did not absorb all lineages")
    return network.ColorNetwork(parent, birth, end, "".join(kind), target, mutation_points)


def check_realizer_law(params: ModelParams, seed=29, n=20_000, m=3) -> list:
    """`network.realize` against the per-color loop :func:`build_color_network`,
    on n colors given M = m each, drawn independently: chi-square on the
    root lineage's child count, its end kind and the depth (parent steps to
    the root) of the mutation lineages."""
    ms = np.full(n, m)
    buf = BufferedRng(RngStream(seed, 1))
    paths = model.conditioned_paths(params, ms, buf.generator())
    samples = (network.decorate_batch(params, ms, RngStream(seed, 0)),
               [build_color_network(paths.trajectory(i), buf) for i in range(n)])
    laws = []
    for decs in samples:
        children, kinds, depths = [], [], []
        for d in decs:
            depth = [0] * len(d.parent)
            for i in range(1, len(d.parent)):
                depth[i] = depth[d.parent[i]] + 1
            children.append(depth.count(1))
            kinds.append("MDC".index(d.end_kind[0]))
            depths += [depth[lid] for lid, _ in d.mutation_points]
        laws.append((children, kinds, depths))
    names = ("root_children", "root_end_kind", "mutation_depth")
    return [chi2_two_sample(f"realizer_{k}_m={m}", np.array(a), np.array(b)) for k, a, b in zip(names, *laws)]


def check_decoration_consistency(params: ModelParams, seed=13, n_samples=300) -> Check:
    """Each decoration against the jump chain it was realized from.

    `decorate_batch` keeps only the lineage columns, so its chains are
    redrawn on a twin stream by `model.conditioned_paths`, whose draws it
    repeats.  Checked against each chain: the derived trajectory, the alive
    count between events, the mutation points, the total length, and that
    every parent is alive at its child's birth and every coalescence target
    at the coalescence.
    """
    ms = np.arange(n_samples) % 3
    store = network.decorate_batch(params, ms, RngStream(seed))
    paths = model.conditioned_paths(params, ms, BufferedRng(RngStream(seed)).generator())
    ok = True
    worst = 0.0
    for i, dec in enumerate(store):
        tr = paths.trajectory(i)
        ok &= dec.trajectory.events == tr.events and dec.trajectory.start_time == tr.start_time
        s = tr.initial_state
        t_prev = tr.start_time
        for t, kind, s_after in tr.events:
            mid = 0.5 * (t_prev + t)
            ok &= len(dec.alive_at(mid)) == s
            t_prev, s = t, s_after
        birth, end = dec.birth_time, dec.end_time
        ok &= all(birth[p] < birth[c] < end[p] for c, p in enumerate(dec.parent) if p >= 0)
        ok &= all(birth[g] < end[c] < end[g] for c, g in enumerate(dec.end_target) if g >= 0)
        ok &= len(dec.mutation_points) == tr.M == ms[i]
        ok &= [mp[1] for mp in dec.mutation_points] == mutation_times(tr)
        worst = max(worst, abs(dec.total_length - tr.L))
    return Check("decoration_consistency", ok and worst <= 1e-9, worst, 1e-9)


def check_decorate_stratum_mean(params: ModelParams, seed=14, n=30_000, m=1) -> Check:
    """Conditioned decoration L, drawn in one batch, against the M=m stratum of
    batched raw runs."""
    ls = network.decorate_batch(params, np.full(n, m), RngStream(seed, 0)).lengths()
    # the first n runs with M = m among batches of 4n raw runs, one substream each
    ref, j = np.empty(0), 0
    while ref.size < n:
        runs = model.simulate_batch(params, 1, 4 * n, RngStream(seed, 1).substream(j))
        ref = np.concatenate([ref, runs.L[runs.M == m]])
        j += 1
    ref = ref[:n]
    return _three_se(
        f"decorate_L_stratum_m={m}",
        float(ls.mean()),
        float(ls.std()) / math.sqrt(n),
        float(ref.mean()),
        float(ref.std()) / math.sqrt(len(ref)),
    )


def _rejection_genealogy_tree(tilted_probs: np.ndarray, n: int, rng: RngStream):
    """Oracle for the cycle-lemma sampler: grow GW trees, keep those with n vertices."""
    max_retries = 1_000_000
    gen = rng.generator()
    cdf = np.cumsum(tilted_probs)
    for _ in range(max_retries):
        degs = []
        open_slots = 1
        while open_slots > 0 and len(degs) < n:
            d = int(np.searchsorted(cdf, gen.random() * cdf[-1], side="right"))
            degs.append(d)
            open_slots += d - 1
        if open_slots == 0 and len(degs) == n:
            return network.GenealogyTree.from_preorder_outdegrees(degs)
    raise RetryBudgetError("rejection sampler exhausted retries", max_retries, 1.0 / max_retries)


def check_genealogy_methods(params: ModelParams, seed=15, n=6, n_samples=20_000) -> list:
    """Cycle-lemma tree sampler against the rejection oracle, on (height, max outdegree)."""
    _, probs = analytics.tilted_offspring(params)
    stats_a = np.empty((n_samples, 2), dtype=int)
    stats_b = np.empty((n_samples, 2), dtype=int)
    for i in range(n_samples):
        ta = network.sample_genealogy_tree(probs, n, RngStream(seed, 2 * i))
        tb = _rejection_genealogy_tree(probs, n, RngStream(seed, 2 * i + 1))
        stats_a[i] = (ta.height(), max(len(c) for c in ta.children))
        stats_b[i] = (tb.height(), max(len(c) for c in tb.children))
    joint_a = stats_a[:, 0] * (n + 1) + stats_a[:, 1]
    joint_b = stats_b[:, 0] * (n + 1) + stats_b[:, 1]
    # relabel the joint categories densely
    cats = {v: i for i, v in enumerate(sorted(set(joint_a) | set(joint_b)))}
    a = np.array([cats[v] for v in joint_a])
    b = np.array([cats[v] for v in joint_b])
    return [chi2_two_sample("genealogy_cycle_vs_rejection", a, b)]


def _direct_network(params: ModelParams, n: int, rng: RngStream):
    """Oracle for `network.sample_network`: grow color trees from raw runs, keep
    the first with exactly n colors.  The runs are drawn in ``model.plain_paths``
    batches of 16 n and read in order.  Exponentially slow off criticality."""
    buf = BufferedRng(rng)

    def runs():
        while True:
            batch = model.plain_paths(params, np.ones(16 * n, dtype=np.int64), buf.generator())
            is_mut = np.frombuffer(batch.kinds.encode(), dtype=np.uint8) == ord(model.MUTATION)
            for i, m in enumerate(np.add.reduceat(is_mut, batch.offsets[:-1]).tolist()):
                yield batch, i, m

    source, max_retries = runs(), 200_000
    for _ in range(max_retries):
        # grow the color tree depth-first from the root color; preorder reads runs in order
        kept, open_slots = [], 1
        while open_slots and len(kept) < n:
            kept.append(next(source))
            open_slots += kept[-1][2] - 1
        if open_slots or len(kept) != n:
            continue
        tree = network.GenealogyTree.from_preorder_outdegrees([m for _, _, m in kept])
        return network.GluedNetwork(tree, [build_color_network(batch.trajectory(i), buf) for batch, i, _ in kept])
    raise RetryBudgetError(f"direct sampler missed n={n} colors", max_retries, 1.0 / max_retries)


def check_tilted_vs_direct(params: ModelParams, seed=16, n=4, n_samples=4000) -> list:
    """`network.sample_network` against the direct oracle, on |G| and the tree shape."""
    sizes_t = np.empty(n_samples)
    sizes_d = np.empty(n_samples)
    shape_t = np.empty(n_samples, dtype=int)
    shape_d = np.empty(n_samples, dtype=int)
    for i in range(n_samples):
        Gt = network.sample_network(params, n, RngStream(seed, 2 * i))
        Gd = _direct_network(params, n, RngStream(seed, 2 * i + 1))
        sizes_t[i] = Gt.total_length
        sizes_d[i] = Gd.total_length
        shape_t[i] = Gt.tree.height() * (n + 1) + Gt.tree.outdegree(0)
        shape_d[i] = Gd.tree.height() * (n + 1) + Gd.tree.outdegree(0)
    ks, p = stats.ks_2samp(sizes_t, sizes_d)
    cats = {v: i for i, v in enumerate(sorted(set(shape_t) | set(shape_d)))}
    a = np.array([cats[v] for v in shape_t])
    b = np.array([cats[v] for v in shape_d])
    return [
        Check("tilted_vs_direct_size_ks", p >= ALPHA, float(p), ALPHA, {"ks": float(ks)}),
        chi2_two_sample("tilted_vs_direct_tree_shape", a, b),
    ]


def distance_oracle_error(G, points) -> float:
    """Worst gap between G.distance and the whole-graph oracle over all pairs of points.

    The oracle runs one unstopped Dijkstra from each point over the whole
    glued graph.  Each gap is taken relative to the larger of the distance
    and the two heights: both sides add up differences of time coordinates
    that large.
    """
    G._ensure_graph()
    segments, base = {}, 0  # (vertex, lineage) -> (breakpoint times, first node id)
    for v, dec in enumerate(G.decorations):
        times, first, adj = network._color_graph(dec)
        for i, ts in enumerate(times):
            segments[(v, i)] = (ts, base + first[i])
        base += len(adj)

    def locate(p):
        ts, n0 = segments[(p.vertex, p.lineage)]
        t = G.decorations[p.vertex].birth_time[p.lineage] + p.offset
        i = max(0, min(bisect_right(ts, t) - 1, len(ts) - 2))
        return (n0 + i, t - ts[i]), (n0 + i + 1, ts[i + 1] - t)

    heights = [G.time_coordinate(p) for p in points]
    worst = 0.0
    for a, ha in zip(points, heights):
        dist = {}
        heap = [(d, x) for x, d in locate(a)]
        heapq.heapify(heap)
        while heap:
            d, x = heapq.heappop(heap)
            if x in dist:
                continue
            dist[x] = d
            for y, w in G._graph[x]:
                if y not in dist:
                    heapq.heappush(heap, (d + w, y))
        for b, hb in zip(points, heights):
            ref = min(dist[x] + off for x, off in locate(b))
            if (a.vertex, a.lineage) == (b.vertex, b.lineage):
                ref = min(ref, abs(a.offset - b.offset))
            worst = max(worst, abs(G.distance(a, b) - ref) / (max(ref, ha, hb) or 1.0))
    return worst


def check_distance_height(params: ModelParams, seed=17, n=30, n_points=100) -> list:
    G = network.sample_network(params, n, RngStream(seed))
    rng = RngStream(seed, 999)
    exact = True
    close = 0.0
    pts = [G.uniform_point(rng.substream(i)) for i in range(n_points)]
    for x in pts:
        exact &= G.distance(G.root_point, x) == G.height(x)
        close = max(close, abs(G.height(x) - G.time_coordinate(x)))
    sym = 0.0
    tri = True
    for i in range(0, 30, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        dab, dba = G.distance(a, b), G.distance(b, a)
        sym = max(sym, abs(dab - dba))
        tri &= G.distance(a, c) <= dab + G.distance(b, c) + 1e-12
    oracle = distance_oracle_error(G, [G.root_point, *pts])
    return [
        Check("distance_root_equals_height", exact, 0.0, 0.0),
        Check("height_equals_time_coordinate", close <= 1e-9, close, 1e-9),
        Check("distance_symmetry", sym <= 1e-12, sym, 1e-12),
        Check("distance_triangle", tri, 0.0, 0.0),
        Check("distance_matches_graph_oracle", oracle <= 1e-12, oracle, 1e-12),
    ]


def check_glue_recount(params: ModelParams, seed=18, n=25) -> list:
    G = network.sample_network(params, n, RngStream(seed))
    exact = G.total_length == math.fsum(d.total_length for d in G.decorations)
    G._ensure_graph()
    n_births = sum(
        sum(1 for e in d.trajectory.events if e[1] == model.BIRTH) for d in G.decorations
    )
    n_coal = sum(
        sum(1 for e in d.trajectory.events if e[1] == model.COALESCENCE) for d in G.decorations
    )
    n_lineages = sum(len(d.birth_time) for d in G.decorations)
    expected_nodes = 2 * n_lineages + n_births + n_coal
    expected_edges = (n_lineages + n_births + n_coal) + n_births + n_coal + (G.n_colors - 1)
    n_edges = sum(len(a) for a in G._graph) // 2
    return [
        Check("glue_length_exact", exact, 0.0, 0.0),
        Check(
            "glue_node_recount",
            len(G._nodes) == expected_nodes,
            float(len(G._nodes)),
            float(expected_nodes),
        ),
        Check("glue_edge_recount", n_edges == expected_edges, float(n_edges), float(expected_edges)),
    ]


def check_dwass_small_n(params: ModelParams, seed=19, n_samples=100_000) -> Check:
    """Exact Dwass convolution against GW(M-hat) size frequencies for n <= 8."""
    n_max = 8
    _, probs = analytics.tilted_offspring(params)
    gen = RngStream(seed).generator()
    cdf = np.cumsum(probs)
    counts = np.zeros(n_max + 2)
    for _ in range(n_samples):
        size = 0
        open_slots = 1
        while open_slots > 0 and size <= n_max:
            d = int(np.searchsorted(cdf, gen.random() * cdf[-1], side="right"))
            size += 1
            open_slots += d - 1
        counts[min(size, n_max + 1)] += 1
    ok = True
    worst = 0.0
    details = {}
    for n in range(1, n_max + 1):
        p_exact, err = limits.gw_size_probability(probs, n)
        p_emp = counts[n] / n_samples
        se = math.sqrt(max(p_exact * (1 - p_exact), 1e-12) / n_samples)
        z = abs(p_emp - p_exact) / se
        worst = max(worst, z)
        ok &= z <= 3.0 + err / se
        details[str(n)] = {"exact": p_exact, "empirical": p_emp, "z": z}
    return Check("dwass_small_n", ok, worst, 3.0, details)


def check_uniform_point(params: ModelParams, seed=20, n=25, n_points=40_000) -> list:
    G = network.sample_network(params, n, RngStream(seed))
    rng = RngStream(seed, 123_456)
    vs = np.empty(n_points, dtype=int)
    offs = []
    target = max(  # (vertex, lineage, length) of the longest lineage
        ((v, i, e - b) for v, d in enumerate(G.decorations) for i, (b, e) in enumerate(zip(d.birth_time, d.end_time))),
        key=lambda p: p[2],
    )
    for i in range(n_points):
        x = G.uniform_point(rng.substream(i))
        vs[i] = x.vertex
        if x.vertex == target[0] and x.lineage == target[1]:
            offs.append(x.offset / target[2])
    probs = np.asarray(G.lengths) / G.total_length
    c1 = chi2_vs_expected("uniform_point_color_freq", vs, probs)
    ks, p = stats.kstest(np.asarray(offs), "uniform")
    c2 = Check("uniform_point_offset_uniform", p >= ALPHA, float(p), ALPHA, {"n": len(offs)})
    p_root = float(np.mean(vs == 0))
    se = math.sqrt(p_root * (1 - p_root) / n_points)
    c3 = _three_se("uniform_point_root_mass", p_root, se, float(probs[0]), 0.0)
    return [c1, c2, c3]


def check_contour(params: ModelParams, seed=21, n=12) -> list:
    """The contour on a grid of 2048 points: its start, increments and maximum."""
    grid = 2048
    G = network.sample_network(params, n, RngStream(seed))
    ts, hs, cols = network.contour(G, RngStream(seed, 7), grid)
    c1 = Check("contour_starts_at_root", hs[0] == 0.0 and np.all(hs >= 0.0), float(hs[0]), 0.0)
    ok = True
    for i in range(len(ts) - 1):
        if cols[i] == cols[i + 1]:
            T_c = G.decorations[cols[i]].trajectory.T
            ok &= abs(hs[i + 1] - hs[i]) <= 2.0 * T_c + 1e-9
    c2 = Check("contour_increment_bound", ok, 0.0, 0.0)
    # exhaustive recomputation of the maximum on a small network
    max_pointwise = G.max_height()
    gap = abs(float(hs.max()) - max_pointwise)
    finest = max(G.lengths.max() * n / grid, 1e-6)
    c3 = Check("contour_max_matches", gap <= 2.0 * finest, gap, 2.0 * finest)
    return [c1, c2, c3]


def network_suite(params: ModelParams, seed: int, scale: float) -> list:
    n = lambda base: max(500, int(base * scale))
    checks = [check_decoration_consistency(params, seed + 20)]
    checks += check_realizer_law(params, seed + 29, n(20_000))
    checks.append(check_decorate_stratum_mean(params, seed + 21, n(30_000)))
    checks += check_genealogy_methods(params, seed + 22, 6, n(20_000))
    checks += check_tilted_vs_direct(params, seed + 23, 4, n(4000))
    checks += check_distance_height(params, seed + 24)
    checks += check_glue_recount(params, seed + 25)
    checks.append(check_dwass_small_n(params, seed + 26, n(100_000)))
    checks += check_uniform_point(params, seed + 27)
    checks += check_contour(params, seed + 28)
    return checks


# -- crt suite ---------------------------------------------------------------


# E[sup of the standard Brownian excursion] = sqrt(pi/2) (Kennedy 1976,
# J. Appl. Probab. 13).
EXCURSION_SUP_MEAN = math.sqrt(math.pi / 2.0)


def _crt_replicate(args):
    params, n, seed, stream_id, path, eu = args
    rng = RngStream(seed, stream_id, tuple(path))
    G = network.sample_network(params, n, rng.substream(0))
    ts, hs, cols = network.contour(G, rng.substream(1), 1024)
    depths = np.asarray(G.tree.depths(), dtype=float)
    ht = eu * depths[cols]
    return (
        G.total_length / n,
        G.max_height() / math.sqrt(n),
        float(np.max(np.abs(hs - ht))) / math.sqrt(n),
        float(np.corrcoef(hs, ht)[0, 1]),
    )


def _check_counts(n: int, replicates: int) -> None:
    if n < 2:
        raise ValueError("n must be >= 2")
    if replicates < 2:
        raise ValueError("replicates must be >= 2: a standard error needs two draws")


def verify_crt_scaling(
    params: ModelParams,
    n: int,
    replicates: int,
    rng: RngStream,
    constants: limits.CrtConstants,
    workers: int = 1,
) -> dict:
    """Desk-scale CRT checks on n-color networks.

    Reports (a) mean |G_n|/n against ell, (b) rescaled mean maximum height
    against (2 E[U*]/sigma_hat) E[sup e] with E[sup e] = sqrt(pi/2), and
    (c) the correlation and rescaled sup deviation between the network
    height process and E[U*] times the color-tree height process, on a
    contour grid of 1024 points.  Replicates use one stream
    each and are reduced in stream order, so results do not depend on the
    worker count.
    """
    _check_counts(n, replicates)
    eu = constants.EUstar.value
    sig = math.sqrt(constants.sigma_hat_sq)
    base = rng.substream(900_003)
    jobs = [
        (params, n, base.seed, base.stream_id, base.path + (i,), eu)
        for i in range(replicates)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_crt_replicate, jobs, chunksize=max(1, replicates // (4 * workers))))
    else:
        results = [_crt_replicate(j) for j in jobs]
    sizes = np.array([r[0] for r in results])
    maxh = np.array([r[1] for r in results])
    supdev = np.array([r[2] for r in results])
    corr = np.array([r[3] for r in results])
    mean_size = limits.Estimate(
        float(sizes.mean()), float(sizes.std()) / math.sqrt(replicates), replicates
    )
    mean_maxh = limits.Estimate(float(maxh.mean()), float(maxh.std()) / math.sqrt(replicates), replicates)
    target_maxh = 2.0 * eu / sig * EXCURSION_SUP_MEAN
    return {
        "mean_size_per_color": asdict(mean_size),
        "mean_max_height_rescaled": asdict(mean_maxh),
        "max_height_target": target_maxh,
        "max_height_rel_err": abs(mean_maxh.value - target_maxh) / target_maxh,
        "mean_sup_deviation_rescaled": float(supdev.mean()),
        "mean_height_correlation": float(corr.mean()),
    }


def crt_suite(params: ModelParams, seed: int, n: int, replicates: int, n_samples: int, workers: int) -> list:
    """The CRT constants, the size check at n colors, the maximum height at 2n and the
    sup-deviation trend over n/4, n and 4n, with fewer replicates as n grows.
    Counts below 2 raise ValueError before anything is drawn."""
    _check_counts(n, replicates)
    checks = []
    cc = limits.crt_constants(params, RngStream(seed, 1), n_samples=n_samples)
    checks.append(
        _three_se(
            "dual_EUstar_agreement",
            cc.EUstar.value,
            cc.EUstar.std_error,
            cc.EUstar_formula.value,
            cc.EUstar_formula.std_error,
        )
    )
    checks.append(
        _three_se(
            "dual_ell_agreement",
            cc.ell.value,
            cc.ell.std_error,
            cc.ell_crosscheck.value,
            cc.ell_crosscheck.std_error,
        )
    )
    sig = math.sqrt(cc.sigma_hat_sq)
    checks.append(
        Check(
            "C_definition_consistency",
            abs(cc.C.value * 2.0 * cc.EUstar.value - sig) <= 1e-12,
            abs(cc.C.value * 2.0 * cc.EUstar.value - sig),
            1e-12,
        )
    )
    report = verify_crt_scaling(
        params, n, replicates, RngStream(seed, 3), constants=cc, workers=workers
    )
    ms = report["mean_size_per_color"]
    checks.append(
        _three_se(
            f"size_per_color_n={n}",
            ms["value"],
            ms["std_error"],
            cc.ell.value,
            cc.ell.std_error,
        )
    )
    maxh_report = verify_crt_scaling(
        params, 2 * n, max(replicates // 5, 8), RngStream(seed, 4), constants=cc, workers=workers
    )
    checks.append(
        Check(
            f"max_height_within_15pct_n={2 * n}",
            maxh_report["max_height_rel_err"] <= 0.15,
            maxh_report["max_height_rel_err"],
            0.15,
            {
                "mean": maxh_report["mean_max_height_rescaled"],
                "target": maxh_report["max_height_target"],
            },
        )
    )
    trend_ns = (max(n // 4, 16), n, 4 * n)
    trend_reps = (max(replicates // 4, 8), max(replicates // 8, 6), max(replicates // 16, 4))
    supdevs = []
    for nn, reps in zip(trend_ns, trend_reps):
        rep = verify_crt_scaling(
            params, nn, reps, RngStream(seed, 100 + nn), constants=cc, workers=workers
        )
        supdevs.append(rep["mean_sup_deviation_rescaled"])
    trend_ok = all(a > b for a, b in zip(supdevs, supdevs[1:]))
    checks.append(
        Check(
            "sup_deviation_trend",
            trend_ok,
            supdevs[-1],
            supdevs[0],
            {"n_values": list(trend_ns), "sup_devs": supdevs},
        )
    )
    _, probs = analytics.tilted_offspring(params)
    ratios = []
    for nn in (250, 500, 1000, 2000):
        v, err = limits.gw_size_probability(probs, nn)
        asym = nn**-1.5 / math.sqrt(2.0 * math.pi * cc.sigma_hat_sq)
        ratios.append(v / asym)
    monotone = all(
        abs(b - 1.0) < abs(a - 1.0) or abs(b - 1.0) < 5e-4 for a, b in zip(ratios, ratios[1:])
    )
    checks.append(
        Check(
            "gw_size_ratio_asymptotic",
            abs(ratios[-1] - 1.0) <= 0.10 and monotone,
            abs(ratios[-1] - 1.0),
            0.10,
            {"ratios": ratios},
        )
    )
    checks.append(check_dwass_small_n(params, seed + 30))
    return checks


# -- local suite -------------------------------------------------------------


def check_prob_N_basics(params: ModelParams) -> list:
    tilt = analytics.zeta_tilt(params)
    tab = limits.prob_N_table(params, tilt.zeta)
    c1 = Check("prob_N_normalized", abs(tab.sum() - 1.0) <= 1e-8, abs(float(tab.sum()) - 1.0), 1e-8)
    nu = analytics.nu_circ_pmf(params)
    tab1 = limits.prob_N_table(params, 1.0)
    k = min(tab1.size, nu.probs.size)
    worst = float(np.max(np.abs(tab1[:k] - nu.probs[:k])))
    c2 = Check("prob_N_at_zeta_one_is_nu", worst <= 1e-9, worst, 1e-9)
    return [c1, c2]


def _focal_reference(params: ModelParams, zeta: float, seed, n):
    """M of n batched raw runs, weighted by L zeta^M (the focal-network M law)."""
    runs = model.simulate_batch(params, 1, n, RngStream(seed))
    return runs.M, runs.L * zeta**runs.M


def check_focal_sampler(params: ModelParams, seed=23, n=30_000) -> list:
    """Focal-network N law against prob_N, and its M law against n batched raw
    runs weighted by L zeta^M; the n draws come from one batch."""
    zeta = analytics.zeta_tilt(params).zeta
    buf = BufferedRng(RngStream(seed, 0))
    nets = limits.focal_network_batch(params, zeta, n, buf)
    Ns = np.array([len(net.alive_at(0.0)) for net in nets])
    Ms = np.array([len(net.mutation_points) for net in nets])
    tab = limits.prob_N_table(params, zeta)
    kcap = 8
    probs = np.concatenate([tab[: kcap - 1], [1.0 - tab[: kcap - 1].sum()]])
    c1 = chi2_vs_expected("focal_N_law", Ns - 1, probs)
    m_ref, w_ref = _focal_reference(params, zeta, seed * 31 + 1, n)
    mcap = int(max(Ms.max(), m_ref.max())) + 1
    c2 = weighted_two_sample("focal_M_law", Ms, np.ones(n), m_ref, w_ref, n_cats=min(mcap, 12))
    neg = all(net.birth_time[0] < 0 for net in limits.focal_network_batch(params, zeta, 50, buf))
    c3 = Check("focal_root_time_negative", neg, 0.0, 0.0)
    return [c1, c2, c3]


def check_spinal_sampler(params: ModelParams, seed=24, n=30_000) -> list:
    """Spinal-network M law against n batched raw runs weighted by M zeta^M,
    and its pre-0 state law at zeta = 1 against sample_x_mut."""
    zeta = analytics.zeta_tilt(params).zeta
    nets = limits.spinal_network_batch(params, zeta, n, BufferedRng(RngStream(seed, 0)))
    Ms = np.array([len(net.mutation_points) for net in nets])
    ok_mut = all(
        net.focal_point is not None
        and net.focal_point[1] == 0.0
        and net.end_kind[net.focal_point[0]] == model.MUTATION
        for net in nets
    )
    c0 = Check("spinal_focal_is_time0_mutation", ok_mut, 0.0, 0.0)
    # reference: batched raw runs weighted by M zeta^M
    m_ref = model.simulate_batch(params, 1, n, RngStream(seed, 1)).M
    w_ref = m_ref * zeta**m_ref
    mcap = int(max(Ms.max(), m_ref.max())) + 1
    c1 = weighted_two_sample("spinal_M_law", Ms, np.ones(n), m_ref, w_ref, n_cats=min(mcap, 12))
    # at zeta = 1 the pre-0 state law is exactly the one of sample_x_mut
    nets = limits.spinal_network_batch(params, 1.0, 8000, BufferedRng(RngStream(seed, 2)))
    k_spinal = np.array([pre_zero_state(net.trajectory) for net in nets])
    k_xmut = np.array([pre_zero_state(tr) for tr in sample_x_mut(params, 8000, RngStream(seed, 3))])
    c2 = chi2_two_sample("spinal_K_matches_x_mut_at_zeta1", k_spinal, k_xmut)
    return [c0, c1, c2]


def check_local_ball(params: ModelParams, seed=25, n=2000) -> list:
    tilt = analytics.zeta_tilt(params)
    buf = BufferedRng(RngStream(seed))
    ok_spine = True
    ok_meta = True
    for i in range(n // 10):
        ball = limits.sample_local_ball(params, tilt.zeta, 2, buf)
        for sid in ball.spine_ids:
            v = ball.vertices[sid]
            ok_spine &= v.outdegree >= 1 and 0 <= v.attach_index < v.outdegree
        for v in ball.vertices:
            ok_meta &= len(v.decoration.mutation_points) == v.outdegree
            ok_meta &= len(v.children) == v.outdegree
    b0 = limits.sample_local_ball(params, tilt.zeta, 0, buf)
    ok_r0 = len(b0.vertices) == 1 and b0.vertices[0].role == "focal"
    return [
        Check("ball_spine_size_biased", ok_spine, 0.0, 0.0),
        Check("ball_decoration_outdegrees", ok_meta, 0.0, 0.0),
        Check("ball_r0_is_focal_only", ok_r0, 0.0, 0.0),
    ]


def check_finite_n_local(
    params: ModelParams, seed=26, n=2000, n_networks=300, ball_samples=20_000
) -> list:
    """Finite-n law around a uniform point against prob_N and the focal sampler."""
    tilt = analytics.zeta_tilt(params)
    zeta = tilt.zeta
    Ns = np.empty(n_networks, dtype=int)
    out_deg = np.empty(n_networks, dtype=int)
    t_since = np.empty(n_networks)
    for i in range(n_networks):
        rng = RngStream(seed, i)
        G = network.sample_network(params, n, rng.substream(0))
        x = G.uniform_point(rng.substream(1))
        dec = G.decorations[x.vertex]
        t_abs = dec.birth_time[x.lineage] + x.offset
        Ns[i] = state_at(dec.trajectory, t_abs)
        out_deg[i] = G.tree.outdegree(x.vertex)
        t_since[i] = t_abs - dec.trajectory.start_time
    tab = limits.prob_N_table(params, zeta)
    kcap = 6
    probs = np.concatenate([tab[: kcap - 1], [1.0 - tab[: kcap - 1].sum()]])
    c1 = chi2_vs_expected("finite_n_N_law", Ns - 1, probs)
    # focal outdegree law from the limit sampler, in one batch
    nets = limits.focal_network_batch(params, zeta, ball_samples, BufferedRng(RngStream(seed, 10_000_000)))
    Md = np.array([len(net.mutation_points) for net in nets])
    mcap = 8
    c2 = chi2_two_sample("finite_n_focal_outdegree", out_deg, Md, cap=mcap)
    return [c1, c2]


def check_time_since_mutation(params: ModelParams, seed=27, n_networks=300, n=2000, n_mc=40_000) -> Check:
    """Joint (N, dyadic time bin) law around a uniform point against the
    nu_circ decomposition (conditional on N=k the elapsed time is the
    zeta^M-biased absorption time from state k, drawn as n_mc batched runs).

    Each cell's z is a score test: the binomial error of n_networks points
    at the target proportion, combined with the error of the weighted
    reference.  An error taken from the observed proportion collapses in a
    cell with 0 or 1 hits and inflates its z."""
    tilt = analytics.zeta_tilt(params)
    zeta = tilt.zeta
    ks = []
    ts = []
    for i in range(n_networks):
        rng = RngStream(seed, i)
        G = network.sample_network(params, n, rng.substream(0))
        x = G.uniform_point(rng.substream(1))
        dec = G.decorations[x.vertex]
        t_abs = dec.birth_time[x.lineage] + x.offset
        ks.append(state_at(dec.trajectory, t_abs))
        ts.append(t_abs - dec.trajectory.start_time)
    ks = np.asarray(ks)
    ts = np.asarray(ts)
    edges = [0.0, 0.25, 0.5, 1.0, 2.0, np.inf]
    worst = 0.0
    n_cells = 0
    for k in (1, 2):
        sel = ks == k
        if sel.sum() < 30:
            continue
        p_k = limits.prob_N(params, zeta, k)
        ref = model.simulate_batch(params, k, n_mc, RngStream(seed, 5_000_000 + k))
        ref_t, ref_w = ref.T, zeta**ref.M
        for lo, hi in zip(edges[:-1], edges[1:]):
            emp = float(((ts >= lo) & (ts < hi) & sel).mean())
            ind = ((ref_t >= lo) & (ref_t < hi)).astype(float)
            cond = float((ref_w * ind).sum() / ref_w.sum())
            resid = ref_w * (ind - cond)
            se_cond = math.sqrt(np.mean(resid**2) / n_mc) / ref_w.mean()
            target = p_k * cond
            se = math.hypot(math.sqrt(target * (1.0 - target) / len(ts)), p_k * se_cond)
            if se > 0:
                worst = max(worst, abs(emp - target) / se)
                n_cells += 1
    z_crit = stats.norm.ppf(1.0 - ALPHA / (2 * n_cells)) if n_cells else 3.0
    return Check("time_since_mutation_law", worst <= z_crit, worst, float(z_crit), {"cells": n_cells})


def local_suite(params: ModelParams, seed: int, scale: float, n: int, replicates: int) -> list:
    """The local-limit samplers, and `replicates` networks of n colors (at least 50)."""
    n_networks = max(replicates, 50)
    checks = []
    checks += check_prob_N_basics(params)
    checks += check_focal_sampler(params, seed + 40, max(2000, int(30_000 * scale)))
    checks += check_spinal_sampler(params, seed + 41, max(2000, int(30_000 * scale)))
    checks += check_local_ball(params, seed + 42)
    checks += check_finite_n_local(params, seed + 43, n, n_networks)
    checks.append(check_time_since_mutation(params, seed + 44, n_networks, n))
    return checks
