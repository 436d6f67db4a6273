"""Scaling-limit constants and local weak limit samplers.

The rescaled network converges to the Brownian CRT with constant
C = sigma_hat / (2 E[U*]), where U* is a uniform mutation time of the
M zeta^M-biased trajectory, and |G_n| ~ n E[L zeta^M]/E[zeta^M].  E[U*]
and ell are estimated by self-normalized weighted Monte Carlo and by
closed-form decompositions over nu_circ; the Monte Carlo reads only M, T, L
and the mutation-time sum of each run, so it runs on the batched simulator
``model.simulate_batch``.  The desk-scale checks of the scaling on sampled
networks are in ``verify``.

The local weak limit around a length-uniform point is a spine of
size-biased-offspring vertices with a length-biased focal decoration.  The
focal and spinal decorations are back-to-back pastings of two runs, biased
by zeta^M.  Since the weight zeta^M reads only the jump chain, each half of
the biased pasting is again a Markov chain, the Doob h-transform with
h_k = E_k[zeta^M] (``model.tilted_paths``), and the samplers here draw it
exactly and unweighted at every zeta, in batches.

Marks on the time-reversed half of a pasted path sit on its down-jumps, of
which there is exactly one fewer per level j <= K than in a forward run.
So the pasted law carries the factor prod_{j<=K} 1/c_j(zeta),
c_j = 1 + (zeta-1) mu/rho_j, in the law of K and in the closed-form
decompositions over nu_circ, and a reversed down-jump from state s is a
mutation, a death or a coalescence in the ratio mu zeta : alpha : (s-1) beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .model import (
    BIRTH,
    COALESCENCE,
    DEATH,
    MUTATION,
    PathBatch,
    simulate_batch,
    tilted_h_transform,
    tilted_paths,
)
from .network import ColorNetwork, decorate_batch, realize
from .params import ModelParams
from .rng import RngStream, buffered


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n_samples: int
    flags: tuple = ()

    def overlaps(self, other: "Estimate") -> bool:
        """Whether the two values lie within 3 combined standard errors."""
        return abs(self.value - other.value) <= 3.0 * math.hypot(self.std_error, other.std_error)


@dataclass(frozen=True)
class CrtConstants:
    zeta: float
    E_zetaM: float
    sigma_hat_sq: float
    EUstar: Estimate
    EUstar_formula: Estimate
    ell: Estimate
    ell_crosscheck: Estimate
    C: Estimate


def _ratio_estimate(num: np.ndarray, den: np.ndarray, flags=()) -> Estimate:
    """Self-normalized ratio mean(num)/mean(den) with a delta-method error."""
    n = num.size
    r = float(num.mean() / den.mean())
    resid = num - r * den
    se = float(np.sqrt(np.mean(resid * resid) / n) / abs(den.mean()))
    return Estimate(r, se, n, flags)


def reversal_mark_factor(params: ModelParams, zeta: float, k: int) -> float:
    """prod_{j<=k} c_j(zeta) with c_j = 1 + (zeta-1) mu / rho_j."""
    out = 1.0
    for j in range(1, k + 1):
        out *= 1.0 + (zeta - 1.0) * params.mu / params.rho(j)
    return out


def crt_constants(params: ModelParams, rng: RngStream, n_samples: int = 100_000) -> CrtConstants:
    """Monte Carlo + closed-form estimates of the CRT scaling constants.

    E[U*] is estimated twice: (1) self-normalized weighted MC over raw
    trajectories, and (2) the nu_circ decomposition with per-state Monte
    Carlo for E_k[T zeta^M] (with the reversal mark factor), over every
    state that ``nu_circ_pmf`` returns; its ``tail_bound`` bounds the
    nu_circ mass left out.  ell is the weighted raw estimate, cross-checked
    by plain MC under the measure change mu -> zeta mu.  All runs are
    batched, in three calls: substream 0 holds the raw runs, substream 1
    the per-state runs (max(400, n_samples nu_circ(k)) from each state k, in
    order of k) and substream 41 the tilted runs.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2: a standard error needs two draws")
    tilt = analytics.zeta_tilt(params)
    zeta, EzM = tilt.zeta, tilt.E_zetaM
    EM = analytics.expected_M(params).midpoint
    runs = simulate_batch(params, 1, n_samples, rng.substream(0))
    W = zeta**runs.M
    ess = float(W.sum() ** 2 / (W * W).sum())
    flags = ("low_ess",) if (zeta > 1.0 and ess < 0.05 * n_samples) else ()
    eu1 = _ratio_estimate(W * runs.S, W, flags)
    ell1 = _ratio_estimate(W * runs.L, W, flags)

    # estimator (2): zeta E[M]/E[zeta^M] * sum_k nu(k) E_k[T zeta^M]
    #                * E_{k-1}[zeta^M] / prod_{j<=k} c_j
    probs = analytics.nu_circ_pmf(params).probs
    n_ks = np.maximum(400, (n_samples * probs).astype(np.int64))
    runs = simulate_batch(
        params, np.repeat(np.arange(1, probs.size + 1), n_ks), int(n_ks.sum()), rng.substream(1)
    )
    vals = runs.T * zeta**runs.M
    total, var_total = 0.0, 0.0
    for k, vals_k in enumerate(np.split(vals, np.cumsum(n_ks)[:-1]), start=1):
        coef = (
            zeta
            * EM
            * float(probs[k - 1])
            * analytics.pgf_from_state(params, k - 1, zeta, tol=1e-10).midpoint
            / (EzM * reversal_mark_factor(params, zeta, k))
        )
        total += coef * float(vals_k.mean())
        var_total += (coef * float(vals_k.std()) / math.sqrt(vals_k.size)) ** 2
    eu2 = Estimate(total, math.sqrt(var_total), n_samples)

    # ell cross-check through the measure change E[L zeta^M] = E_{zeta mu}[L e^{(zeta-1) mu L}]
    tilted = ModelParams(params.alpha, params.beta, zeta * params.mu)
    runs = simulate_batch(tilted, 1, n_samples, rng.substream(41))
    X = runs.L * np.exp((zeta - 1.0) * params.mu * runs.L)
    ell2 = Estimate(float(X.mean()) / EzM, float(X.std()) / math.sqrt(n_samples) / EzM, n_samples)

    sig = math.sqrt(tilt.sigma_hat_sq)
    C = Estimate(
        sig / (2.0 * eu1.value),
        sig / (2.0 * eu1.value) * (eu1.std_error / eu1.value),
        n_samples,
        flags,
    )
    return CrtConstants(zeta, EzM, tilt.sigma_hat_sq, eu1, eu2, ell1, ell2, C)


def gw_size_probability(tilted_probs: np.ndarray, n: int):
    """P(tree has n vertices) = (1/n) P(S_n = -1) by exact step convolution.

    Returns (value, error_bound); the error bound accumulates the pmf mass
    discarded by the support cap (entries below 1e-16/n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    drop = 1e-16 / n
    step = np.asarray(tilted_probs, dtype=float)
    # walk values tracked on an offset grid: index i <-> value i + low
    dist = np.array([1.0])
    low = 0  # lowest represented value
    discarded = 0.0
    for i in range(n):
        dist = np.convolve(dist, step)
        low -= 1
        # values above n - (i+1) - 1 can no longer reach -1 by steps >= -1;
        # removing them is exact, not an approximation
        max_idx = (n - (i + 1) - 1) - low
        if max_idx < dist.size - 1:
            dist = dist[: max_idx + 1]
        small = dist < drop
        if small.any():
            discarded += float(dist[small].sum())
            dist = np.where(small, 0.0, dist)
    idx = -1 - low
    p = float(dist[idx]) if 0 <= idx < dist.size else 0.0
    return p / n, discarded / n


# -- local weak limit -------------------------------------------------------


def _pasted_networks(params: ModelParams, zeta: float, n: int, rng, spinal: bool) -> list:
    """n color networks pasted from zeta^M-tilted chains, unweighted.

    K is drawn from nu_circ(k) h_k h_j / prod_{i<=k} c_i, with h_k = E_k[zeta^M]
    of the tilted chain and j = K (focal) or K - 1 (spinal).  All 2n halves
    run in one ``tilted_paths`` call: the left half from K, reversed onto
    t < 0, and the right half from j on t >= 0, joined by a time-0 mutation
    when spinal.  A reversed down-jump from state s is marked mutation,
    death or coalescence in the ratio mu zeta : alpha : (s-1) beta.  One
    ``network.realize`` call assigns the lineages of all n pasted paths.
    The focal point is the time-0 mutation (spinal) or a uniform one of the
    K lineages alive at time 0 (focal).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    gen, lag = buffered(rng).generator(), int(spinal)
    m_max = max(256, analytics.tilted_offspring(params)[1].size - 1)
    hz = tilted_h_transform(params, zeta, m_max).h[:, 0]
    nu = analytics.nu_circ_pmf(params).probs
    ks = np.arange(1, nu.size + 1)
    rows = np.minimum(ks, hz.size - 1)  # rows above n_trunc + 1 repeat row n_trunc
    log_c = np.cumsum(np.log1p((zeta - 1.0) * params.mu / (params.alpha + params.mu + (ks - 1) * params.beta)))
    with np.errstate(divide="ignore"):
        log_w = np.log(nu) + np.log(hz[rows]) + np.log(hz[rows - lag]) - log_c
    cdf = np.cumsum(np.exp(log_w - log_w.max()))
    K = 1 + np.searchsorted(cdf, gen.random(n) * cdf[-1], side="right")
    paths = tilted_paths(params, zeta, np.concatenate([K, K - lag]), gen, m_max)
    o = paths.offsets
    # each left event as it reads reversed: it enters the state before it, and
    # is a birth where it was a down-jump, else a down-jump with a drawn mark
    left = paths.states[: o[n]]
    before = np.concatenate([[0], left[:-1]])
    before[o[:n]] = K
    code = np.frombuffer(paths.kinds.encode(), dtype=np.uint8)
    up = code[: o[n]] == ord(BIRTH)
    s = left[up]
    u = gen.random(s.size) * (params.mu * zeta + params.alpha + (s - 1) * params.beta)
    reversed_kind = np.full(o[n], ord(BIRTH), dtype=np.uint8)
    marks = np.frombuffer((MUTATION + DEATH + COALESCENCE).encode(), dtype=np.uint8)
    reversed_kind[up] = marks[np.searchsorted([params.mu * zeta, params.mu * zeta + params.alpha], u, side="right")]
    # network i pastes its left half's events before the absorption, reversed
    # onto t < 0, the time-0 mutation when spinal, then its right half; src
    # indexes the pool of left events, time-0 mutations and right events
    n_left = np.diff(o[: n + 1]) - 1
    length = n_left + lag + np.diff(o[n:])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    net = np.repeat(np.arange(n), length)
    p = np.arange(offsets[-1]) - offsets[net]
    right = p - n_left[net] - lag
    src = np.where(right >= 0, n * lag + o[n + net] + right, np.where(p < n_left[net], o[net + 1] - 2 - p, o[n] + net))
    kinds = np.concatenate([reversed_kind, np.full(n * lag, ord(MUTATION), dtype=np.uint8), code[o[n] :]])[src]
    states = np.concatenate([before, (K - 1)[: n * lag], paths.states[o[n] :]])[src]
    times = np.concatenate([-paths.times[: o[n]], np.zeros(n * lag), paths.times[o[n] :]])[src]
    pasted = PathBatch(kinds.tobytes().decode("ascii"), states, times, offsets)
    store = realize(pasted, gen, -paths.times[o[1 : n + 1] - 1])
    first = store.offsets[:-1]
    if spinal:  # the focal point is the time-0 mutation
        focal = np.flatnonzero(store.end_time == 0.0)
    else:  # a uniform one of the K lineages alive at time 0
        alive = np.flatnonzero((store.birth_time <= 0.0) & (store.end_time > 0.0))
        focal = alive[np.cumsum(K) - K + (gen.random(n) * K).astype(np.int64)]
    nets = []
    for i, lid in enumerate((focal - first).tolist()):
        net = store[i]
        net.focal_point = (lid, 0.0)
        nets.append(net)
    return nets


def focal_network_batch(params: ModelParams, zeta: float, n: int, rng) -> list:
    """n focal networks of the local limit: L zeta^M-biased colors with a uniform point.

    Each is the pasting of two tilted chains from K, the number of lineages
    alive at time 0 (see :func:`_pasted_networks`), with the focal point
    uniform on those K lineages at time 0.
    """
    return _pasted_networks(params, zeta, n, rng, spinal=False)


def sample_focal_network(params: ModelParams, zeta: float, rng) -> ColorNetwork:
    """One focal network, the batch of one of :func:`focal_network_batch`."""
    return focal_network_batch(params, zeta, 1, rng)[0]


def spinal_network_batch(params: ModelParams, zeta: float, n: int, rng) -> list:
    """n spinal networks: mutation-point-rooted colors, biased by zeta^M.

    Each is the pasting of a tilted chain from K, reversed, and one from
    K - 1, joined by a mutation at time 0 that is the focal point.
    """
    return _pasted_networks(params, zeta, n, rng, spinal=True)


def sample_spinal_network(params: ModelParams, zeta: float, rng) -> ColorNetwork:
    """One spinal network, the batch of one of :func:`spinal_network_batch`."""
    return spinal_network_batch(params, zeta, 1, rng)[0]


@dataclass
class BallVertex:
    """One materialized vertex of a local ball (tree-distance <= r from the focal)."""

    depth: int  # tree distance from the focal vertex
    outdegree: int
    decoration: ColorNetwork | None
    children: list = field(default_factory=list)  # ids per child slot, -1 if beyond radius
    role: str = "offspring"  # "focal" | "spine" | "offspring"
    attach_index: int | None = None  # spine: mutation index leading toward the focal side


@dataclass
class LocalBall:
    vertices: list
    focal_id: int
    spine_ids: list
    r: int

    @property
    def focal(self) -> ColorNetwork:
        return self.vertices[self.focal_id].decoration


def sample_local_ball(params: ModelParams, zeta: float, r: int, rng) -> LocalBall:
    """Radius-r ball of the local weak limit around the focal point.

    Spine vertices carry size-biased tilted outdegrees (always >= 1) and
    are attached to the previous spine vertex at a uniformly chosen
    mutation index; all other materialized vertices carry tilted-offspring
    Galton-Watson subtrees truncated at tree distance r, grown in preorder
    from an explicit stack, so no radius meets the recursion limit.  The
    focal network is drawn first, then the ball's shape, then every other
    vertex's decoration, conditioned on its outdegree, in one
    ``decorate_batch`` call.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    buf = buffered(rng)
    tilt, probs = analytics.tilted_offspring(params)
    cdf = np.cumsum(probs)
    sb = np.arange(len(probs)) * probs
    sb_cdf = np.cumsum(sb)
    focal_net = sample_focal_network(params, zeta, buf)
    m_focal = len(focal_net.mutation_points)
    vertices = [BallVertex(0, m_focal, focal_net, role="focal")]

    def grow(depth: int, count: int) -> list:
        """The ids of count subtrees rooted at depth, grown in preorder: a
        vertex's id joins its parent's children when it is popped."""
        roots = []
        stack = [(roots, depth)] * count
        while stack:
            siblings, dep = stack.pop()
            d = int(np.searchsorted(cdf, buf.uniform() * cdf[-1], side="right"))
            siblings.append(len(vertices))
            v = BallVertex(dep, d, None)
            vertices.append(v)
            if dep < r:
                stack += [(v.children, dep + 1)] * d
            else:
                v.children = [-1] * d
        return roots

    vertices[0].children = grow(1, m_focal) if r > 0 else [-1] * m_focal
    spine_ids = []
    below = 0
    for k in range(1, r + 1):
        mstar = 1 + int(np.searchsorted(sb_cdf, buf.uniform() * sb_cdf[-1], side="right"))
        attach = int(buf.uniform() * mstar)
        v = BallVertex(k, mstar, None, role="spine", attach_index=attach)
        spine_ids.append(len(vertices))
        vertices.append(v)
        v.children = grow(k + 1, mstar - 1) if k < r else [-1] * (mstar - 1)
        v.children.insert(attach, below)
        below = spine_ids[-1]
    for v, dec in zip(vertices[1:], decorate_batch(params, [v.outdegree for v in vertices[1:]], buf)):
        v.decoration = dec
    return LocalBall(vertices, 0, spine_ids, r)


def prob_N_table(params: ModelParams, zeta: float) -> np.ndarray:
    """Law of the number of same-color lineages coexisting with the focal point.

    P(N=k) normalizes nu_circ(k) E_k[zeta^M]^2 / prod_{j<=k} c_j(zeta), up to
    the first k whose term is below 1e-10 of the running sum.
    """
    nu = analytics.nu_circ_pmf(params)
    terms = []
    for k in range(1, nu.probs.size + 1):
        ek = analytics.pgf_from_state(params, k, zeta, tol=1e-10).midpoint
        terms.append(
            float(nu.probs[k - 1]) * ek * ek / reversal_mark_factor(params, zeta, k)
        )
        if terms[-1] < 1e-10 * math.fsum(terms):
            break
    arr = np.asarray(terms)
    return arr / arr.sum()


def prob_N(params: ModelParams, zeta: float, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    table = prob_N_table(params, zeta)
    return float(table[k - 1]) if k <= table.size else 0.0
