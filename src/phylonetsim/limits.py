"""Scaling-limit constants and local weak limit samplers, with cross-checks.

The rescaled network converges to the Brownian CRT with constant
C = sigma_hat / (2 E[U*]), where U* is a uniform mutation time of the
M zeta^M-biased trajectory, and |G_n| ~ n E[L zeta^M]/E[zeta^M].  E[U*]
and ell are estimated by self-normalized weighted Monte Carlo and by
closed-form decompositions over nu_circ; the Monte Carlo reads only M, T, L
and the mutation-time sum of each run, so it runs on the batched simulator
``model.simulate_batch``.  The local weak limit around a
length-uniform point is a spine of size-biased-offspring vertices with a
length-biased focal decoration, sampled here from the back-to-back pasting
construction.

Closed-form decompositions over nu_circ carry the factor
prod_{j<=k} 1/c_j(zeta), c_j = 1 + (zeta-1) mu/rho_j: marks on the
time-reversed half of the pasted path sit on its down-jumps, of which
there is exactly one fewer per level j <= K than in a forward run
(cross-checked against direct simulation in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .errors import RetryBudgetError
from .model import (
    MUTATION,
    MarkedTrajectory,
    paste_back_to_back,
    resample_negative_kinds,
    simulate_batch,
    simulate_trajectory,
)
from .network import ColorNetwork, GluedNetwork, build_color_network, contour, decorate
from .params import ModelParams
from .rng import BufferedRng, RngStream


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n_samples: int
    flags: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "flags": list(self.flags),
        }

    def overlaps(self, other: "Estimate", k: float = 3.0) -> bool:
        gap = abs(self.value - other.value)
        return gap <= k * math.hypot(self.std_error, other.std_error)


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

    def to_json_dict(self) -> dict:
        return {
            "zeta": self.zeta,
            "E_zetaM": self.E_zetaM,
            "sigma_hat_sq": self.sigma_hat_sq,
            "EUstar": self.EUstar.to_json_dict(),
            "EUstar_formula": self.EUstar_formula.to_json_dict(),
            "ell": self.ell.to_json_dict(),
            "ell_crosscheck": self.ell_crosscheck.to_json_dict(),
            "C": self.C.to_json_dict(),
        }


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


def gw_size_probability(tilted_probs: np.ndarray, n: int, drop: float | None = None):
    """P(tree has n vertices) = (1/n) P(S_n = -1) by exact step convolution.

    Returns (value, error_bound); the error bound accumulates the pmf mass
    discarded by the support cap (entries below ``drop``, default 1e-16/n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if drop is None:
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


# E[sup of the standard Brownian excursion] = sqrt(pi/2) (Kennedy 1976,
# J. Appl. Probab. 13).
EXCURSION_SUP_MEAN = math.sqrt(math.pi / 2.0)


def _crt_replicate(args):
    params, n, seed, stream_id, path, eu, grid_size = args
    rng = RngStream(seed, stream_id, tuple(path))
    from .network import sample_network

    G = sample_network(params, n, rng.substream(0), method="tilted")
    ts, hs, cols = contour(G, rng.substream(1), grid_size)
    depths = np.asarray(G.tree.depths(), dtype=float)
    ht = eu * depths[cols]
    return (
        G.total_length / n,
        G.max_height() / math.sqrt(n),
        float(np.max(np.abs(hs - ht))) / math.sqrt(n),
        float(np.corrcoef(hs, ht)[0, 1]),
    )


def verify_crt_scaling(
    params: ModelParams,
    n: int,
    replicates: int,
    rng: RngStream,
    constants: CrtConstants | None = None,
    grid_size: int = 1024,
    workers: int = 1,
) -> dict:
    """Desk-scale CRT checks on n-color networks.

    Reports (a) mean |G_n|/n against ell, (b) rescaled mean maximum height
    against (2 E[U*]/sigma_hat) E[sup e] with E[sup e] = sqrt(pi/2), and
    (c) the correlation and rescaled sup deviation between the network
    height process and E[U*] times the color-tree height process.  Replicates use one stream
    each and are reduced in stream order, so results do not depend on the
    worker count.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if constants is None:
        constants = crt_constants(params, rng.substream(900_001), n_samples=50_000)
    eu = constants.EUstar.value
    sig = math.sqrt(constants.sigma_hat_sq)
    base = rng.substream(900_003)
    jobs = [
        (params, n, base.seed, base.stream_id, base.path + (i,), eu, grid_size)
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
    mean_size = Estimate(
        float(sizes.mean()), float(sizes.std()) / math.sqrt(replicates), replicates
    )
    mean_maxh = Estimate(float(maxh.mean()), float(maxh.std()) / math.sqrt(replicates), replicates)
    target_maxh = 2.0 * eu / sig * EXCURSION_SUP_MEAN
    return {
        "n": n,
        "replicates": replicates,
        "mean_size_per_color": mean_size.to_json_dict(),
        "ell": constants.ell.to_json_dict(),
        "size_check_passed": mean_size.overlaps(constants.ell),
        "mean_max_height_rescaled": mean_maxh.to_json_dict(),
        "max_height_target": target_maxh,
        "max_height_rel_err": abs(mean_maxh.value - target_maxh) / target_maxh,
        "mean_sup_deviation_rescaled": float(supdev.mean()),
        "sup_deviation_se": float(supdev.std()) / math.sqrt(replicates),
        "mean_height_correlation": float(corr.mean()),
    }


# -- local weak limit -------------------------------------------------------


def _pasted_color_network(
    params: ModelParams, k_left: int, k_right: int, buf: BufferedRng, force_mutation: bool
):
    """Color network realized from pasting runs started at k_left and k_right."""
    x_left = simulate_trajectory(params, k_left, buf)
    if k_right >= 1:
        x_right = simulate_trajectory(params, k_right, buf)
    else:
        x_right = MarkedTrajectory(0, [], 0.0)
    zero_kind = MUTATION if force_mutation else None
    pasted = paste_back_to_back(x_left, x_right, zero_kind=zero_kind)
    pasted = resample_negative_kinds(pasted, params, buf)
    return build_color_network(params, pasted, buf)


def sample_focal_network(
    params: ModelParams,
    zeta: float,
    rng,
    max_retries: int = 1_000_000,
):
    """Focal network of the local limit: L zeta^M-biased color with a uniform point.

    Realized as the pasting X'_K wr X''_K (K ~ nu_circ) with the focal point
    uniform on the K lineages alive at time 0, biased by zeta^M.  For
    zeta <= 1 the bias is applied by exact rejection and the returned weight
    is 1; for zeta > 1 a single draw is returned with weight zeta^M for
    self-normalized averaging.
    """
    buf = rng if isinstance(rng, BufferedRng) else BufferedRng(rng)
    from .model import sample_nu_circ

    for attempt in range(1, max_retries + 1):
        K = sample_nu_circ(params, buf)
        net = _pasted_color_network(params, K, K, buf, force_mutation=False)
        alive = net.alive_at(0.0)
        if len(alive) != K:
            raise RuntimeError("pasting produced inconsistent state at time 0")
        focal = alive[int(buf.uniform() * len(alive))]
        net.focal_point = (focal, 0.0)
        m = len(net.mutation_points)
        if zeta <= 1.0:
            if buf.uniform() < zeta**m:
                return net, 1.0
        else:
            return net, zeta**m
    raise RetryBudgetError("focal-network rejection exhausted retries", max_retries, 0.0)


def sample_spinal_network(
    params: ModelParams,
    zeta: float,
    rng,
    max_retries: int = 1_000_000,
):
    """Spinal network: mutation-point-rooted color, biased by zeta^M.

    Pasting X'_K wr X''_{K-1} with the time-0 down-jump forced to be a
    mutation; the focal point is that mutation.
    """
    buf = rng if isinstance(rng, BufferedRng) else BufferedRng(rng)
    from .model import sample_nu_circ

    for attempt in range(1, max_retries + 1):
        K = sample_nu_circ(params, buf)
        net = _pasted_color_network(params, K, K - 1, buf, force_mutation=True)
        focal = next(mp for mp in net.mutation_points if mp[1] == 0.0)
        net.focal_point = focal
        m = len(net.mutation_points)
        if zeta <= 1.0:
            if buf.uniform() < zeta**m:
                return net, 1.0
        else:
            return net, zeta**m
    raise RetryBudgetError("spinal-network rejection exhausted retries", max_retries, 0.0)


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
    weight: float

    @property
    def focal(self) -> ColorNetwork:
        return self.vertices[self.focal_id].decoration


def sample_local_ball(params: ModelParams, zeta: float, r: int, rng) -> LocalBall:
    """Radius-r ball of the local weak limit around the focal point.

    Spine vertices carry size-biased tilted outdegrees (always >= 1) and
    decorations conditioned on them, attached to the previous spine vertex
    at a uniformly chosen mutation index; all other materialized vertices
    carry tilted-offspring Galton-Watson subtrees truncated at tree
    distance r, decorated conditionally on their outdegrees.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    buf = rng if isinstance(rng, BufferedRng) else BufferedRng(rng)
    from .network import tilted_offspring_cached

    tilt, probs = tilted_offspring_cached(params)
    cdf = np.cumsum(probs)
    sb = np.arange(len(probs)) * probs
    sb_cdf = np.cumsum(sb)
    vertices: list = []

    def draw_outdeg() -> int:
        return int(np.searchsorted(cdf, buf.uniform() * cdf[-1], side="right"))

    def grow_offspring(depth: int) -> int:
        d = draw_outdeg()
        vid = len(vertices)
        vertices.append(BallVertex(depth, d, decorate(params, d, buf)))
        if depth < r:
            vertices[vid].children = [grow_offspring(depth + 1) for _ in range(d)]
        else:
            vertices[vid].children = [-1] * d
        return vid

    focal_net, weight = sample_focal_network(params, zeta, buf)
    m_focal = len(focal_net.mutation_points)
    focal = BallVertex(0, m_focal, focal_net, role="focal")
    vertices.append(focal)
    focal_id = 0
    if r > 0:
        focal.children = [grow_offspring(1) for _ in range(m_focal)]
    else:
        focal.children = [-1] * m_focal
    spine_ids = []
    below = focal_id
    for k in range(1, r + 1):
        mstar = 1 + int(np.searchsorted(sb_cdf, buf.uniform() * sb_cdf[-1], side="right"))
        attach = int(buf.uniform() * mstar)
        dec = decorate(params, mstar, buf)
        v = BallVertex(k, mstar, dec, role="spine", attach_index=attach)
        vid = len(vertices)
        vertices.append(v)
        children = []
        for slot in range(mstar):
            if slot == attach:
                children.append(below)
            elif k + 1 <= r:
                children.append(grow_offspring(k + 1))
            else:
                children.append(-1)
        v.children = children
        spine_ids.append(vid)
        below = vid
    return LocalBall(vertices, focal_id, spine_ids, r, weight)


def prob_N_table(params: ModelParams, zeta: float, tol: float = 1e-10) -> np.ndarray:
    """Law of the number of same-color lineages coexisting with the focal point.

    P(N=k) normalizes nu_circ(k) E_k[zeta^M]^2 / prod_{j<=k} c_j(zeta).
    """
    nu = analytics.nu_circ_pmf(params, tol=min(tol, 1e-12))
    terms = []
    for k in range(1, nu.probs.size + 1):
        ek = analytics.pgf_from_state(params, k, zeta, tol=1e-10).midpoint
        terms.append(
            float(nu.probs[k - 1]) * ek * ek / reversal_mark_factor(params, zeta, k)
        )
        if terms[-1] < tol * math.fsum(terms):
            break
    arr = np.asarray(terms)
    return arr / arr.sum()


def prob_N(params: ModelParams, zeta: float, k: int, tol: float = 1e-10) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    table = prob_N_table(params, zeta, tol)
    return float(table[k - 1]) if k <= table.size else 0.0
