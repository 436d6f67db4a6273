"""Certified evaluation of the model's closed-form quantities.

The offspring count M of a color (its number of mutations) has

    E[M] = mu * sum_{j>=1} prod_{k=1..j} 1/rho_k,

and its probability generating function is the continued fraction

    g(z) = (alpha + mu z) / (1 + rho_1 - (alpha + beta + mu z) / (1 + rho_2 - ...)),

evaluated here by backward recursion.  Truncating the recursion at depth n
with terminal value 1 gives an upper bound on [0, 1]; the terminal value

    gbar_n(z) = (1 + rho_n - sqrt((1 - rho_n)^2 - 4 mu (z - 1))) / 2

gives a lower bound, and the gap is at most prod_{k<=n} 1/rho_k.  All
"certified" results return (lower, upper) enclosures from these pairs.

One kernel, ``_fraction``, runs the backward recursion for g, the per-state
pgfs E_k[z^M], the z-derivatives of g, the passage-time transforms f_j(lam)
and the Malthusian series; one driver, ``_enclose``, doubles the depth for
the enclosures.  :func:`convergent_pair` gives the raw depth-n pair of g(z).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import DivergentTailError, NumericalFailure, PoleError
from .params import ModelParams, tables

DEPTH_START = 16
DEPTH_CAP = 1 << 16
EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class CertifiedValue:
    lower: float
    upper: float
    depth: int
    certified: bool = True

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"empty enclosure [{self.lower}, {self.upper}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def clip01(self) -> "CertifiedValue":
        return replace(self, lower=min(max(self.lower, 0.0), 1.0), upper=min(max(self.upper, 0.0), 1.0))

    def to_json_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "depth": self.depth}


@dataclass(frozen=True)
class OffspringPmf:
    probs: np.ndarray
    tail_bound: float
    m_max: int
    state_trunc: int

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)


@dataclass(frozen=True)
class TiltSolution:
    zeta: float
    E_zetaM: float
    sigma_hat_sq: float
    radius_hint: float


@dataclass(frozen=True)
class NuCircPmf:
    probs: np.ndarray  # probs[i] = nu_circ(i + 1)
    tail_bound: float

    def mean(self) -> float:
        return float((1.0 + np.arange(self.probs.size)) @ self.probs)


def expected_M(params: ModelParams, tol: float = 1e-12) -> CertifiedValue:
    """Series evaluation of E[M] with a geometric tail majorant.

    The enclosure is widened outward by a forward rounding-error bound of
    the depth-j evaluation.  Each level adds at most a few roundings to
    rho_k, the running product and the sum, so the computed partial sum and
    tail are within 4 (j + 1) eps of their exact values, relatively.  The
    stopping test counts this widening, so the width is at most tol unless
    tol lies below the rounding floor; then the series stops once the tail
    is smaller than the rounding bound.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = 0.0
    w = 1.0
    j = 0
    while True:
        j += 1
        w /= params.rho(j)
        s += params.mu * w
        if not s < math.inf:
            break
        r = 1.0 / params.rho(j + 1)
        if r < 1.0:
            tail = params.mu * w * r / (1.0 - r)
            err = 4.0 * (j + 1) * EPS * (s + tail)
            if tail <= max(tol - 2.0 * err, err):
                if s + tail + err < math.inf:
                    return CertifiedValue(s - err, s + tail + err, j)
                break
        if j > 10_000_000:
            raise NumericalFailure("expected_M series failed to converge")
    raise NumericalFailure(
        f"E[M] is not representable at (alpha, beta, mu) = ({params.alpha}, {params.beta}, "
        f"{params.mu}): the weights prod 1/rho_k grow while rho_k < 1 and the series "
        f"passes the float range at level {j}"
    )


def _fraction(
    params: ModelParams, x: float, n: int, low: int, terminals, passage=False, derivatives=False
):
    """The continued-fraction kernel: v_k = a_k / (d_k - v_{k+1}) for k = n, ..., low.

    The pgf fraction at z = x has a_k = alpha + mu z + (k - 1) beta and
    d_k = 1 + rho_k, and a denominator <= 0 raises PoleError; the passage
    fraction at lam = x has a_k = rho_k, d_k = 1 + rho_k + lam / k and raises
    DivergentTailError.  Per terminal v_{n+1} it returns [v_n, ..., v_low];
    with derivatives, per terminal triple (v, v', v'') the triple at level
    low, carrying the z-derivatives with a_k' = mu and d_k' = 0.
    """
    j = np.arange(n - 1, low - 2, -1)  # k - 1
    kb = j * params.beta
    rho = params.alpha + params.mu + kb
    if passage:
        a, d = rho.tolist(), (1.0 + rho + x / (j + 1)).tolist()
    else:
        a, d = (params.alpha + params.mu * x + kb).tolist(), (1.0 + rho).tolist()
    mu = params.mu
    out = []
    for v in terminals:
        if derivatives:
            v, v1, v2 = v
        vs = []
        for ak, dk in zip(a, d):
            den = dk - v
            if den <= 0.0:
                if passage:
                    raise DivergentTailError(f"divergent tail at level {n - len(vs)} for lam={x}")
                raise PoleError(x, n)
            v = ak / den
            if derivatives:
                w1 = (mu + v * v1) / den
                v2 = (2.0 * w1 * v1 + v * v2) / den
                v1 = w1
            vs.append(v)
        out.append((v, v1, v2) if derivatives else vs)
    return out


def _pgf_convergents(params: ModelParams, z: float, n: int, low: int, both: bool):
    """Kernel values of the pgf fraction from the terminal gbar_n and, if both, 1.

    gbar_n(z) is real for z <= 1; where it is not, 1 stands in for it.
    """
    rho_n = params.rho(n)
    disc = (1.0 - rho_n) ** 2 - 4.0 * params.mu * (z - 1.0)
    gb = 1.0 if disc < 0.0 else 0.5 * (1.0 + rho_n - math.sqrt(disc))
    return _fraction(params, z, n, low, (gb, 1.0) if both else (gb,))


def _enclose(ends, n: int, certified: bool, close, what: str) -> CertifiedValue:
    """The depth-doubling driver of g_eval, pgf_from_state and laplace_f.

    ends(n) lists the two ends at depth n when certified, else one value,
    paired with the previous depth's.  n doubles until close(current, other)
    holds; the pair is the enclosure, clipped to [0, 1] when certified.
    """
    prev = None
    while n <= DEPTH_CAP:
        cur = ends(n)
        a, b = cur if certified else (cur[0], prev)
        if b is not None and close(a, b):
            cv = CertifiedValue(min(a, b), max(a, b), n, certified)
            return cv.clip01() if certified else cv
        prev = a
        n *= 2
    raise NumericalFailure(f"{what} at depth cap {DEPTH_CAP}")


def convergent_pair(params: ModelParams, z: float, n: int) -> tuple:
    """The raw depth-n convergents of g(z) from the terminals gbar_n(z) and 1.

    In that order, not sorted and not clipped: for z in [0, 1] they bracket
    g(z) up to rounding, with a gap of at most gap_majorant(params, n).
    """
    lo, hi = _pgf_convergents(params, z, n, 1, True)
    return lo[-1], hi[-1]


def gap_majorant(params: ModelParams, n: int) -> float:
    """Upper bound prod_{k<=n} 1/rho_k on the convergent gap over [0, 1]."""
    w = 1.0
    for k in range(1, n + 1):
        w /= params.rho(k)
    return w


def g_eval(params: ModelParams, z: float, start_level: int = 1, tol: float = 1e-12) -> CertifiedValue:
    """Enclosure of the pgf of M_k (mutations on a k-excursion), k = start_level.

    Certified on z in [0, 1]; for z > 1 the two-depth agreement is reported
    as a non-certified enclosure (the reversed convergent inequalities only
    hold there for n large enough, with no explicit threshold).
    """
    if z < 0.0:
        raise ValueError("g_eval requires z >= 0")
    if start_level < 1:
        raise ValueError("start_level must be >= 1")
    certified = z <= 1.0
    ends = lambda n: [vs[-1] for vs in _pgf_convergents(params, z, n, start_level, certified)]
    what = "convergent gap" if certified else "depth-doubling agreement"
    return _enclose(ends, DEPTH_START, certified, lambda a, b: abs(a - b) <= tol, f"{what} above {tol}")


def g_derivatives(params: ModelParams, z: float, order: int = 1, tol: float = 1e-10) -> CertifiedValue:
    """Derivative of the pgf by joint propagation through the recursion.

    Two terminal choices (the flat value 1 and the self-consistent gbar_n
    with its own z-derivatives) are propagated; their spread at stabilizing
    depth is reported as a non-certified enclosure.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if z < 0.0:
        raise ValueError("g_derivatives requires z >= 0")
    n = DEPTH_START
    prev_vals = None
    while n <= DEPTH_CAP:
        rho_n = params.rho(n)
        disc = (1.0 - rho_n) ** 2 - 4.0 * params.mu * (z - 1.0)
        candidates = [(1.0, 0.0, 0.0)]
        if disc > 0.0:
            gb = 0.5 * (1.0 + rho_n - math.sqrt(disc))
            gb1 = params.mu / math.sqrt(disc)
            gb2 = 2.0 * params.mu**2 / disc**1.5
            candidates.append((gb, gb1, gb2))
        vals = [t[order] for t in _fraction(params, z, n, 1, candidates, derivatives=True)]
        if prev_vals is not None:
            allv = vals + prev_vals
            if max(allv) - min(allv) <= tol:
                return CertifiedValue(min(allv), max(allv), n, certified=False)
        prev_vals = vals
        n *= 2
    raise NumericalFailure(f"derivative enclosure above {tol} at depth cap {DEPTH_CAP}")


def simple_pext_bounds(params: ModelParams) -> tuple:
    """Closed-form extinction-probability bounds from low-depth convergents."""
    a, b, m = params.alpha, params.beta, params.mu
    lower = a / (2.0 * m) * (b + m - 1.0 + math.sqrt((b + m - 1.0) ** 2 + 4.0 * m))
    upper = a * ((a + b + m) * (a + 2.0 * b + m) + m) / (m * (1.0 + 2.0 * a + 2.0 * b + m))
    clip = lambda x: min(max(x, 0.0), 1.0)
    return clip(lower), clip(upper)


def extinction_probability(params: ModelParams, tol: float = 1e-10) -> CertifiedValue:
    """Smallest fixed point of g in [0, 1]; exactly 1 when E[M] <= 1."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    em = expected_M(params, min(tol, 1e-13))
    if em.upper <= 1.0:
        return CertifiedValue(1.0, 1.0, em.depth)
    if em.lower <= 1.0:
        # numerically critical: extinction is still certain
        return CertifiedValue(1.0 - tol, 1.0, em.depth, certified=False)
    gtol = tol / 16.0
    f = lambda z: g_eval(params, z, tol=gtol).midpoint - z
    hi = None
    for i in range(1, 60):
        b = 1.0 - 0.5**i
        if f(b) < 0.0:
            hi = b
            break
    if hi is None:
        raise NumericalFailure("no sign change found for the extinction fixed point")
    root = brentq(f, 0.0, hi, xtol=tol / 8.0)
    depth = g_eval(params, root, tol=gtol).depth
    delta = tol
    for _ in range(8):
        lo_pt = max(root - delta, 0.0)
        hi_pt = min(root + delta, hi)
        g_lo = g_eval(params, lo_pt, tol=gtol)
        g_hi = g_eval(params, hi_pt, tol=gtol)
        if g_lo.lower > lo_pt and g_hi.upper < hi_pt:
            return CertifiedValue(lo_pt, hi_pt, depth)
        delta *= 4.0
    raise NumericalFailure("could not certify the extinction fixed point enclosure")


TABLE_LEVEL_CAP = 100_000


def offspring_tables(params: ModelParams, m_max: int = 256, tol: float = 1e-14):
    """Per-state excursion-count pmfs P_k(m).

    A k-excursion carries a Geometric(rho_k/(1+rho_k)) number of independent
    (k+1)-excursions plus a Bernoulli(mu/rho_k) mutation; states above the
    truncation level (chosen so the z=1 convergent gap is below tol)
    contribute no mutations.  Returns (P, n_trunc, defect) with P[k] the
    pmf of the mutation count of one k-excursion for k = 1..n_trunc+1.
    Raises NumericalFailure, before building any table, when the truncation
    level would exceed TABLE_LEVEL_CAP.  Kept in the parameter set's
    ModelTables.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    return tables(params).keep(("offspring", m_max, tol), lambda: _excursion_pmfs(params, m_max, tol))


def _excursion_pmfs(params: ModelParams, m_max: int, tol: float):
    """The recursion behind :func:`offspring_tables`."""
    n_trunc = 1
    w = 1.0 / params.rho(1)
    while w > tol:
        if n_trunc >= TABLE_LEVEL_CAP:
            raise NumericalFailure(
                f"offspring tables need more than {TABLE_LEVEL_CAP} levels at {params}: "
                f"prod 1/rho_k is still {w:.3g} > tol {tol:g} (small beta keeps rho_k "
                "near alpha + mu over many levels)"
            )
        n_trunc += 1
        w /= params.rho(n_trunc)
    size = m_max + 1
    P = [None] * (n_trunc + 2)
    pk = np.zeros(size)
    pk[0] = 1.0
    P[n_trunc + 1] = pk
    for k in range(n_trunc, 0, -1):
        rho = params.rho(k)
        theta = rho / (1.0 + rho)
        p_mut = params.mu / rho
        # r solves r = theta*delta_0 + (1-theta) * (pk (*) r), truncated
        r = np.zeros(size)
        c = 1.0 - (1.0 - theta) * pk[0]
        r[0] = theta / c
        scale = (1.0 - theta) / c
        for m in range(1, size):
            r[m] = scale * float(pk[1 : m + 1][::-1] @ r[:m])
        pk = (1.0 - p_mut) * r
        pk[1:] += p_mut * r[:-1]
        P[k] = pk
    return P, n_trunc, w


def offspring_pmf(params: ModelParams, m_max: int, tol: float = 1e-12) -> OffspringPmf:
    """Distribution of M on {0..m_max}; see :func:`offspring_tables`."""
    P, n_trunc, defect = offspring_tables(params, m_max, tol)
    pk = P[1]
    tail = max(0.0, 1.0 - float(pk.sum())) + defect
    return OffspringPmf(pk, tail, m_max, n_trunc)


def nu_circ_pmf(params: ModelParams, tol: float = 1e-12) -> NuCircPmf:
    """Law of the state just before a uniform mutation: weights prod 1/rho_k.

    The weights are rescaled by the current one whenever the next product
    could pass 1e300, so they stay finite where E[M] itself overflows; the
    weights far below the current one then underflow to 0, as they are
    negligible against the sum.

    The stopping test compares the tail with tol times the exactly rounded
    sum of the weights.  A running sum of these positive weights is within
    a relative n eps of that sum, so fsum runs only where the running sum,
    widened by 4 (n + 2) eps, would pass the test: the stopping index is
    the one the exact test gives at every state.
    """
    weights = []
    w = 1.0
    total = 0.0  # running sum of the weights
    n = 0
    while True:
        n += 1
        rho = params.rho(n)
        if w > 1e300 * rho:
            weights = [v / w for v in weights]
            total = sum(weights)
            w = 1.0
        w /= rho
        weights.append(w)
        total += w
        r = 1.0 / params.rho(n + 1)
        if r < 1.0:
            tail = w * r / (1.0 - r)
            if tail <= tol * total * (1.0 + 4.0 * (n + 2) * EPS) and tail <= tol * math.fsum(weights):
                break
        if n > 1_000_000:
            raise NumericalFailure("nu_circ weights failed to converge")
    total = math.fsum(weights)
    return NuCircPmf(np.asarray(weights) / total, tail / total)


def zeta_tilt(params: ModelParams, tol: float = 1e-10) -> TiltSolution:
    """Exponential tilt of M with mean 1: solves E[M zeta^M] = E[zeta^M].

    Solved once per parameter set and tol, and kept in its ModelTables.
    """
    return tables(params).keep(("zeta_tilt", tol), lambda: _solve_tilt(params, tol))


def _solve_tilt(params: ModelParams, tol: float) -> TiltSolution:
    """The bisection behind :func:`zeta_tilt`."""
    inner_tol = 1e-12

    def phi(s: float) -> float:
        if s == 0.0:
            return 0.0
        g = g_eval(params, s, tol=inner_tol).midpoint
        g1 = g_derivatives(params, s, order=1, tol=max(inner_tol, tol / 10)).midpoint
        return s * g1 / g

    radius_hint = 1.0
    phi1 = phi(1.0)
    if abs(phi1 - 1.0) <= tol:
        lo = hi = 1.0
    elif phi1 > 1.0:
        hi = 1.0
        lo = 0.5
        while phi(lo) >= 1.0:
            lo *= 0.5
            if lo < 1e-300:
                raise NumericalFailure("no lower bracket for the tilt")
    else:
        lo = 1.0
        step = 1.0
        hi = None
        good = 1.0
        while hi is None:
            s = good + step
            try:
                v = phi(s)
                radius_hint = max(radius_hint, s)
                if v > 1.0:
                    hi = s
                else:
                    good = s
                    step *= 2.0
            except (PoleError, NumericalFailure):
                step *= 0.5
                if step < tol / 4:
                    raise NumericalFailure(
                        f"pole reached before the tilt bracket; best bracket [{good}, {good + step}]"
                    )
        lo = good
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    zeta = 0.5 * (lo + hi)
    g = g_eval(params, zeta, tol=inner_tol).midpoint
    g1 = g_derivatives(params, zeta, order=1, tol=max(inner_tol, tol / 10)).midpoint
    g2 = g_derivatives(params, zeta, order=2, tol=max(1e-11, tol)).midpoint
    sigma_sq = (zeta * g1 + zeta * zeta * g2) / g - 1.0
    return TiltSolution(zeta, g, sigma_sq, max(radius_hint, zeta))


def laplace_f(params: ModelParams, k: int, lam: float, tol: float = 1e-12) -> CertifiedValue:
    """Laplace transform E_k[exp(-lam * T_{k-1})] of the k -> k-1 passage time.

    Continued fraction f_j = rho_j / (1 + rho_j + lam/j - f_{j+1}).  For
    lam >= 0 the terminal values 0 and 1 give a certified enclosure; for
    lam < 0 depth-doubling agreement is reported, non-certified.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if lam <= -(1.0 + params.alpha + params.mu):
        raise ValueError(f"lam must exceed -(1+alpha+mu) = {-(1.0 + params.alpha + params.mu)}")
    certified = lam >= 0.0
    terminals = (0.0, 1.0) if certified else (1.0,)
    ends = lambda n: [vs[-1] for vs in _fraction(params, lam, n, k, terminals, passage=True)]
    what = f"laplace_f {'gap' if certified else 'agreement'} above {tol}"
    return _enclose(ends, max(DEPTH_START, 2 * k), certified, lambda a, b: abs(a - b) <= tol, what)


def _growth_series(params: ModelParams, lam: float, tol: float) -> float:
    """mu * sum_j prod_{k<=j} f_k(lam)/rho_k, the CMJ characteristic function."""
    n = 256
    prev = None
    while n <= DEPTH_CAP:
        fs = [None] + _fraction(params, lam, n, 1, (1.0,), passage=True)[0][::-1]  # fs[j] = f_j
        s = 0.0
        w = 1.0
        for j in range(1, n // 2):
            w *= fs[j] / params.rho(j)
            s += params.mu * w
            if w < tol * 1e-3 and fs[j + 1] / params.rho(j + 1) < 0.5:
                break
        if prev is not None and abs(s - prev) <= max(tol * 0.1, 1e-14):
            return s
        prev = s
        n *= 2
    raise NumericalFailure("growth-rate series did not stabilize")


def malthusian(params: ModelParams, tol: float = 1e-10) -> float:
    """Growth rate of the color count: solves E[M] E_circ[e^{-lam T}] = 1.

    Solved once per parameter set and tol, and kept in its ModelTables.
    """
    return tables(params).keep(("malthusian", tol), lambda: _solve_growth_rate(params, tol))


def _solve_growth_rate(params: ModelParams, tol: float) -> float:
    """The root search behind :func:`malthusian`."""
    psi = lambda lam: _growth_series(params, lam, tol)
    em = expected_M(params, 1e-13).midpoint
    bound = -(1.0 + params.alpha + params.mu)
    if abs(em - 1.0) <= 1e-14:
        return 0.0
    if em > 1.0:
        lo = 0.0
        step = 0.25
        hi = None
        while hi is None:
            cand = lo + step
            if psi(cand) < 1.0:
                hi = cand
            else:
                lo = cand
                step *= 2.0
                if lo > 1e6:
                    raise NumericalFailure("no upper bracket for the growth rate")
    else:
        hi = 0.0
        frac_good = 0.0  # largest fraction of the boundary where psi evaluated <= 1
        frac = 0.5
        lo = None
        while lo is None:
            cand = bound * frac
            try:
                v = psi(cand)
            except DivergentTailError:
                frac = 0.5 * (frac + frac_good)
                if frac - frac_good < 1e-13:
                    raise NumericalFailure(
                        "bracket search failed near the lam -> -(1+alpha+mu) boundary"
                    )
                continue
            if v > 1.0:
                lo = cand
            else:
                hi = cand
                frac_good = frac
                frac = 0.5 * (frac + 1.0)
                if 1.0 - frac < 1e-13:
                    raise NumericalFailure(
                        "bracket search failed near the lam -> -(1+alpha+mu) boundary"
                    )
    lam = brentq(lambda x: psi(x) - 1.0, lo, hi, xtol=tol / 4)
    if abs(psi(lam) - 1.0) > 10 * tol:
        raise NumericalFailure("growth-rate residual above tolerance")
    return float(lam)


def pgf_from_state(params: ModelParams, k: int, z: float, tol: float = 1e-12) -> CertifiedValue:
    """E_k[z^M] as the product of the excursion pgfs g_j(z), j = 1..k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return CertifiedValue(1.0, 1.0, 0)
    if z < 0.0:
        raise ValueError("pgf_from_state requires z >= 0")
    certified = z <= 1.0
    ends = lambda n: [math.prod(vs[-k:]) for vs in _pgf_convergents(params, z, n, 1, certified)]
    if certified:
        what, close = "gap", lambda a, b: abs(a - b) <= tol
    else:
        what, close = "agreement", lambda a, b: abs(a - b) <= tol * max(1.0, abs(a))
    return _enclose(ends, max(DEPTH_START, 2 * k), certified, close, f"pgf_from_state {what} above {tol}")


def critical_mu(alpha: float, beta: float) -> float:
    """Mutation rate making E[M] = 1 for the given alpha, beta (if attainable)."""
    f = lambda m: expected_M(ModelParams(alpha, beta, m), 1e-14).midpoint - 1.0
    lo, hi = 1e-12, 1.0
    tries = 0
    while f(hi) < 0.0:
        hi *= 4.0
        tries += 1
        if tries > 40:
            raise NumericalFailure(f"E[M] stays below 1 for alpha={alpha}, beta={beta}")
    return float(brentq(f, lo, hi, xtol=1e-12))


def tilted_offspring(params: ModelParams):
    """Tilted offspring pmf P(Mhat = m) = zeta^m P(M = m) / E[zeta^M].

    Returns (TiltSolution, normalized probs array), kept in the parameter
    set's ModelTables.  The support cap is grown until the tilted series
    matches g(zeta) to relative 1e-9.  A non-finite sum (zeta^m overflows)
    raises NumericalFailure at once: every larger cap shares these terms.
    """
    return tables(params).keep(("tilted_offspring",), lambda: _tilt_pmf(params))


def _tilt_pmf(params: ModelParams):
    """The support search behind :func:`tilted_offspring`."""
    tilt = zeta_tilt(params)
    target = tilt.E_zetaM
    m_max = 48
    gap = "none"
    while m_max <= 8192:
        base = offspring_pmf(params, m_max, tol=1e-14)
        with np.errstate(over="ignore", invalid="ignore"):
            w = base.probs * np.power(tilt.zeta, np.arange(m_max + 1))
            s = float(w.sum())
            if not math.isfinite(s):
                m_over = int(np.argmin(np.isfinite(np.cumsum(w))))
                raise NumericalFailure(
                    f"tilted series zeta^m P(M = m) at zeta = {tilt.zeta} overflows at m = {m_over}; "
                    f"last finite relative gap to g(zeta): {gap}"
                )
        if abs(s - target) <= 1e-9 * max(1.0, target):
            return tilt, w / s
        gap = f"{abs(s - target) / max(1.0, target):.2g}"
        m_max *= 2
    raise NumericalFailure("tilted offspring support cap exceeded")
