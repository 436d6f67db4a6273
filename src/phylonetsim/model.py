"""Exact simulation of the lineage-count process of one color, with marked events.

The lineage count of a color is a birth-death chain absorbed at 0: from
state ``k`` it jumps to ``k+1`` at rate ``k`` and to ``k-1`` at rate
``k*rho_k``.  Down-jumps split into mutation / death / coalescence marks
with probabilities ``mu/rho_k``, ``alpha/rho_k``, ``(k-1)*beta/rho_k``.

Every path is drawn by one lockstep stepper, which advances every live
path of a batch one event per NumPy step on one uniform each.  It runs one
of three step tables, each of a Doob h-transform of the jump chain:

- ``plain_paths``: the chain itself, h = 1, on the rate table
  ``ModelTables.rates``; ``simulate_trajectory`` is its batch of one;
- ``conditioned_paths``: the law given M = m, one m per path, on (state,
  mutations still to come) with h(k, r) = P_k(M = r);
  ``sample_conditioned_path`` is its batch of one;
- ``tilted_paths``: the zeta^M-tilted chain, h_k = E_k[zeta^M], for the
  local-limit samplers.

``simulate_batch`` draws only the summaries M, T, L and the sum of
mutation times of many runs, on its own loop over the same rate table, for
Monte Carlo that reads nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import EventCapError, NumericalFailure
from .params import ModelParams, tables
from .rng import RngStream, buffered

BIRTH = "B"
DEATH = "D"
COALESCENCE = "C"
MUTATION = "M"
DOWN_KINDS = (MUTATION, DEATH, COALESCENCE)

DEFAULT_EVENT_CAP = 10_000_000
BATCH_BLOCK = 4096  # runs advanced together by simulate_batch


@dataclass
class MarkedTrajectory:
    """Cadlag +-1 jump path with event marks.

    ``events`` holds ``(time, kind, state_after)`` triples with strictly
    increasing times.  For a well-formed trajectory the running state stays
    nonnegative and hits 0 exactly at the last event; ``verify`` holds the
    check of that and the other readers of the path that only checks use.
    """

    initial_state: int
    events: list = field(default_factory=list)
    start_time: float = 0.0

    @property
    def end_time(self) -> float:
        return self.events[-1][0] if self.events else self.start_time

    @property
    def T(self) -> float:
        """Total lifetime: last event time minus start time."""
        return self.end_time - self.start_time

    @property
    def M(self) -> int:
        return sum(1 for e in self.events if e[1] == MUTATION)

    @property
    def L(self) -> float:
        """Time integral of the state (total lineage length)."""
        terms = []
        t, s = self.start_time, self.initial_state
        for u, _, s_after in self.events:
            terms.append(s * (u - t))
            t, s = u, s_after
        return math.fsum(terms)

    def to_json_dict(self) -> dict:
        return {
            "initial_state": self.initial_state,
            "start_time": self.start_time,
            "events": [[t, kind] for t, kind, _ in self.events],
        }


class TrajectoryStats(NamedTuple):
    """Per-run summaries of independent trajectories, one array entry per run."""

    M: np.ndarray  # number of mutations
    T: np.ndarray  # lifetime
    L: np.ndarray  # total lineage length, the time integral of the state
    S: np.ndarray  # sum of the mutation times


def simulate_batch(params: ModelParams, x0, n: int, rng: RngStream) -> TrajectoryStats:
    """M, T, L and the sum of mutation times of n independent runs.

    ``x0`` is the start state of every run, or an integer array of the n
    per-run start states; entry i of each result belongs to run i.  The
    chain of :func:`plain_paths`, on the same rate table, but with each
    step drawing one uniform and one exponential per live run from
    ``rng.generator()`` and keeping only the running sums.  Death and
    coalescence are not told apart, since none of the four statistics
    depends on which one happened.  Runs go in blocks of ``BATCH_BLOCK``, in index order, so
    the working set does not grow with n; finished runs are compacted out
    after each step.  A start state below 1 raises ValueError, and a run
    still alive after ``DEFAULT_EVENT_CAP`` events raises
    :class:`EventCapError`, as on the lockstep stepper.
    """
    starts = np.asarray(x0)
    if not np.issubdtype(starts.dtype, np.integer):
        raise ValueError(f"x0 must be an int or an integer array, got dtype {starts.dtype}")
    if starts.size and starts.min() < 1:
        raise ValueError(f"x0 must be >= 1, got {starts.min()}")
    starts = np.broadcast_to(starts.astype(np.int64), (n,))
    gen = rng.generator()
    M, TLS = np.zeros(n, dtype=np.int64), np.zeros((3, n))
    tab = tables(params)
    (p_up, p_mut, _), hold = tab.rates(2 * int(starts.max(initial=1)) + 64)
    for lo in range(0, n, BATCH_BLOCK):
        idx = np.arange(lo, min(n, lo + BATCH_BLOCK))
        k = starts[idx]
        acc = np.zeros((4, idx.size))  # rows M, T, L, S of the live runs
        events = 0
        while idx.size:
            if events >= DEFAULT_EVENT_CAP:
                raise EventCapError(DEFAULT_EVENT_CAP, int(k[0]))
            top = int(k.max())
            if top >= hold.size:
                (p_up, p_mut, _), hold = tab.rates(2 * top)
            u = gen.random(idx.size)
            dt = gen.standard_exponential(idx.size) * hold[k]
            up = u < p_up[k]
            mut = ~up & (u < p_mut[k])
            acc[0] += mut
            acc[1] += dt
            acc[2] += k * dt
            acc[3] += acc[1] * mut
            k += 2 * up - 1
            events += 1
            done = k == 0
            if done.any():
                fin = idx[done]
                M[fin], TLS[:, fin] = acc[0, done], acc[1:, done]
                live = ~done
                idx, k, acc = idx[live], k[live], acc[:, live]
    return TrajectoryStats(M, *TLS)


class HTransform:
    """A Doob h-transform of the jump chain, and the step tables it is run by.

    A path's place in the tables is its index k*w + r, for state k and
    column r of the w = ``h.shape[1]`` columns of ``h``.  Rows
    k = 0..n_trunc+1 of ``h`` hold the h-function; above n_trunc
    excursions carry no mutation, so row n_trunc+1 is row n_trunc.  The step
    tables, indexed by the index and grown on demand by :meth:`steps`, hold
    the cumulative probabilities of an up-step, a mutation and a death
    (``cum``; the rest is a coalescence; NaN where every weight underflowed)
    and the mean holding time of the state (``hold``).

    ``mut`` is the weight of a mutation from each state k = 1..n_trunc
    before the factor mu.  From state k the chain goes up, takes a
    mutation, dies or coalesces with weights h(k+1), mu mut(k), alpha h(k-1)
    and (k-1) beta h(k-1), which sum to (1 + rho_k) h(k), the first-step
    equation of h; each row is divided by its own sum, which absorbs the
    rounding.  Above n_trunc a down-step is a death or a coalescence with
    odds alpha : (k-1) beta, as in the truncated model of the tables.
    """

    __slots__ = ("params", "h", "n_trunc", "cum", "hold")

    def __init__(self, params: ModelParams, h: np.ndarray, mut: np.ndarray):
        n_trunc, w = h.shape[0] - 2, h.shape[1]
        below = h[:-2]
        weights = np.stack(
            [h[2:], params.mu * mut, params.alpha * below, np.arange(n_trunc)[:, None] * params.beta * below]
        )
        with np.errstate(invalid="ignore"):
            cum = np.cumsum(weights[:3], axis=0) / weights.sum(axis=0)
        self.params, self.h, self.n_trunc = params, h, n_trunc
        self.cum = np.concatenate([np.full((3, 1, w), np.nan), cum], axis=1).reshape(3, -1)  # state 0 is never left
        self.hold = np.empty(0)
        self.steps(0)

    def steps(self, top: int) -> tuple:
        """The step tables (cum, hold), through state top at least."""
        p, n_trunc, w = self.params, self.n_trunc, self.h.shape[1]
        if self.hold.size <= top * w:
            size = max(2 * top, n_trunc + 16)
            cum, hold = tables(p).rates(size - 1)
            up = cum[0, n_trunc + 1 : size]
            k = np.arange(n_trunc + 1, size)
            death = up + (1.0 - up) * p.alpha / (p.alpha + (k - 1) * p.beta)
            above = np.repeat(np.stack([up, up, death]), w, axis=1)
            self.cum = np.concatenate([self.cum[:, : (n_trunc + 1) * w], above], axis=1)
            self.hold = np.repeat(hold[:size], w)
        return self.cum, self.hold


def h_transform(params: ModelParams, m_max: int = 256) -> HTransform:
    """The h-transform of the jump chain given M, kept in its ModelTables by m_max.

    Column r is the number of mutations still to come:
    h(k, r) = P_k(M = r), r = 0..m_max, where row k is row k-1 convolved
    with the mutation count of one k-excursion
    (``analytics.offspring_tables``).  A mutation leads to column r-1.
    """

    def build():
        from .analytics import offspring_tables

        P, n_trunc, _ = offspring_tables(params, m_max)
        w = m_max + 1
        h = np.zeros((n_trunc + 2, w))
        h[0, 0] = 1.0
        for k in range(1, n_trunc + 1):
            h[k] = np.convolve(P[k], h[k - 1])[:w]
        h[n_trunc + 1] = h[n_trunc]
        return HTransform(params, h, np.pad(h[:-2], ((0, 0), (1, 0)))[:, :w])

    return tables(params).keep(("h", m_max), build)


class PlainChain(NamedTuple):
    """The jump chain as its own h-transform, h = 1: the ``h`` and ``steps``
    of :class:`HTransform`, with the rate table ``ModelTables.rates`` as steps."""

    h: np.ndarray
    steps: Callable


def tilted_h_transform(params: ModelParams, zeta: float, m_max: int = 256) -> HTransform:
    """The h-transform of the zeta^M-tilted jump chain, kept in its
    ModelTables by (zeta, m_max).

    h(k) = E_k[zeta^M] on the truncated model of :func:`h_transform`: the
    zeta^r-weighted sum of its row k, as one column.  A mutation weighs
    zeta h(k-1); the holding times are the untilted ones, since the tilt
    reads only the jump chain.  A zeta^r that overflows raises
    NumericalFailure, and so does a last column whose term
    m_max zeta^m_max h(k, m_max) is above 1e-9 h(k): the tilted law then has
    mass beyond the tables.  At zeta = 1, h = 1 at every state: the chain
    itself on its rate table, with no truncation and no m_max.
    """
    if zeta == 1.0:
        return PlainChain(np.ones((2, 1)), tables(params).rates)

    def build():
        h = h_transform(params, m_max).h
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.power(zeta, np.arange(m_max + 1, dtype=float))
            hz = h @ powers
            if not np.isfinite(hz).all():
                raise NumericalFailure(f"the tilt zeta^r at zeta = {zeta} overflows the h-table (m_max={m_max})")
        if (m_max * h[:, -1] * powers[-1] > 1e-9 * hz).any():
            raise NumericalFailure(
                f"the zeta^M-tilted law at zeta = {zeta} has mass beyond m_max = {m_max} of the offspring tables"
            )
        hz = hz[:, None]
        return HTransform(params, hz, zeta * hz[:-2])

    return tables(params).keep(("h_zeta", zeta, m_max), build)


class PathBatch(NamedTuple):
    """Jump chains of a batch, path after path, each from its start state at time 0.

    Path i is the events ``offsets[i]:offsets[i+1]``: ``kinds`` holds one
    letter of "BMDC" per event, ``states`` the state after it and ``times``
    its time.
    """

    kinds: str
    states: np.ndarray
    times: np.ndarray
    offsets: np.ndarray

    def trajectory(self, i: int) -> MarkedTrajectory:
        """Path i as a MarkedTrajectory; a path without events starts in state 0."""
        a, b = self.offsets[i], self.offsets[i + 1]
        kinds, states = self.kinds[a:b], self.states[a:b].tolist()
        x0 = states[0] + (-1 if kinds[0] == BIRTH else 1) if states else 0
        return MarkedTrajectory(x0, list(zip(self.times[a:b].tolist(), kinds, states)))


_KIND_LETTERS = np.frombuffer((BIRTH + MUTATION + DEATH + COALESCENCE).encode(), dtype=np.uint8)
_STATE_STEP = np.array([1, -1, -1, -1])  # birth, mutation, death, coalescence


def _lockstep(table, w: int, starts: np.ndarray, step: np.ndarray, gen: np.random.Generator) -> PathBatch:
    """Jump chains of an h-transform, one path per start index.

    A path's index is k*w + r for state k and column r of the w columns of
    its h-function.  ``table(top)`` returns the step tables (cum, hold) of
    :meth:`HTransform.steps` through state top, ``starts`` holds each path's
    index at time 0 and ``step`` the index change of a birth, a mutation, a
    death and a coalescence.  All live paths advance one event per NumPy
    step, on one uniform each; a path ends in state 0, so one that starts
    there has no events.  The holding times, independent of the marks, are
    drawn after the chains as one exponential per event times the mean
    holding time of its state.  A path alive after ``DEFAULT_EVENT_CAP``
    events raises :class:`EventCapError`, one that passed a row of
    underflowed weights NumericalFailure.
    """
    cum, hold = table(0)
    n = starts.size
    cap = 4 * n + 64
    rec_col, rec_at, rec_kind = (np.empty(cap, dtype=np.int64) for _ in range(3))
    col = np.flatnonzero(starts >= w)
    at = starts[col]
    bounds = [0]
    while col.size:
        if len(bounds) > DEFAULT_EVENT_CAP:
            raise EventCapError(DEFAULT_EVENT_CAP, int(at[0]) // w)
        if at.max() >= hold.size:
            cum, hold = table(int(at.max()) // w)
        # 0 birth, 1 mutation, 2 death, 3 coalescence
        kind = (gen.random(col.size) >= cum[:, at]).sum(axis=0)
        pos, end = bounds[-1], bounds[-1] + col.size
        if end > cap:
            cap = 2 * end
            rec_col, rec_at, rec_kind = (np.resize(a, cap) for a in (rec_col, rec_at, rec_kind))
        rec_col[pos:end], rec_at[pos:end], rec_kind[pos:end] = col, at, kind
        bounds.append(end)
        at += step[kind]
        live = at >= w
        if not live.all():
            col, at = col[live], at[live]
    pos = bounds[-1]
    if np.isnan(cum[0, rec_at[:pos]]).any():
        raise NumericalFailure("a path passed a state whose h-transform weights underflowed")
    # holding times, one exponential per event, summed along each path step by step
    held = gen.standard_exponential(pos) * hold[rec_at[:pos]]
    clock, rec_time = np.zeros(n), np.empty(pos)
    for a, b in zip(bounds, bounds[1:]):
        c = rec_col[a:b]
        clock[c] += held[a:b]
        rec_time[a:b] = clock[c]
    order = np.argsort(rec_col[:pos], kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rec_col[:pos], minlength=n), out=offsets[1:])
    kind = rec_kind[order]
    states = (rec_at[order] + step[kind]) // w
    return PathBatch(_KIND_LETTERS[kind].tobytes().decode("ascii"), states, rec_time[order], offsets)


def _start_states(starts) -> np.ndarray:
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    if starts.size and starts.min() < 0:
        raise ValueError(f"start states must be >= 0, got {starts.min()}")
    return starts


def plain_paths(params: ModelParams, starts, gen: np.random.Generator) -> PathBatch:
    """Draws of the jump chain itself, one path per start state.

    The chain of the rate table ``ModelTables.rates`` (h = 1) on the
    lockstep stepper; a start state of 0 gives an empty path, one below 0
    raises ValueError.
    """
    return _lockstep(tables(params).rates, 1, _start_states(starts), _STATE_STEP, gen)


def simulate_trajectory(params: ModelParams, x0: int, rng) -> MarkedTrajectory:
    """One marked path from state x0 until absorption at 0.

    The batch of one of :func:`plain_paths`, drawn from the numpy generator
    of the stream's buffer.
    """
    if x0 < 1:
        raise ValueError(f"x0 must be >= 1, got {x0}")
    return plain_paths(params, [x0], buffered(rng).generator()).trajectory(0)


def conditioned_paths(params: ModelParams, ms, gen: np.random.Generator, m_max: int = 256) -> PathBatch:
    """Exact draws from the trajectory law given M = m, one path per entry of ms.

    Each path runs the chain of :func:`h_transform` on (state k, mutations
    to come r) from (1, m) on the lockstep stepper.  The batch is checked
    before anything is drawn: an m below 0 raises ValueError, an m above
    m_max or whose P(M = m) is below the smallest normal float raises
    NumericalFailure.
    """
    ms = np.asarray(ms, dtype=np.int64).reshape(-1)
    if ms.size and ms.min() < 0:
        raise ValueError(f"m must be >= 0, got {ms.min()}")
    ht = h_transform(params, m_max)
    bad = ms[(ms > m_max) | (ht.h[1, np.minimum(ms, m_max)] < np.finfo(float).tiny)]
    if bad.size:
        raise NumericalFailure(
            f"P(M = {bad[0]}) is zero or underflowed in the offspring tables (m_max={m_max}): beyond the support"
        )
    w = m_max + 1
    step = np.array([w, -w - 1, -w, -w])
    return _lockstep(ht.steps, w, w + ms, step, gen)


def tilted_paths(params: ModelParams, zeta: float, starts, gen: np.random.Generator, m_max: int = 256) -> PathBatch:
    """Exact draws of the zeta^M-tilted jump chain, one path per start state.

    The chain of :func:`tilted_h_transform` on the lockstep stepper; a
    start state of 0 gives an empty path, one below 0 raises ValueError.
    """
    return _lockstep(tilted_h_transform(params, zeta, m_max).steps, 1, _start_states(starts), _STATE_STEP, gen)


def sample_conditioned_path(params: ModelParams, m: int, rng) -> MarkedTrajectory:
    """Exact draw from the trajectory law given M = m, without rejection.

    The batch of one of :func:`conditioned_paths`, drawn from the numpy
    generator of the stream's buffer.  Exact for the state-truncated model
    of the offspring tables (truncation defect below 1e-14).
    """
    return conditioned_paths(params, [m], buffered(rng).generator()).trajectory(0)
