"""Exact simulation of the lineage-count process of one color, with marked events.

The lineage count of a color is a birth-death chain absorbed at 0: from
state ``k`` it jumps to ``k+1`` at rate ``k`` and to ``k-1`` at rate
``k*rho_k``.  Down-jumps split into mutation / death / coalescence marks
with probabilities ``mu/rho_k``, ``alpha/rho_k``, ``(k-1)*beta/rho_k``.
``simulate_trajectory`` draws one marked path; ``simulate_batch`` draws
only the summaries M, T, L and the sum of mutation times of many runs at
once, from one start state or one per run, advancing all live runs one jump
per NumPy step, for Monte Carlo that reads nothing else.  This module also
provides the trajectory viewed from a uniformly chosen mutation, built by
back-to-back pasting of two independent runs started from a state drawn
from the size-weighted law ``nu_circ``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EventCapError, NumericalFailure, RetryBudgetError
from .params import ModelParams, ModelTables, tables
from .rng import BufferedRng, RngStream

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
    nonnegative and hits 0 exactly at the last event.
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

    def mutation_times(self) -> list:
        return [e[0] for e in self.events if e[1] == MUTATION]

    def state_at(self, t: float) -> int:
        """State of the right-continuous path at time t."""
        if t < self.start_time:
            raise ValueError(f"t={t} before start of domain {self.start_time}")
        s = self.initial_state
        for u, _, s_after in self.events:
            if u > t:
                break
            s = s_after
        return s

    def pre_zero_state(self) -> int:
        """Left limit of the state at time 0 (state after the last t<0 event)."""
        s = self.initial_state
        for u, _, s_after in self.events:
            if u >= 0.0:
                break
            s = s_after
        return s

    def validate(self) -> None:
        """Raise ValueError if any trajectory invariant is violated."""
        t, s = self.start_time, self.initial_state
        if s < 1:
            raise ValueError("initial state must be >= 1")
        for i, (u, kind, s_after) in enumerate(self.events):
            if u <= t and not (i == 0 and u >= t):
                raise ValueError(f"event times not strictly increasing at index {i}")
            step = s_after - s
            if kind == BIRTH and step != 1:
                raise ValueError(f"birth with step {step} at index {i}")
            if kind in DOWN_KINDS and step != -1:
                raise ValueError(f"{kind} with step {step} at index {i}")
            if kind not in DOWN_KINDS and kind != BIRTH:
                raise ValueError(f"unknown event kind {kind!r}")
            if s_after < 0:
                raise ValueError("state went negative")
            if s_after == 0 and i != len(self.events) - 1:
                raise ValueError("state hit 0 before the last event")
            t, s = u, s_after
        if self.events and self.events[-1][2] != 0:
            raise ValueError("trajectory does not end at 0")

    def to_json_dict(self) -> dict:
        return {
            "initial_state": self.initial_state,
            "start_time": self.start_time,
            "events": [[t, kind] for t, kind, _ in self.events],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MarkedTrajectory":
        s = d["initial_state"]
        events = []
        for t, kind in d["events"]:
            s = s + 1 if kind == BIRTH else s - 1
            events.append((float(t), kind, s))
        return cls(d["initial_state"], events, float(d["start_time"]))


def _as_buffered(rng) -> BufferedRng:
    return rng if isinstance(rng, BufferedRng) else BufferedRng(rng)


def _simulate_embedded(params: ModelParams, x0: int, buf: BufferedRng, event_cap: int):
    """Jump chain only: returns (kinds, states_after, n_mutations)."""
    tab = tables(params)
    up, mut, death = tab.up, tab.mut, tab.death
    kinds = []
    states = []
    k = x0
    append_k = kinds.append
    append_s = states.append
    uniform = buf.uniform
    n_mut = 0
    while k > 0:
        if len(kinds) >= event_cap:
            raise EventCapError(event_cap, k)
        if k >= len(up):
            tab.grow(2 * k)
        u = uniform()
        if u < up[k]:
            k += 1
            append_k(BIRTH)
        elif u < mut[k]:
            k -= 1
            append_k(MUTATION)
            n_mut += 1
        elif u < death[k]:
            k -= 1
            append_k(DEATH)
        else:
            k -= 1
            append_k(COALESCENCE)
        append_s(k)
    return kinds, states, n_mut


def event_times(tab: ModelTables, x0: int, states: list, buf: BufferedRng, start_time: float = 0.0) -> list:
    """Event times of a jump chain from x0, given its states after each jump.

    The holding times are drawn after the chain, in one block: they are
    independent of the marks.
    """
    if states:
        tab.grow(max(x0, max(states)))
    hold = tab.hold
    times, t, k = [], start_time, x0
    for e, s in zip(buf.exponentials(len(states)).tolist(), states):
        t += e * hold[k]
        times.append(t)
        k = s
    return times


def _attach_times(
    params: ModelParams, x0: int, kinds: list, states: list, buf: BufferedRng, start_time: float
) -> MarkedTrajectory:
    """The marked trajectory of an embedded path, with its holding times drawn."""
    times = event_times(tables(params), x0, states, buf, start_time)
    return MarkedTrajectory(x0, list(zip(times, kinds, states)), start_time)


def simulate_trajectory(
    params: ModelParams,
    x0: int,
    rng,
    event_cap: int = DEFAULT_EVENT_CAP,
    start_time: float = 0.0,
) -> MarkedTrajectory:
    """Gillespie simulation from state x0 until absorption at 0."""
    if x0 < 1:
        raise ValueError(f"x0 must be >= 1, got {x0}")
    buf = _as_buffered(rng)
    kinds, states, _ = _simulate_embedded(params, x0, buf, event_cap)
    return _attach_times(params, x0, kinds, states, buf, start_time)


class TrajectoryStats(NamedTuple):
    """Per-run summaries of independent trajectories, one array entry per run."""

    M: np.ndarray  # number of mutations
    T: np.ndarray  # lifetime
    L: np.ndarray  # total lineage length, the time integral of the state
    S: np.ndarray  # sum of the mutation times


def _batch_rates(params: ModelParams, size: int):
    """Per-state arrays (P(birth), P(birth or mutation), mean holding time)
    for states below size, taken from the scalar rate rows."""
    tab = tables(params)
    tab.grow(size - 1)
    # state 0 is absorbing; its row, a copy of state 1's, is never read
    return tuple(np.array(c[1:2] + c[1:size]) for c in (tab.up, tab.mut, tab.hold))


def simulate_batch(params: ModelParams, x0, n: int, rng: RngStream) -> TrajectoryStats:
    """M, T, L and the sum of mutation times of n independent runs.

    ``x0`` is the start state of every run, or an integer array of the n
    per-run start states; entry i of each result belongs to run i.  The same
    embedded chain and holding times as :func:`simulate_trajectory`, advanced
    for all live runs at once: each step draws one uniform and one
    exponential per live run from ``rng.generator()``.  Death and coalescence
    are not told apart, since none of the four statistics depends on which
    one happened.  Runs go in blocks of ``BATCH_BLOCK``, in index order, so
    the working set does not grow with n; finished runs are compacted out
    after each step.  A start state below 1 raises ValueError, and a run
    still alive after ``DEFAULT_EVENT_CAP`` events raises
    :class:`EventCapError`, as in the scalar simulator.
    """
    starts = np.asarray(x0)
    if not np.issubdtype(starts.dtype, np.integer):
        raise ValueError(f"x0 must be an int or an integer array, got dtype {starts.dtype}")
    if starts.size and starts.min() < 1:
        raise ValueError(f"x0 must be >= 1, got {starts.min()}")
    starts = np.broadcast_to(starts.astype(np.int64), (n,))
    gen = rng.generator()
    M, TLS = np.zeros(n, dtype=np.int64), np.zeros((3, n))
    size = 2 * int(starts.max(initial=1)) + 64
    p_up, p_mut, hold = _batch_rates(params, size)
    for lo in range(0, n, BATCH_BLOCK):
        idx = np.arange(lo, min(n, lo + BATCH_BLOCK))
        k = starts[idx]
        acc = np.zeros((4, idx.size))  # rows M, T, L, S of the live runs
        events = 0
        while idx.size:
            if events >= DEFAULT_EVENT_CAP:
                raise EventCapError(DEFAULT_EVENT_CAP, int(k[0]))
            top = int(k.max())
            if top >= size:
                size = 2 * top
                p_up, p_mut, hold = _batch_rates(params, size)
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


def condition_on_mutations(
    params: ModelParams,
    m: int,
    rng,
    max_retries: int = 2_000_000,
    event_cap: int = DEFAULT_EVENT_CAP,
    x0: int = 1,
) -> MarkedTrajectory:
    """Exact rejection sampler for the trajectory law given M = m.

    Only the jump chain is simulated during rejection; holding times are
    attached to the accepted path (they are independent of the marks).
    Kept as the test oracle of :func:`sample_conditioned_path`, which is
    the sampler on the network path.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    buf = _as_buffered(rng)
    for attempt in range(1, max_retries + 1):
        kinds, states, n_mut = _simulate_embedded(params, x0, buf, event_cap)
        if n_mut == m:
            return _attach_times(params, x0, kinds, states, buf, 0.0)
    raise RetryBudgetError(
        f"condition_on_mutations(m={m}) exhausted retries", max_retries, 1.0 / max_retries
    )


def _excursion_tables(tab: ModelTables, m_max: int) -> tuple:
    """The offspring tables of analytics as Python float lists, with per level
    k <= n_trunc the closing-mutation probability mu/rho_k and the stay weight
    theta_k = rho_k/(1 + rho_k): (P, R, n_trunc, p_mut, theta)."""
    ex = tab.excursion.get(m_max)
    if ex is None:
        from .analytics import offspring_tables

        P, R, n_trunc, _ = offspring_tables(tab.params, m_max)
        rho = [tab.params.rho(k) for k in range(1, n_trunc + 1)]
        ex = tab.excursion[m_max] = (
            [None if x is None else x.tolist() for x in P],
            [None if x is None else x.tolist() for x in R],
            n_trunc,
            [None] + [tab.params.mu / r for r in rho],
            [None] + [r / (1.0 + r) for r in rho],
        )
        tab.grow(n_trunc + 1)
    return ex


def conditioned_chain(
    tab: ModelTables, m: int, buf: BufferedRng, m_max: int = 256, event_cap: int = DEFAULT_EVENT_CAP
) -> tuple:
    """Jump chain of an exact draw from the trajectory law given M = m, from state 1.

    Returns (kinds, states after each jump); see :func:`sample_conditioned_path`.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    P, R, n_trunc, p_mut, theta_k = _excursion_tables(tab, m_max)
    if m >= len(P[1]) or P[1][m] <= 0.0:
        raise NumericalFailure(
            f"P(M = {m}) is zero in the offspring tables (m_max={m_max}); "
            "the outdegree lies beyond the sampler's support"
        )
    alpha, beta = tab.params.alpha, tab.params.beta
    up = tab.up
    uniform = buf.uniform
    kinds: list = []
    states: list = []

    def emit(kind: str, state: int) -> None:
        if len(kinds) >= event_cap:
            raise EventCapError(event_cap, state)
        kinds.append(kind)
        states.append(state)

    def plain_excursion(j: int) -> None:
        """Unconditioned mutation-free excursion from j down to j-1 (j > n_trunc)."""
        depth = 0
        while True:
            k = j + depth
            if k >= len(up):
                tab.grow(2 * k)
            if uniform() < up[k]:
                depth += 1
                emit(BIRTH, k + 1)
            else:
                kd = alpha + (k - 1) * beta
                kind = DEATH if uniform() * kd < alpha else COALESCENCE
                emit(kind, k - 1)
                if depth == 0:
                    return
                depth -= 1

    def enter(k: int, s: int) -> tuple | None:
        """Open a k-excursion carrying exactly s mutations.

        Above the truncation level the excursion is mutation-free and is
        walked whole here; otherwise its closing mutation is drawn and the
        state (k, remaining budget, closing mutation, theta) returned.
        """
        if k > n_trunc:
            plain_excursion(k)
            return None
        if s >= 1:
            b = 1 if uniform() * P[k][s] < p_mut[k] * R[k][s - 1] else 0
        else:
            b = 0
        return k, s - b, b, theta_k[k]

    # A k-excursion draws its (k+1)-sub-excursions one at a time, each
    # walked to its end before the next is drawn.  The open excursions
    # above the current one wait on an explicit stack, so the draws come in
    # the order of the recursive decomposition without Python recursion.
    suspended = []
    k, rem, b, theta = enter(1, m)
    Rk, Pup = R[k], P[k + 1]
    while True:
        target = uniform() * Rk[rem]
        if rem == 0 and target < theta:
            if b:
                emit(MUTATION, k - 1)
            else:
                kd = alpha + (k - 1) * beta
                if kd <= 0.0:
                    raise RuntimeError("zero-rate down-step requested")
                kind = DEATH if uniform() * kd < alpha else COALESCENCE
                emit(kind, k - 1)
            if not suspended:
                break
            k, rem, b, theta = suspended.pop()
            Rk, Pup = R[k], P[k + 1]
            continue
        acc = theta if rem == 0 else 0.0
        chosen = None
        last_pos = None
        for c in range(rem + 1):
            wgt = (1.0 - theta) * Pup[c] * Rk[rem - c]
            if wgt > 0.0:
                last_pos = c
            acc += wgt
            if acc > target:
                chosen = c
                break
        if chosen is None:
            chosen = last_pos
        if chosen is None:
            raise RuntimeError(f"no feasible sub-excursion split at state {k}, budget {rem}")
        emit(BIRTH, k + 1)
        rem -= chosen
        sub = enter(k + 1, chosen)
        if sub is not None:
            suspended.append((k, rem, b, theta))
            k, rem, b, theta = sub
            Rk, Pup = R[k], P[k + 1]
    n_mut = kinds.count(MUTATION)
    if n_mut != m:
        raise RuntimeError(f"decomposition produced {n_mut} mutations, wanted {m}")
    return kinds, states


def sample_conditioned_path(
    params: ModelParams, m: int, rng, m_max: int = 256, event_cap: int = DEFAULT_EVENT_CAP
) -> MarkedTrajectory:
    """Exact draw from the trajectory law given M = m, without rejection.

    Walks the excursion decomposition: a k-excursion carries a geometric
    number of (k+1)-excursions plus a Bernoulli mutation on its closing
    step, so the mutation budget can be split recursively using the
    precomputed per-state count pmfs.  The recursion runs on an explicit
    stack, so paths of any height need no Python recursion.  Exact for the
    state-truncated model (truncation defect below 1e-14); excursions above
    the truncation level are mutation-free by construction.  Raises
    NumericalFailure when P(M = m) is zero in the tables (m > m_max, or an
    underflowed tail).
    """
    buf = _as_buffered(rng)
    kinds, states = conditioned_chain(tables(params), m, buf, m_max, event_cap)
    return _attach_times(params, 1, kinds, states, buf, 0.0)


def paste_back_to_back(f: MarkedTrajectory, g: MarkedTrajectory, zero_kind: str | None = None):
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
    return MarkedTrajectory(init, events, start)


def resample_negative_kinds(traj: MarkedTrajectory, params: ModelParams, rng) -> MarkedTrajectory:
    """Redraw marks on the t<0 section so kinds agree with jump directions.

    Given the state path, down-jump kinds are independent categorical draws
    (mutation mu/rho_k, death alpha/rho_k, else coalescence, k = state
    before the jump); up-jumps are births.  Events at t >= 0 are untouched.
    """
    buf = _as_buffered(rng)
    events = []
    s = traj.initial_state
    for t, kind, s_after in traj.events:
        if t >= 0:
            events.append((t, kind, s_after))
        elif s_after > s:
            events.append((t, BIRTH, s_after))
        else:
            k = s
            rho = params.rho(k)
            u = buf.uniform() * rho
            if u < params.mu:
                events.append((t, MUTATION, s_after))
            elif u < params.mu + params.alpha:
                events.append((t, DEATH, s_after))
            else:
                events.append((t, COALESCENCE, s_after))
        s = s_after
    return MarkedTrajectory(traj.initial_state, events, traj.start_time)


def sample_nu_circ(params: ModelParams, rng, tol: float = 1e-12) -> int:
    """State seen just before a uniform mutation: P(K=n) proportional to prod 1/rho_k."""
    from .analytics import nu_circ_pmf

    pmf = nu_circ_pmf(params, tol)
    buf = _as_buffered(rng)
    cdf = np.cumsum(pmf.probs)
    return 1 + buf.choice_index(cdf)


def sample_x_mut(params: ModelParams, rng, tol: float = 1e-12) -> MarkedTrajectory:
    """Trajectory viewed from a uniformly chosen mutation time, biased by M.

    Draws K ~ nu_circ, pastes an independent run from K (time-reversed, on
    t<0) to a run from K-1 (on t>=0); the joining down-jump at time 0 is the
    distinguished mutation.  Kinds on the reversed section are redrawn from
    the categorical mark law, which is the conditional law of the remaining
    marks given the distinguished one.
    """
    buf = _as_buffered(rng)
    K = sample_nu_circ(params, buf, tol)
    x_left = simulate_trajectory(params, K, buf)
    if K > 1:
        x_right = simulate_trajectory(params, K - 1, buf)
    else:
        x_right = MarkedTrajectory(0, [], 0.0)
    pasted = paste_back_to_back(x_left, x_right, zero_kind=MUTATION)
    return resample_negative_kinds(pasted, params, buf)
