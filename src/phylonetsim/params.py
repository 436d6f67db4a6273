"""Model parameters for the branching-death-coalescence-mutation particle system.

Rates are per lineage: branching at rate 1, death at rate ``alpha``,
mutation (new color) at rate ``mu``; same-color pairs coalesce at rate
``2*beta`` per pair, i.e. an aggregate ``k*(k-1)*beta`` from state ``k``.
Everything the samplers and numerics precompute for one parameter set
lives in one :class:`ModelTables`, fetched with :func:`tables`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    alpha: float
    beta: float
    mu: float

    def __post_init__(self):
        for name in ("alpha", "beta", "mu"):
            v = getattr(self, name)
            if not (v > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {v}")

    def rho(self, k: int) -> float:
        """Per-lineage down-jump rate from state k: alpha + mu + (k-1)*beta."""
        if k < 1:
            raise ValueError(f"rho(k) requires k >= 1, got k={k}")
        return self.alpha + self.mu + (k - 1) * self.beta


def rho(params: ModelParams, k: int) -> float:
    """Functional form of :meth:`ModelParams.rho`."""
    return params.rho(k)


class ModelTables:
    """The per-parameter tables, as Python float lists.

    Rate rows by state k, grown on demand by :meth:`grow`: ``up[k]``,
    ``mut[k]`` and ``death[k]`` are the cumulative probabilities of a birth,
    a mutation and a death within one uniform draw, and ``hold[k]`` =
    1/(k (1 + rho_k)) is the mean holding time.  Row 0 (the absorbing
    state) is never read.  The other slots are filled by their owners:
    ``offspring`` maps (m_max, tol) to ``analytics.offspring_tables``,
    ``excursion`` maps m_max to the lists the conditioned sampler reads,
    ``tilt`` holds ``analytics.tilted_offspring``, and ``memo`` maps
    (name, tol) to the result of ``analytics.zeta_tilt`` or
    ``analytics.malthusian``.  A typed error is raised again on every call,
    never kept.
    """

    __slots__ = ("params", "up", "mut", "death", "hold", "offspring", "excursion", "tilt", "memo")

    def __init__(self, params: ModelParams):
        self.params = params
        self.up, self.mut, self.death, self.hold = [0.0], [0.0], [0.0], [0.0]
        self.offspring, self.excursion, self.tilt, self.memo = {}, {}, None, {}

    def grow(self, k: int) -> None:
        """Extend the rate rows through state k."""
        p = self.params
        for j in range(len(self.up), k + 1):
            tot = 1.0 + p.rho(j)
            self.up.append(1.0 / tot)
            self.mut.append((1.0 + p.mu) / tot)
            self.death.append((1.0 + p.mu + p.alpha) / tot)
            self.hold.append(1.0 / (j * tot))


TABLES_CAP = 32  # parameter sets kept; the oldest is dropped first
_tables: dict = {}


def tables(params: ModelParams) -> ModelTables:
    """The one ModelTables of a parameter set."""
    tab = _tables.get(params)
    if tab is None:
        if len(_tables) >= TABLES_CAP:
            del _tables[next(iter(_tables))]
        tab = _tables[params] = ModelTables(params)
    return tab
