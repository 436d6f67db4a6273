"""Model parameters for the branching-death-coalescence-mutation particle system.

Rates are per lineage: branching at rate 1, death at rate ``alpha``,
mutation (new color) at rate ``mu``; same-color pairs coalesce at rate
``2*beta`` per pair, i.e. an aggregate ``k*(k-1)*beta`` from state ``k``.
Everything the samplers and numerics precompute for one parameter set
lives in one :class:`ModelTables`, fetched with :func:`tables`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


class ModelTables:
    """The per-parameter tables.

    ``cum`` and ``hold`` are the step table of the chain itself, NumPy
    arrays indexed by state k and grown on demand by :meth:`rates`:
    ``cum[:, k]`` holds the cumulative probabilities of a birth, a mutation
    and a death within one uniform draw, 1/(1 + rho_k), (1 + mu)/(1 + rho_k)
    and (1 + mu + alpha)/(1 + rho_k), and ``hold[k]`` = 1/(k (1 + rho_k)) is
    the mean holding time.  Column 0 (the absorbing state) is NaN and never
    read.  ``kept`` holds what the owners build once per parameter set,
    through :meth:`keep`: the offspring tables, the tilt, the growth rate,
    the tilted offspring law and the h-transforms.
    """

    __slots__ = ("params", "cum", "hold", "kept")

    def __init__(self, params: ModelParams):
        self.params = params
        self.cum, self.hold = np.empty((3, 0)), np.empty(0)
        self.kept = {}

    def keep(self, key, build):
        """The result kept under key, built by build() on first use.

        An error of build propagates and nothing is kept, so it is raised
        again on the next call.
        """
        if key not in self.kept:
            self.kept[key] = build()
        return self.kept[key]

    def rates(self, top: int) -> tuple:
        """The step table (cum, hold), through state top at least."""
        if self.hold.size <= top:
            p = self.params
            k = np.arange(1.0, 2 * top + 64)
            tot = 1.0 + (p.alpha + p.mu + (k - 1.0) * p.beta)
            cum = np.stack([1.0 / tot, (1.0 + p.mu) / tot, (1.0 + p.mu + p.alpha) / tot])
            self.cum = np.concatenate([np.full((3, 1), np.nan), cum], axis=1)
            self.hold = np.concatenate([[np.nan], 1.0 / (k * tot)])
        return self.cum, self.hold


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
