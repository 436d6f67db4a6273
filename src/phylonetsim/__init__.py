"""Simulator and certified numerics for a branching-death-coalescence-mutation
phylogenetic network model."""

__version__ = "0.1.0"

from .params import ModelParams
from .rng import RngStream
from .model import (
    BIRTH,
    COALESCENCE,
    DEATH,
    MUTATION,
    MarkedTrajectory,
    simulate_batch,
    simulate_trajectory,
)
from .analytics import (
    CertifiedValue,
    NuCircPmf,
    OffspringPmf,
    TiltSolution,
    expected_M,
    extinction_probability,
    g_derivatives,
    g_eval,
    laplace_f,
    malthusian,
    nu_circ_pmf,
    offspring_pmf,
    pgf_from_state,
    simple_pext_bounds,
    zeta_tilt,
)
from .network import (
    ColorNetwork,
    GenealogyTree,
    GluedNetwork,
    PointRef,
    contour,
    decorate,
    distance,
    sample_genealogy_tree,
    sample_network,
    uniform_point,
)
from .limits import (
    CrtConstants,
    Estimate,
    LocalBall,
    crt_constants,
    gw_size_probability,
    prob_N,
    sample_focal_network,
    sample_local_ball,
    sample_spinal_network,
)
