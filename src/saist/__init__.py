"""Formal computation of the smallest average inter-sample time (SAIST) of
periodic event-triggered control loops via traffic abstractions and
minimum-mean-cycle analysis."""

from .petc import (
    PetcSystem,
    DiscretizedSystem,
    SampleTrajectory,
    relative_error_trigger,
    discretize,
    kappa,
    simulate,
    trace,
    running_average,
    perturb,
)
from .cones import ConeSystem, sigma_cone, subspace_contained
from .oracle import ConeOracle, FeasibilityVerdict, Status
from .abstraction import TrafficAbstraction, build_l_complete, refine_sac
from .quantgraph import (
    WeightedGraph,
    CycleResult,
    min_mean_cycle,
    min_mean_cycles,
    max_mean_cycle,
    attracting_scc_bound,
)
from .cycle_verify import (
    InvariantSubspace,
    EigenStructure,
    cycle_matrix,
    basic_invariant_subspaces,
    verify_cycle,
)
from .driver import (
    SaistConfig,
    SaistReport,
    parse_config,
    compute_saist,
    generic_limavg,
    crosscheck_simulation,
)
from . import errors, fixtures

__version__ = "0.1.0"

__all__ = [
    "PetcSystem",
    "DiscretizedSystem",
    "SampleTrajectory",
    "relative_error_trigger",
    "discretize",
    "kappa",
    "simulate",
    "trace",
    "running_average",
    "perturb",
    "ConeSystem",
    "sigma_cone",
    "subspace_contained",
    "ConeOracle",
    "FeasibilityVerdict",
    "Status",
    "TrafficAbstraction",
    "build_l_complete",
    "refine_sac",
    "WeightedGraph",
    "CycleResult",
    "min_mean_cycle",
    "min_mean_cycles",
    "max_mean_cycle",
    "attracting_scc_bound",
    "InvariantSubspace",
    "EigenStructure",
    "cycle_matrix",
    "basic_invariant_subspaces",
    "verify_cycle",
    "SaistConfig",
    "SaistReport",
    "parse_config",
    "compute_saist",
    "generic_limavg",
    "crosscheck_simulation",
    "errors",
    "fixtures",
]
