"""Transient-stability toolkit for networked swing-equation systems.

Computes the critical escape probability of the stationary linearized
Gaussian output, validates it against Monte-Carlo first-hitting-time
simulation of the nonlinear stochastic dynamics, and optimizes system
parameters (generation, inertia, damping, line capacities) against it.
"""

from .baselines import (
    AddLine,
    BraessScenario,
    BraessVerdict,
    MetricsBundle,
    SetCapacity,
    braess_compare,
    gramian_h2_squared,
    linear_stability,
    metrics_bundle,
    order_parameter,
    phase_cohesiveness,
)
from .errors import (
    AllCensoredError,
    CrepError,
    DegenerateSystemError,
    InfeasibleSpecError,
    LyapunovSolveError,
    NetworkParseError,
    NetworkValidationError,
    NoConvergence,
    NoFeasiblePointError,
    OutOfDomain,
    SynchronousStateError,
)
from .escape import (
    DEFAULT_EPS,
    Analysis,
    CrepReport,
    crep,
    crep_from_moments,
    escape_prob_freq,
    escape_prob_line,
    smib_analytic,
    smib_network,
)
from .hitting import (
    HittingTimeEstimate,
    SimConfig,
    TrajectoryOutcome,
    estimate_hitting_time,
    simulate_trajectory,
)
from .linearize import (
    LinearizedModel,
    SpectralReduction,
    VarianceReport,
    build_linearization,
    solve_lyapunov,
    spectral_reduce,
)
from .network import (
    Line,
    Network,
    Node,
    load_network,
    network_from_arrays,
    network_from_dict,
    save_network,
)
from .optimizer import (
    DecisionSpec,
    ObjectiveKind,
    OptimizationResult,
    SearchConfig,
    apply_decision,
    evaluate_objective,
    min_max_sigma_equivalence_check,
    optimize,
    project_to_budget_box,
)
from .powerflow import (
    SynchronousState,
    solve_synchronous_state,
    synchronous_output,
)

__version__ = "0.1.0"
