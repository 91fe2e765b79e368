"""Budget-constrained parameter optimization of the escape-probability metric.

One family of decision variables (generation, inertia, damping or line
capacities) is searched over the simplex-with-box set {sum = budget,
lower <= theta <= upper}.  Candidates are kept feasible by Euclidean
projection after every mutation; lack of an admissible synchronous state is
encoded as a penalty value so the security-domain constraint never silently
disappears.  The search is differential evolution followed by a Nelder-Mead
polish, deterministic for a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.optimize

from .baselines import order_parameter, phase_cohesiveness
from .errors import CrepError, InfeasibleSpecError, NoFeasiblePointError
from .escape import DEFAULT_EPS, Analysis
from .network import Network

BUDGET_TOL = 1e-9


class ObjectiveKind(str, Enum):
    crep_phi = "crep_phi"
    crep_phi_delta = "crep_phi_delta"
    crep_phi_omega = "crep_phi_omega"
    trace_q_delta = "trace_q_delta"
    trace_q_omega = "trace_q_omega"
    max_sigma2_omega = "max_sigma2_omega"
    phase_cohesiveness = "phase_cohesiveness"
    order_parameter = "order_parameter"


#: objectives that are maximized rather than minimized
MAXIMIZED_KINDS = frozenset({ObjectiveKind.order_parameter})
CREP_KINDS = frozenset(
    {ObjectiveKind.crep_phi, ObjectiveKind.crep_phi_delta, ObjectiveKind.crep_phi_omega}
)
#: objectives that ignore inertia and damping entirely
_STATE_ONLY_KINDS = frozenset(
    {ObjectiveKind.phase_cohesiveness, ObjectiveKind.order_parameter}
)

DECISION_VARIABLES = ("generation", "inertia", "damping", "line_capacity")


@dataclass(frozen=True)
class DecisionSpec:
    """Which parameters are searched, their budget and their box bounds.

    ``indices`` are 1-based node indices (generation, inertia, damping) or
    1-based line indices (line_capacity); parameters outside ``indices`` stay
    at their network values.  The budget constrains the sum over ``indices``.
    """

    variable: str
    indices: tuple[int, ...]
    budget: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.variable not in DECISION_VARIABLES:
            raise InfeasibleSpecError(
                f"variable must be one of {DECISION_VARIABLES}, got {self.variable!r}"
            )
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        k = len(self.indices)
        if k == 0:
            raise InfeasibleSpecError("indices must not be empty")
        if len(set(self.indices)) != k:
            raise InfeasibleSpecError("indices must be distinct")
        if self.lower.shape != (k,) or self.upper.shape != (k,):
            raise InfeasibleSpecError("lower/upper must have one entry per index")
        if np.any(self.lower > self.upper):
            raise InfeasibleSpecError("lower bound exceeds upper bound")
        if not (
            self.lower.sum() - BUDGET_TOL <= self.budget <= self.upper.sum() + BUDGET_TOL
        ):
            raise InfeasibleSpecError(
                f"budget {self.budget} outside [sum(lower), sum(upper)] = "
                f"[{self.lower.sum()}, {self.upper.sum()}]"
            )

    @property
    def dim(self) -> int:
        return len(self.indices)


def validate_spec(net: Network, spec: DecisionSpec) -> None:
    """Check the spec against a concrete network; raises InfeasibleSpecError."""
    idx = np.array(spec.indices, dtype=int) - 1
    if spec.variable == "line_capacity":
        if np.any(idx < 0) or np.any(idx >= net.m):
            raise InfeasibleSpecError("line index out of range")
    else:
        if np.any(idx < 0) or np.any(idx >= net.n):
            raise InfeasibleSpecError("node index out of range")
    if spec.variable == "generation":
        if np.any(net.power[idx] <= 0.0):
            raise InfeasibleSpecError(
                "generation indices must point at generator nodes (power > 0)"
            )
        fixed = float(net.power.sum() - net.power[idx].sum())
        if abs(spec.budget + fixed) > BUDGET_TOL:
            raise InfeasibleSpecError(
                f"generation budget {spec.budget} does not balance the fixed "
                f"injections ({-fixed} required)"
            )
    elif np.any(spec.lower <= 0.0):
        raise InfeasibleSpecError(f"{spec.variable} lower bounds must be > 0")


def project_to_budget_box(
    x: np.ndarray, lower: np.ndarray, upper: np.ndarray, budget: float
) -> np.ndarray:
    """Euclidean projection of ``x`` onto {sum = budget, lower <= . <= upper}.

    The KKT conditions give theta = clip(x - tau, lower, upper) for a scalar
    tau found here by bisection; a final shift over the strictly-free
    components removes the bisection residual so the sum holds to roundoff.
    """
    x = np.asarray(x, dtype=float)
    total_low, total_high = float(lower.sum()), float(upper.sum())
    if not total_low - BUDGET_TOL <= budget <= total_high + BUDGET_TOL:
        raise InfeasibleSpecError("budget outside the box sum range")
    lo = float(np.min(x - upper)) - 1.0
    hi = float(np.max(x - lower)) + 1.0
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        s = float(np.clip(x - tau, lower, upper).sum())
        if s > budget:
            lo = tau
        else:
            hi = tau
        if hi - lo < 1e-15 * max(1.0, abs(hi), abs(lo)):
            break
    theta = np.clip(x - 0.5 * (lo + hi), lower, upper)
    free = (theta > lower) & (theta < upper)
    gap = budget - float(theta.sum())
    if np.any(free) and gap != 0.0:
        theta[free] += gap / int(np.count_nonzero(free))
        theta = np.clip(theta, lower, upper)
    return theta


def apply_decision(net: Network, spec: DecisionSpec, theta: np.ndarray) -> Network:
    """Network with the decision vector written into the selected parameters."""
    idx = np.array(spec.indices, dtype=int) - 1
    theta = np.asarray(theta, dtype=float)
    if spec.variable == "generation":
        power = net.power.copy()
        power[idx] = theta
        return net.with_arrays(power=power)
    if spec.variable == "inertia":
        inertia = net.inertia.copy()
        inertia[idx] = theta
        return net.with_arrays(inertia=inertia)
    if spec.variable == "damping":
        damping = net.damping.copy()
        damping[idx] = theta
        return net.with_arrays(damping=damping)
    capacity = net.capacity.copy()
    capacity[idx] = theta
    return net.with_arrays(capacity=capacity)


def current_values(net: Network, spec: DecisionSpec) -> np.ndarray:
    idx = np.array(spec.indices, dtype=int) - 1
    source = {
        "generation": net.power,
        "inertia": net.inertia,
        "damping": net.damping,
        "line_capacity": net.capacity,
    }[spec.variable]
    return source[idx].copy()


#: objective -> its natural value, read from the stages of a network's Analysis
#: that it needs (the state-only objectives never linearize)
_OBJECTIVES = {
    ObjectiveKind.crep_phi: lambda a: a.report.phi,
    ObjectiveKind.crep_phi_delta: lambda a: a.report.phi_delta,
    ObjectiveKind.crep_phi_omega: lambda a: a.report.phi_omega,
    ObjectiveKind.trace_q_delta: lambda a: float(np.sum(a.variance.sigma2_delta)),
    ObjectiveKind.trace_q_omega: lambda a: float(np.sum(a.variance.sigma2_omega)),
    ObjectiveKind.max_sigma2_omega: lambda a: float(np.max(a.variance.sigma2_omega)),
    ObjectiveKind.phase_cohesiveness: lambda a: phase_cohesiveness(a.state),
    ObjectiveKind.order_parameter: lambda a: order_parameter(a.state),
}


def _objective_value(net: Network, kind: ObjectiveKind, eps: float) -> float:
    """Natural objective value; raises CrepError when the state is inadmissible."""
    return _OBJECTIVES[ObjectiveKind(kind)](Analysis(net, eps))


def _penalty(kind: ObjectiveKind) -> float:
    """Value of a network without an admissible synchronous state."""
    return 1.0 if kind in CREP_KINDS else math.inf


def evaluate_objective(net: Network, kind: ObjectiveKind, eps: float = DEFAULT_EPS) -> float:
    """Scalar objective for a network; infeasibility is encoded in the value.

    Networks without an admissible synchronous state return the penalty 1
    for the escape-probability objectives (their natural ceiling) and +inf
    for all others, so the value is always usable inside a search.
    """
    kind = ObjectiveKind(kind)
    try:
        return _objective_value(net, kind, eps)
    except CrepError:
        return _penalty(kind)


@dataclass(frozen=True)
class SearchConfig:
    """Differential-evolution budget and hyperparameters."""

    seed: int = 0
    population: int | None = None  # default 15 * dim
    max_evals: int = 2000
    mutation: float = 0.7
    crossover: float = 0.9
    polish: bool = True
    polish_max_evals: int = 200


@dataclass(frozen=True)
class OptimizationResult:
    theta: np.ndarray
    objective_initial: float
    objective_final: float
    feasible: bool
    evaluations: int
    history: tuple[tuple[int, float], ...]


def _check_kind_allowed(spec: DecisionSpec, kind: ObjectiveKind) -> None:
    if kind in _STATE_ONLY_KINDS and spec.variable in ("inertia", "damping"):
        raise InfeasibleSpecError(
            f"objective {kind.value} is constant in {spec.variable}; "
            "it cannot configure these parameters"
        )


def optimize(
    net: Network,
    spec: DecisionSpec,
    kind: ObjectiveKind,
    eps: float = DEFAULT_EPS,
    search: SearchConfig | None = None,
) -> OptimizationResult:
    """Minimize (or maximize, for the order parameter) the objective over theta.

    Every candidate is projected onto the budget/box set before evaluation;
    the returned best-so-far history is monotone.  Raises
    :class:`NoFeasiblePointError` if no evaluated candidate admitted a
    synchronous state.
    """
    kind = ObjectiveKind(kind)
    search = search or SearchConfig()
    validate_spec(net, spec)
    _check_kind_allowed(spec, kind)
    maximize = kind in MAXIMIZED_KINDS
    lower, upper, budget = spec.lower, spec.upper, spec.budget
    dim = spec.dim

    evals = 0
    best: dict = {"score": math.inf, "feasible": False, "theta": None, "natural": math.inf}

    def evaluate(theta: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        try:
            natural = _objective_value(apply_decision(net, spec, theta), kind, eps)
            feasible = True
            score = -natural if maximize else natural
        except CrepError:
            natural = score = _penalty(kind)
            feasible = False
        key = (score, 0 if feasible else 1)
        if key < (best["score"], 0 if best["feasible"] else 1):
            best.update(score=score, feasible=feasible, theta=theta.copy(), natural=natural)
        return score

    start = project_to_budget_box(current_values(net, spec), lower, upper, budget)

    # degenerate box: the feasible set is a single point
    if np.array_equal(lower, upper):
        value = evaluate(lower)
        if not best["feasible"]:
            raise NoFeasiblePointError("the single feasible point admits no state")
        natural = -value if maximize else value
        return OptimizationResult(
            theta=lower.copy(),
            objective_initial=natural,
            objective_final=natural,
            feasible=True,
            evaluations=evals,
            history=((0, natural),),
        )

    rng = np.random.default_rng(search.seed)
    pop_size = search.population or max(4, 15 * dim)
    population = np.empty((pop_size, dim))
    population[0] = start
    population[1] = project_to_budget_box(
        np.full(dim, budget / dim), lower, upper, budget
    )
    for i in range(2, pop_size):
        population[i] = project_to_budget_box(
            rng.uniform(lower, upper), lower, upper, budget
        )
    scores = np.array([evaluate(population[i]) for i in range(pop_size)])
    if not math.isfinite(scores[0]):
        objective_initial = math.inf  # infeasible start keeps the sentinel value
    else:
        objective_initial = -scores[0] if maximize else scores[0]
    history = [(0, float(best["natural"]))]

    generation = 0
    while evals < search.max_evals:
        generation += 1
        for i in range(pop_size):
            if evals >= search.max_evals:
                break
            choices = rng.choice(pop_size - 1, size=3, replace=False)
            choices = np.where(choices >= i, choices + 1, choices)
            a, b, c = population[choices]
            mutant = a + search.mutation * (b - c)
            mask = rng.random(dim) < search.crossover
            mask[rng.integers(dim)] = True
            trial = np.where(mask, mutant, population[i])
            trial = project_to_budget_box(trial, lower, upper, budget)
            trial_score = evaluate(trial)
            if trial_score <= scores[i]:
                population[i] = trial
                scores[i] = trial_score
        history.append((generation, float(best["natural"])))

    if search.polish and best["theta"] is not None:
        remaining = search.max_evals + search.polish_max_evals - evals
        if remaining >= dim + 2:
            scipy.optimize.minimize(
                lambda x: evaluate(project_to_budget_box(x, lower, upper, budget)),
                best["theta"],
                method="Nelder-Mead",
                options={"maxfev": remaining, "xatol": 1e-10, "fatol": 1e-14},
            )
            history.append((generation + 1, float(best["natural"])))

    if not best["feasible"]:
        raise NoFeasiblePointError(
            "no evaluated candidate admitted an in-domain synchronous state"
        )
    return OptimizationResult(
        theta=best["theta"],
        objective_initial=float(objective_initial),
        objective_final=float(best["natural"]),
        feasible=True,
        evaluations=evals,
        history=tuple(history),
    )


def min_max_sigma_equivalence_check(
    net: Network,
    spec: DecisionSpec,
    n_samples: int = 50,
    eps: float = DEFAULT_EPS,
    seed: int = 0,
) -> bool:
    """Empirical check that the frequency escape norm orders like the variance norm.

    Samples feasible decision vectors, and for each compares the argmax
    component of the frequency escape probabilities against the argmax of the
    frequency variances; then compares the across-sample ordering of the two
    infinity norms.  Returns True iff all sampled pairs agree.
    """
    validate_spec(net, spec)
    rng = np.random.default_rng(seed)
    f_norms, s_norms = [], []
    for _ in range(n_samples):
        theta = project_to_budget_box(
            rng.uniform(spec.lower, spec.upper), spec.lower, spec.upper, spec.budget
        )
        analysis = Analysis(apply_decision(net, spec, theta), eps)
        try:
            sigma2, f_omega = analysis.variance.sigma2_omega, analysis.report.f_omega
        except CrepError:
            continue
        if int(np.argmax(f_omega)) != int(np.argmax(sigma2)):
            return False
        f_norms.append(float(np.max(f_omega)))
        s_norms.append(float(np.max(sigma2)))
    order_f = np.argsort(np.array(f_norms), kind="stable")
    order_s = np.argsort(np.array(s_norms), kind="stable")
    return bool(np.array_equal(order_f, order_s))
