"""Budget-constrained parameter optimization of the escape-probability metric.

One family of decision variables (generation, inertia, damping or line
capacities) is searched over the simplex-with-box set {sum = budget,
lower <= theta <= upper}.  Every candidate is projected onto it exactly by a
breakpoint search (budgets at the box-sum ends return the corners); lack of an
admissible synchronous state is encoded as a penalty value so the
security-domain constraint never silently disappears.  The search is
differential evolution (DE/rand/1/bin with deferred updates: each generation's
trials come from the previous population and are projected and scored as one
stack) and a Nelder-Mead polish that scores each step's candidate points as
one stack and counts only the points the method evaluates; it is
deterministic for a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import log_ndtr

from .baselines import cohesiveness, order_parameters
from .errors import (
    ConfigError,
    InfeasibleSpecError,
    NoFeasiblePointError,
    SynchronousStateError,
    require_int,
)
from .escape import DEFAULT_EPS, Analysis, stage_arrays
from .network import Network, check_rows, power_balanced
from .powerflow import _HALVINGS

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

    @classmethod
    def _missing_(cls, value):
        """An unknown kind raises :class:`ConfigError` naming the valid kinds."""
        kinds = tuple(kind.value for kind in cls)
        raise ConfigError(f"objective must be one of {kinds}, got {value!r}")


#: decision variables that the synchronous state does not depend on
_MACHINE_VARIABLES = frozenset({"inertia", "damping"})

#: the Network parameter arrays, which the stages read
_PARAMETERS = ("power", "inertia", "damping", "noise", "capacity")
#: decision variable -> the Network parameter array it writes
_DECISION_FIELDS = {
    "generation": "power",
    "inertia": "inertia",
    "damping": "damping",
    "line_capacity": "capacity",
}
DECISION_VARIABLES = tuple(_DECISION_FIELDS)


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
        for name in ("lower", "upper", "budget"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InfeasibleSpecError(f"{name} must be finite")
        if np.any(self.lower > self.upper):
            raise InfeasibleSpecError("lower bound exceeds upper bound")
        with np.errstate(over="ignore"):  # an infinite sum compares as it should
            low, high = self.lower.sum(), self.upper.sum()
        if not low - BUDGET_TOL <= self.budget <= high + BUDGET_TOL:
            raise InfeasibleSpecError(
                f"budget {self.budget} outside [sum(lower), sum(upper)] = [{low}, {high}]"
            )

    @property
    def dim(self) -> int:
        return len(self.indices)


def index_positions(net: Network, variable: str, indices) -> np.ndarray:
    """0-based positions of a decision's 1-based line or node ``indices``.

    Raises InfeasibleSpecError when an index names no line (line_capacity) or
    no node (the other variables) of ``net``.
    """
    kind, size = ("line", net.m) if variable == "line_capacity" else ("node", net.n)
    # compared as Python ints: an index past int64 is out of range, not an overflow
    if not all(1 <= i <= size for i in indices):
        raise InfeasibleSpecError(f"{kind} index out of range")
    return np.array(indices, dtype=int) - 1


def validate_spec(net: Network, spec: DecisionSpec) -> None:
    """Check the spec against a concrete network; raises InfeasibleSpecError."""
    idx = index_positions(net, spec.variable, spec.indices)
    if spec.variable == "generation":
        if np.any(net.power[idx] <= 0.0):
            raise InfeasibleSpecError(
                "generation indices must point at generator nodes (power > 0)"
            )
        fixed = float(net.power.sum() - net.power[idx].sum())
        others = np.delete(net.power, idx).tolist()
        if not power_balanced(spec.budget + fixed, [spec.budget, *others], net.n):
            raise InfeasibleSpecError(
                f"generation budget {spec.budget} does not balance the fixed "
                f"injections ({-fixed} required)"
            )
    elif np.any(spec.lower <= 0.0):
        raise InfeasibleSpecError(f"{spec.variable} lower bounds must be > 0")


@np.errstate(over="ignore")  # a sum beyond the float range is inf, handled below
def project_to_budget_box(
    x: np.ndarray, lower: np.ndarray, upper: np.ndarray, budget: float
) -> np.ndarray:
    """Euclidean projection of ``x`` onto {sum = budget, lower <= . <= upper}.

    ``x`` is one point or a (B, d) array of points, each projected on its
    own; a row gets the bits of the point projected alone.  The KKT
    conditions give theta = clip(x - tau, lower, upper) for a scalar tau.
    S(tau) = sum(theta) is continuous, piecewise linear and nonincreasing,
    with kinks at x - upper and x - lower: a bisection over the sorted kinks,
    run for every row at once, finds the segment where S crosses the budget,
    and there tau has a closed form; O(k log k) time and O(k) memory per
    point.  A budget at or beyond sum(lower) (sum(upper)), within
    BUDGET_TOL, returns lower (upper) exactly.
    """
    x, lower, upper = (np.asarray(a, dtype=float) for a in (x, lower, upper))
    total_low, total_high = float(lower.sum()), float(upper.sum())
    if not total_low - BUDGET_TOL <= budget <= total_high + BUDGET_TOL:
        raise InfeasibleSpecError("budget outside the box sum range")
    if budget <= total_low:
        return np.array(np.broadcast_to(lower, x.shape))
    if budget >= total_high:
        return np.array(np.broadcast_to(upper, x.shape))
    points = np.atleast_2d(x)
    rows = np.arange(len(points))
    enter, leave = points - upper, points - lower
    kinks = np.sort(np.concatenate((enter, leave), axis=1), axis=1)
    # S(kinks[:, 0]) = total_high > budget > total_low = S(kinks[:, -1]); keep
    # S(kinks[lo]) > budget >= S(kinks[hi]) while halving each row's range
    lo = np.zeros(len(points), dtype=np.intp)
    hi = np.full(len(points), kinks.shape[1] - 1)
    s_lo, s_hi = np.full(len(points), total_high), np.full(len(points), total_low)
    while (active := hi - lo > 1).any():
        mid = (lo + hi) // 2
        s = np.minimum(np.maximum(points - kinks[rows, mid][:, None], lower), upper).sum(axis=1)
        up, down = active & (s > budget), active & ~(s > budget)
        lo[up], s_lo[up] = mid[up], s[up]
        hi[down], s_hi[down] = mid[down], s[down]
    # no kink lies between kinks[lo] and kinks[hi]: S falls there with slope
    # -n_free, or is flat where roundoff brackets a budget with n_free = 0;
    # tau is measured from kinks[hi] only where S(kinks[lo]) overflowed
    kink_lo, kink_hi = kinks[rows, lo], kinks[rows, hi]
    n_free = np.count_nonzero((enter <= kink_lo[:, None]) & (leave >= kink_hi[:, None]), axis=1)
    tau = kink_lo.copy()
    below = (n_free > 0) & (s_lo < math.inf)
    tau[below] = kink_lo[below] + (s_lo[below] - budget) / n_free[below]
    beyond = (n_free > 0) & ~(s_lo < math.inf)
    tau[beyond] = kink_hi[beyond] - (budget - s_hi[beyond]) / n_free[beyond]
    return np.clip(points - tau[:, None], lower, upper).reshape(x.shape)


def apply_decision(net: Network, spec: DecisionSpec, theta: np.ndarray) -> Network:
    """Network with the decision vector written into the selected parameters."""
    idx = np.array(spec.indices, dtype=int) - 1
    field = _DECISION_FIELDS[spec.variable]
    updated = getattr(net, field).copy()
    updated[idx] = np.asarray(theta, dtype=float)
    return net.with_arrays(**{field: updated})


def current_values(net: Network, variable: str, indices) -> np.ndarray:
    """The network's values of a decision's 1-based ``indices``, as a new array.

    Raises InfeasibleSpecError as :func:`index_positions` does.
    """
    return getattr(net, _DECISION_FIELDS[variable])[index_positions(net, variable, indices)]


@dataclass(frozen=True)
class _Objective:
    """How one objective kind is read off the stage arrays of a stack.

    ``stage`` is the last stage of :func:`~crep.escape.stage_arrays` it reads
    (an objective that reads only the state ignores inertia and damping),
    ``read`` returns the natural values of the stack's rows from their stage
    arrays, with the bits each row's own network gives, ``penalty`` is the
    value of a network without an admissible synchronous state, and
    ``maximize`` says whether the search maximizes it.
    """

    stage: str
    read: Callable[[dict], np.ndarray]
    penalty: float = math.inf
    maximize: bool = False


def _phi_delta(stages: dict) -> np.ndarray:
    """Per row the largest line escape probability; 0 without lines."""
    return stages["f_delta"].max(axis=1, initial=0.0)


#: one row per objective; the escape probabilities are penalized at 1, their
#: natural ceiling
_OBJECTIVES = {
    ObjectiveKind.crep_phi: _Objective(
        "report", lambda s: np.maximum(_phi_delta(s), s["f_omega"].max(axis=1)), 1.0),
    ObjectiveKind.crep_phi_delta: _Objective("report", _phi_delta, 1.0),
    ObjectiveKind.crep_phi_omega: _Objective("report", lambda s: s["f_omega"].max(axis=1), 1.0),
    ObjectiveKind.trace_q_delta: _Objective("variance", lambda s: s["sigma2_delta"].sum(axis=1)),
    ObjectiveKind.trace_q_omega: _Objective("variance", lambda s: s["sigma2_omega"].sum(axis=1)),
    ObjectiveKind.max_sigma2_omega: _Objective(
        "variance", lambda s: s["sigma2_omega"].max(axis=1)),
    ObjectiveKind.phase_cohesiveness: _Objective("state", lambda s: cohesiveness(s["gaps"])),
    ObjectiveKind.order_parameter: _Objective(
        "state", lambda s: order_parameters(s["phase"]), maximize=True),
}


#: cap on the cells of one stack of candidates, counted per row as
#: (2n + m)^2 + 29 n: no matrix an analysis keeps is larger than (2n + m)^2,
#: and its power flow tries 29 halvings of n phases at once.  Each of the few
#: such arrays of a stack stays within 8 MiB at any network size; a ring5
#: generation is one stack
_STACK_CELLS = 1 << 20


def _candidate_rows(net: Network, spec: DecisionSpec, thetas) -> dict[str, np.ndarray]:
    """The parameter rows of ``net`` with each of the (B, k) ``thetas`` written into the decision.

    The decision's array is one (B, k) copy of ``net``'s with the thetas in
    its decision columns; every other array is ``net``'s, broadcast.  Raises
    what :func:`apply_decision` raises for the first theta, in order, that it
    rejects.
    """
    field = _DECISION_FIELDS[spec.variable]
    rows = {name: np.broadcast_to(getattr(net, name), (len(thetas), getattr(net, name).size))
            for name in _PARAMETERS}
    written = rows[field].copy()
    written[:, np.array(spec.indices) - 1] = thetas
    check_rows(net, field, written)
    rows[field] = written
    return rows


def _candidate_stages(base: Analysis, spec: DecisionSpec, thetas, through: str):
    """Stage arrays of ``base.net`` with each theta written into the decision, in order.

    Yields, per stack of thetas, what :func:`~crep.escape.stage_arrays`
    returns for it through ``through``, with the indices of its rows
    counted from the first theta.  The thetas are analysed in stacks of at
    most ``_STACK_CELLS`` cells (see there), and each stack is released
    before the next is built, so memory stays bounded for any count of
    thetas.  Inertia and damping candidates inherit the outcome of the base
    network's power flow, solved once on first use: its state, or its error,
    which each candidate's own power flow would raise with the same message.
    """
    state = None
    if spec.variable in _MACHINE_VARIABLES:
        try:
            state = base.state
        except SynchronousStateError as error:
            state = error
    net = base.net
    size = max(1, _STACK_CELLS // ((2 * net.n + net.m) ** 2 + _HALVINGS.size * net.n))
    for start in range(0, len(thetas), size):
        rows = _candidate_rows(net, spec, thetas[start:start + size])
        live, stages, errors = stage_arrays(net, rows, base.eps, through, state)
        yield start + live, stages, errors


def _candidate_values(base: Analysis, spec: DecisionSpec, thetas,
                      objective: _Objective) -> tuple[np.ndarray, list]:
    """Per theta, in order, its natural objective value and None, or the
    objective's penalty and the error of its stages."""
    naturals = np.full(len(thetas), objective.penalty)
    errors: list = []
    for live, stages, stack_errors in _candidate_stages(base, spec, thetas, objective.stage):
        if live.size:
            naturals[live] = objective.read(stages)
        errors += stack_errors
    return naturals, errors


def evaluate_objective(net: Network, kind: ObjectiveKind, eps: float = DEFAULT_EPS) -> float:
    """Scalar objective for a network; infeasibility is encoded in the value.

    Networks without an admissible synchronous state return the penalty 1
    for the escape-probability objectives (their natural ceiling) and +inf
    for all others, so the value is always usable inside a search.  This is
    the evaluation of one ``optimize`` candidate, on a stack of one.  Raises
    :class:`ConfigError` for an unknown ``kind``.
    """
    objective = _OBJECTIVES[ObjectiveKind(kind)]
    rows = {name: getattr(net, name)[None] for name in _PARAMETERS}
    live, stages, _ = stage_arrays(net, rows, eps, objective.stage)
    return float(objective.read(stages)[0]) if live.size else objective.penalty


#: DE population per dimension (at least 4), mutation, crossover; polish budget
DE_POPULATION_PER_DIM = 15
DE_MUTATION = 0.7
DE_CROSSOVER = 0.9
POLISH_MAX_EVALS = 200


@dataclass(frozen=True)
class SearchConfig:
    """Differential-evolution seed and budget, and whether to polish the best point.

    Raises :class:`ConfigError` unless ``seed`` is an int >= 0,
    ``max_evals`` an int >= 1 and ``polish`` a bool.
    """

    seed: int = 0
    max_evals: int = 2000
    polish: bool = True

    def __post_init__(self):
        require_int(self.seed, "seed", 0)
        require_int(self.max_evals, "max_evals", 1)
        if not isinstance(self.polish, bool):
            raise ConfigError(f"polish must be a bool, got {self.polish!r}")


@dataclass(frozen=True)
class OptimizationResult:
    theta: np.ndarray
    objective_initial: float
    objective_final: float
    feasible: bool
    evaluations: int
    history: tuple[tuple[int, float], ...]


def _check_kind_allowed(spec: DecisionSpec, kind: ObjectiveKind) -> None:
    if _OBJECTIVES[kind].stage == "state" and spec.variable in _MACHINE_VARIABLES:
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

    Every candidate is projected onto the budget/box set before evaluation.
    The returned best-so-far history is monotone, with one entry for the
    initial population, one per DE generation and one after the polish.  Raises
    :class:`NoFeasiblePointError` if no evaluated candidate was feasible (its
    message names the first failure past the synchronous state, if any), and
    :class:`ConfigError` for an unknown ``kind``.
    """
    kind = ObjectiveKind(kind)
    search = search or SearchConfig()
    validate_spec(net, spec)
    _check_kind_allowed(spec, kind)
    base = Analysis(net, eps)
    objective = _OBJECTIVES[kind]
    maximize = objective.maximize
    lower, upper, budget = spec.lower, spec.upper, spec.budget
    dim = spec.dim

    evals = 0
    best: dict = {"score": math.inf, "feasible": False, "theta": None, "natural": math.inf}
    failure = None  # the first committed error of a stage past the state

    def score(thetas: np.ndarray) -> list:
        """Per candidate of a stack, in order, its (theta, score, natural value, error).

        Scoring has no side effect: a candidate counts only once committed.
        """
        naturals, errors = _candidate_values(base, spec, thetas, objective)
        values = naturals
        if maximize:  # a penalty stays what it is
            values = np.where([error is None for error in errors], -naturals, naturals)
        return list(zip(thetas, values.tolist(), naturals.tolist(), errors))

    def commit(outcome) -> float:
        """Count one scored candidate and keep it if it is the best so far; its score."""
        nonlocal evals, failure
        theta, value, natural, error = outcome
        evals += 1
        feasible = error is None
        if failure is None and not feasible and not isinstance(error, SynchronousStateError):
            failure = error
        if (value, 0 if feasible else 1) < (best["score"], 0 if best["feasible"] else 1):
            best.update(score=value, feasible=feasible, theta=theta.copy(), natural=natural)
        return value

    def evaluate(thetas: np.ndarray) -> np.ndarray:
        """Scores of a stack of candidates, committed in stack order."""
        return np.array([commit(outcome) for outcome in score(thetas)])

    # degenerate box: the feasible set is a single point
    if np.array_equal(lower, upper):
        (value,) = evaluate(lower[None])
        if not best["feasible"]:
            raise _no_feasible_point(failure, "the single feasible point admits no state",
                                     "the single feasible point")
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
    pop_size = max(4, DE_POPULATION_PER_DIM * dim)
    starts = (current_values(net, spec.variable, spec.indices), np.full(dim, budget / dim))
    draws = rng.uniform(lower, upper, size=(pop_size - len(starts), dim))
    population = project_to_budget_box(np.vstack((*starts, draws)), lower, upper, budget)
    scores = evaluate(population)
    if not math.isfinite(scores[0]):
        objective_initial = math.inf  # infeasible start keeps the sentinel value
    else:
        objective_initial = -scores[0] if maximize else scores[0]
    history = [(0, float(best["natural"]))]

    # deferred DE/rand/1/bin: every trial of a generation is built from the
    # previous population and the generation is scored as one stack
    generation = 0
    while evals < search.max_evals:
        generation += 1
        count = min(pop_size, search.max_evals - evals)
        picks = np.empty((count, 3), dtype=np.intp)
        mask = np.empty((count, dim), dtype=bool)
        for i in range(count):
            picks[i] = rng.choice(pop_size - 1, size=3, replace=False)
            mask[i] = rng.random(dim) < DE_CROSSOVER
            mask[i, rng.integers(dim)] = True
        picks += picks >= np.arange(count)[:, None]  # skip the target member
        a, b, c = population[picks].transpose(1, 0, 2)
        mutants = np.where(mask, a + DE_MUTATION * (b - c), population[:count])
        trials = project_to_budget_box(mutants, lower, upper, budget)
        trial_scores = evaluate(trials)
        won = np.flatnonzero(trial_scores <= scores[: len(trials)])
        population[won] = trials[won]
        scores[won] = trial_scores[won]
        history.append((generation, float(best["natural"])))

    if search.polish and best["theta"] is not None:
        remaining = search.max_evals + POLISH_MAX_EVALS - evals
        if remaining >= dim + 2:
            # the simplex moves in R^dim; each stack of its points is
            # projected once, and a committed point counts as its projection
            _nelder_mead(
                lambda points: score(project_to_budget_box(points, lower, upper, budget)),
                commit, best["theta"], remaining)
            history.append((generation + 1, float(best["natural"])))

    if not best["feasible"]:
        raise _no_feasible_point(
            failure, "no evaluated candidate admitted an in-domain synchronous state",
            "no evaluated candidate was feasible; the first with a state")
    return OptimizationResult(
        theta=best["theta"],
        objective_initial=float(objective_initial),
        objective_final=float(best["natural"]),
        feasible=True,
        evaluations=evals,
        history=tuple(history),
    )


def _no_feasible_point(failure, no_state: str, failed: str) -> NoFeasiblePointError:
    """The error of candidates none of which was feasible.

    ``no_state`` is its text when every candidate lacked a synchronous state
    (``failure`` None); otherwise ``failure``, the first error of a later
    stage, is named after ``failed``.
    """
    if failure is None:
        return NoFeasiblePointError(no_state)
    return NoFeasiblePointError(f"{failed} failed with {type(failure).__name__}: {failure}")


#: Nelder-Mead's stopping tolerances on the simplex's spread in x and in f
_NM_XATOL = 1e-10
_NM_FATOL = 1e-14


class _Exhausted(Exception):
    """Nelder-Mead has committed its last allowed evaluation."""


def _by_value(sim: np.ndarray, fsim: np.ndarray):
    """Simplex vertices and their values, sorted by value as scipy sorts them."""
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(score: Callable, commit: Callable, x0: np.ndarray, maxfev: int) -> None:
    """Nelder-Mead minimization from ``x0`` (Nelder & Mead 1965), in stacks.

    ``score(points)`` maps a (B, N) array of points to one outcome per row,
    without side effects; ``commit(outcome)`` counts that point's evaluation
    and returns its value.  The method is that of
    ``scipy.optimize.minimize(method="Nelder-Mead")`` with ``xatol``
    :data:`_NM_XATOL` and ``fatol`` :data:`_NM_FATOL`, step for step: its
    initial simplex, its coefficients (reflection 1, expansion 2, contraction
    and shrink 1/2), its sort and stopping test, and its stop after exactly
    ``maxfev`` evaluations, also inside an iteration.  The points one
    iteration may need (reflection, expansion, outside and inside
    contraction) are scored as one stack, and so are the initial simplex and
    a shrink; only the points scipy evaluates are committed, in its order.
    """
    calls = 0

    def call(outcome) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return commit(outcome)

    # scipy's initial simplex: x0, and x0 with one coordinate moved by 5 %
    # (set to 0.00025 where it is 0)
    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * sim[0, k] if sim[0, k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k, outcome in enumerate(score(sim)):
            fsim[k] = call(outcome)
    except _Exhausted:
        pass
    sim, fsim = _by_value(sim, fsim)
    sim, fsim = _by_value(sim, fsim)  # scipy sorts twice; argsort may move ties

    while calls < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _NM_XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _NM_FATOL):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            worst = sim[-1]
            # reflection, expansion, outside and inside contraction, each
            # with scipy's operations and so with its bits
            points = np.array([2 * xbar - worst, 3 * xbar - 2 * worst,
                               1.5 * xbar - 0.5 * worst, 0.5 * xbar + 0.5 * worst])
            outcomes = score(points)
            fxr = call(outcomes[0])
            shrink = False
            if fxr < fsim[0]:
                fxe = call(outcomes[1])
                sim[-1], fsim[-1] = (points[1], fxe) if fxe < fxr else (points[0], fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = points[0], fxr
            elif fxr < fsim[-1]:
                fxc = call(outcomes[2])
                if fxc <= fxr:
                    sim[-1], fsim[-1] = points[2], fxc
                else:
                    shrink = True
            else:
                fxcc = call(outcomes[3])
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = points[3], fxcc
                else:
                    shrink = True
            if shrink:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                for k, outcome in enumerate(score(sim[1:]), 1):
                    fsim[k] = call(outcome)
        except _Exhausted:
            pass
        sim, fsim = _by_value(sim, fsim)


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

    Raises :class:`ConfigError` unless ``n_samples`` is an int >= 1 and ``seed``
    an int >= 0, and :class:`NoFeasiblePointError` if no sample is feasible.
    """
    require_int(n_samples, "n_samples", 1)
    require_int(seed, "seed", 0)
    validate_spec(net, spec)
    base = Analysis(net, eps)
    rng = np.random.default_rng(seed)
    draws = rng.uniform(spec.lower, spec.upper, size=(n_samples, spec.dim))
    thetas = project_to_budget_box(draws, spec.lower, spec.upper, spec.budget)
    log_norms, s_norms = [], []
    failure = None  # the first error of a stage past the state
    for live, stages, errors in _candidate_stages(base, spec, thetas, "variance"):
        if failure is None:
            failure = next((error for error in errors if error is not None
                            and not isinstance(error, SynchronousStateError)), None)
        if not live.size:
            continue
        sigma2 = stages["sigma2_omega"]
        # f_omega is erfc(eps / (sigma sqrt 2)) = 2 ndtr(-eps / sigma); its
        # logarithm ranks the tails alike and does not underflow to 0
        with np.errstate(divide="ignore"):
            log_tails = log_ndtr(-eps / np.sqrt(sigma2))
        if not np.array_equal(np.argmax(log_tails, axis=1), np.argmax(sigma2, axis=1)):
            return False
        log_norms.append(np.max(log_tails, axis=1))
        s_norms.append(np.max(sigma2, axis=1))
    if not log_norms:
        raise _no_feasible_point(
            failure, "no sampled candidate admitted an in-domain synchronous state",
            "no sampled candidate was feasible; the first with a state")
    order_f = np.argsort(np.concatenate(log_norms), kind="stable")
    order_s = np.argsort(np.concatenate(s_norms), kind="stable")
    return bool(np.array_equal(order_f, order_s))
