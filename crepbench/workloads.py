"""The benchmark's three workloads: inputs, one round of operations, checks.

Every workload builds its inputs from the ``--seed`` argument alone and hands
crep only those inputs, through crep's public API.  A workload class has:

* ``name`` and ``work_unit``, and ``work()``, the units of work in a round;
* ``warm()``, one call that loads what the timed rounds use;
* ``operations()``, the round: a list of calls, each one operation;
* ``check(outputs)``, a ``Verdict`` on one round's outputs.

The runner repeats whole rounds, and every round of one run does the same
work.  crep functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import reference
import crep
import crep.cli

ROOT = Path(__file__).resolve().parent.parent

# -- hitting-ring5 ---------------------------------------------------------------

#: ring5 line capacities minimizing phi_delta: criterion 09's search
#: (``optimize`` on line_capacity, budget 5, box [0.2, 3], crep_phi_delta,
#: SearchConfig(seed=1, max_evals=1200)), written out so that the input does
#: not change when the optimizer does.
OPTIMIZED_RING5_CAPACITY = (
    1.0548213804548636,
    0.2,
    0.42501441388496536,
    1.1217565918548216,
    2.1984076138053497,
)
HITTING_SAMPLES = 1000
HITTING_WORKERS = 2
#: short enough that every kernel batch of both networks holds censored
#: trajectories, so a batch always runs the full horizon
HITTING_T_MAX = 20.0
HITTING_DT = 1e-3
HITTING_EPS = 0.02
#: the first trajectories of each network replayed by the reference stepper;
#: the first censored one among the first LATE_SCAN (else the latest exit)
#: is replayed as well
CHECKED_TRAJECTORIES = 2
LATE_SCAN = 64

# -- sweep-grid -----------------------------------------------------------------

#: grids swept per round; averaging two grids halves the round-time spread
#: that one grid's eigen- and Lyapunov-solver iteration counts add per seed
GRIDS = 2
GRID_NODES = 200
GRID_CHORDS = 100
#: mean noise-to-damping ratio b_i^2 / d_i; each node draws 0.5x..2x of it
GRID_ETA = 0.05
#: sweep points as multiples of the grid's feasibility boundary (in total
#: capacity): three below it, six above
SWEEP_FRACTIONS = (0.5, 0.65, 0.8, 1.15, 1.35, 1.6, 1.9, 2.3, 2.8)
#: feasible points of each grid whose variances are checked against the
#: reference Lyapunov solve: the most and the least loaded
VARIANCE_CHECKED = (0, -1)

# -- optimize-ring5 --------------------------------------------------------------

OPT_DE_SEEDS = 8
OPT_MAX_EVALS = 1200
OPT_BUDGET = 5.0
OPT_LOWER = 0.2
OPT_UPPER = 3.0
OPT_KINDS = ("crep_phi_delta", "trace_q_delta")


def grid_of(net) -> reference.Grid:
    """The reference code's view of a crep network (plain arrays)."""
    return reference.Grid(
        power=np.array(net.power),
        inertia=np.array(net.inertia),
        damping=np.array(net.damping),
        noise=np.array(net.noise),
        line_from=np.array(net.line_from),
        line_to=np.array(net.line_to),
        capacity=np.array(net.capacity),
    )


def ring5():
    return crep.load_network(ROOT / "demo" / "ring5.json")


@dataclass
class Verdict:
    """Outcome of one round's checks: messages per failed operation and per claim."""

    failed: dict[int, list[str]] = field(default_factory=dict)
    claims: list[str] = field(default_factory=list)

    def fail(self, op: int, problems: list[str]) -> None:
        if problems:
            self.failed.setdefault(op, []).extend(problems)


def raised(output) -> list[str]:
    if isinstance(output, BaseException):
        return [f"raised {type(output).__name__}: {output}"]
    return []


def same_output(a, b) -> bool:
    """Outputs of two rounds are identical (arrays compared bit for bit)."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return pickle.dumps(a) == pickle.dumps(b)


class HittingRing5:
    name = "hitting-ring5"
    work_unit = "trajectories"

    def __init__(self, seed: int):
        base = ring5()
        self.nets = (base, base.with_arrays(capacity=np.array(OPTIMIZED_RING5_CAPACITY)))
        self.cfg = crep.SimConfig(
            dt=HITTING_DT,
            t_max=HITTING_T_MAX,
            n_samples=HITTING_SAMPLES,
            eps=HITTING_EPS,
            master_seed=seed,
            exit_mode="phase_only",
        )

    def warm(self) -> None:
        short = replace(self.cfg, t_max=10 * self.cfg.dt)
        for net in self.nets:
            crep.simulate_trajectory(net, crep.solve_synchronous_state(net), short, 0)

    def operations(self) -> list:
        return [
            lambda net=net: crep.estimate_hitting_time(net, self.cfg, n_workers=HITTING_WORKERS)
            for net in self.nets
        ]

    def work(self) -> int:
        return len(self.nets) * self.cfg.n_samples

    def replays(self, net, phase0) -> dict[int, tuple[int, int]]:
        """Reference (exit_step, component) of the trajectories to compare.

        These are the first CHECKED_TRAJECTORIES, plus a late one: the first
        censored trajectory among the first LATE_SCAN, else the latest exit.
        """
        cfg = self.cfg
        grid = grid_of(net)

        def replay(index):
            return reference.exit_step(grid, phase0, cfg.dt, cfg.n_steps, cfg.eps,
                                       cfg.exit_mode, cfg.master_seed, index)

        chosen = {index: replay(index) for index in range(CHECKED_TRAJECTORIES)}
        late, late_step = None, -1
        for index in range(LATE_SCAN):
            step, _ = chosen.get(index) or replay(index)
            if step == 0:
                late = index
                break
            if step > late_step:
                late, late_step = index, step
        if late not in chosen:
            chosen[late] = replay(late)
        return chosen

    def check(self, outputs: list) -> Verdict:
        verdict = Verdict()
        cfg = self.cfg
        for op, (net, est) in enumerate(zip(self.nets, outputs)):
            problems = raised(est)
            if not problems:
                problems = checks.estimate_counts(est, cfg.n_samples, net.m, net.n)
                state = crep.solve_synchronous_state(net)
                replay = self.replays(net, state.phase)
                program = []
                for index in replay:
                    out = crep.simulate_trajectory(net, state, cfg, index)
                    program.append((out.exit_time, out.exit_line, out.exit_node))
                problems += checks.trajectories(program, list(replay.values()), cfg.dt, net.m)
            verdict.fail(op, problems)
        if not verdict.failed:
            verdict.claims += checks.optimized_exits_later(outputs[0], outputs[1])
        return verdict


def ring_with_chords(seed):
    """Seeded ring of GRID_NODES nodes plus GRID_CHORDS random chords.

    ``seed`` is anything ``numpy.random.default_rng`` takes.

    Injections are uniform in [-1, 1] and balanced, inertia in [0.5, 2],
    damping in [0.5, 1.5], capacities in [1, 3]; each node's noise is set so
    that its noise-to-damping ratio is GRID_ETA times a factor in [0.5, 2].
    """
    rng = np.random.default_rng(seed)
    n = GRID_NODES
    lines = [(i, (i + 1) % n) for i in range(n)]
    taken = {frozenset(pair) for pair in lines}
    while len(lines) < n + GRID_CHORDS:
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a == b or frozenset((a, b)) in taken:
            continue
        taken.add(frozenset((a, b)))
        lines.append((a, b))
    power = rng.uniform(-1.0, 1.0, n)
    power -= power.mean()
    inertia = rng.uniform(0.5, 2.0, n)
    damping = rng.uniform(0.5, 1.5, n)
    eta = GRID_ETA * rng.uniform(0.5, 2.0, n)
    capacity = rng.uniform(1.0, 3.0, len(lines))
    return crep.network_from_arrays(
        power, inertia, damping, np.sqrt(eta * damping),
        [(a + 1, b + 1, c) for (a, b), c in zip(lines, capacity)],
    )


def feasibility_boundary(grid: reference.Grid, steps: int = 12) -> float:
    """Smallest capacity scale (to 2^-steps) with an in-domain reference state."""

    def feasible(scale: float) -> bool:
        try:
            reference.power_flow(replace(grid, capacity=grid.capacity * scale))
        except (ValueError, np.linalg.LinAlgError):
            return False
        return True

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return hi


def sweep_point(net, total: float):
    """One point of ``crep sweep --param Lt``: None where no admissible state."""
    scaled = crep.cli.scale_network(net, "Lt", total)
    try:
        return crep.metrics_bundle(scaled)
    except (crep.SynchronousStateError, crep.DegenerateSystemError, crep.LyapunovSolveError):
        return None


class SweepGrid:
    name = "sweep-grid"
    work_unit = "points"

    def __init__(self, seed: int):
        #: (grid index, network, total capacity) of each sweep point
        self.points = []
        for k in range(GRIDS):
            net = ring_with_chords([seed, k])
            boundary = feasibility_boundary(grid_of(net))
            total = float(net.capacity.sum())
            self.points += [(k, net, total * boundary * f) for f in SWEEP_FRACTIONS]

    def warm(self) -> None:
        _, net, total = self.points[-1]
        sweep_point(net, total)

    def operations(self) -> list:
        return [
            lambda net=net, total=total: sweep_point(net, total)
            for _, net, total in self.points
        ]

    def work(self) -> int:
        return len(self.points)

    def check(self, outputs: list) -> Verdict:
        verdict = Verdict()
        variance_ops = set()
        for k in range(GRIDS):
            ops = [op for op, point in enumerate(self.points) if point[0] == k]
            feasible = [op for op in ops if outputs[op] is not None]
            if not feasible or len(feasible) == len(ops):
                verdict.claims.append(
                    f"grid {k}: the sweep should cross the feasibility boundary; "
                    f"{len(feasible)} of {len(ops)} points are feasible"
                )
            variance_ops |= {feasible[i] for i in VARIANCE_CHECKED} if feasible else set()
        for op, ((_, net, total), bundle) in enumerate(zip(self.points, outputs)):
            problems = raised(bundle)
            if problems or bundle is None:
                verdict.fail(op, problems)
                continue
            scaled = crep.cli.scale_network(net, "Lt", total)
            grid = grid_of(scaled)
            state = crep.solve_synchronous_state(scaled)
            phase = np.array(state.phase)
            problems = checks.power_flow(grid, phase, bundle.cohesiveness)
            if not problems:
                eta = grid.noise**2 / grid.damping
                problems = checks.escape_bounds(
                    bundle.crep.f_delta,
                    phase[grid.line_from] - phase[grid.line_to],
                    reference.effective_resistances(grid, phase),
                    float(eta.min()),
                    float(eta.max()),
                )
            if not problems and op in variance_ops:
                model = crep.build_linearization(scaled, state)
                variance = crep.solve_lyapunov(crep.spectral_reduce(model, scaled))
                problems = checks.variances(
                    variance.sigma2_delta,
                    variance.sigma2_omega,
                    *reference.stationary_variances(grid, phase),
                )
                problems += checks.bundle_traces(
                    bundle.trace_q_delta, bundle.trace_q_omega,
                    variance.sigma2_delta, variance.sigma2_omega,
                )
            verdict.fail(op, problems)
        return verdict


class OptimizeRing5:
    name = "optimize-ring5"
    work_unit = "searches"

    def __init__(self, seed: int):
        self.net = ring5()
        k = self.net.m
        self.spec = crep.DecisionSpec(
            "line_capacity", tuple(range(1, k + 1)), OPT_BUDGET,
            np.full(k, OPT_LOWER), np.full(k, OPT_UPPER),
        )
        rng = np.random.default_rng(seed)
        self.de_seeds = [int(s) for s in rng.integers(0, 2**31, size=OPT_DE_SEEDS)]
        self.runs = [(s, kind) for s in self.de_seeds for kind in OPT_KINDS]

    def warm(self) -> None:
        for kind in OPT_KINDS:
            crep.evaluate_objective(self.net, crep.ObjectiveKind(kind))

    def operations(self) -> list:
        return [
            lambda s=s, kind=kind: crep.optimize(
                self.net, self.spec, crep.ObjectiveKind(kind),
                search=crep.SearchConfig(seed=s, max_evals=OPT_MAX_EVALS),
            )
            for s, kind in self.runs
        ]

    def work(self) -> int:
        return len(self.runs)

    def objective(self, theta, kind: str) -> float:
        """Reference value of ``kind`` with ``theta`` as the line capacities."""
        grid = grid_of(self.net)
        grid = replace(grid, capacity=np.asarray(theta, dtype=float))
        phase = reference.power_flow(grid)
        sigma2_delta, _ = reference.stationary_variances(grid, phase)
        if kind == "trace_q_delta":
            return float(np.sum(sigma2_delta))
        gaps = phase[grid.line_from] - phase[grid.line_to]
        return float(np.max(reference.escape_line(gaps, sigma2_delta)))

    def check(self, outputs: list) -> Verdict:
        verdict = Verdict()
        uniform = np.full(self.spec.dim, self.spec.budget / self.spec.dim)
        phi_delta = {}
        for op, ((s, kind), result) in enumerate(zip(self.runs, outputs)):
            problems = raised(result)
            if not problems:
                problems = checks.search(
                    result,
                    self.spec.lower,
                    self.spec.upper,
                    self.spec.budget,
                    uniform_value=self.objective(uniform, kind),
                    reference_value=self.objective(result.theta, kind),
                )
            if not problems:
                phi_delta[s, kind] = self.objective(result.theta, "crep_phi_delta")
            verdict.fail(op, problems)
        for s in self.de_seeds:
            if (s, "crep_phi_delta") in phi_delta and (s, "trace_q_delta") in phi_delta:
                verdict.claims += checks.crep_beats_variance(
                    phi_delta[s, "crep_phi_delta"], phi_delta[s, "trace_q_delta"]
                )
        return verdict


WORKLOADS = {cls.name: cls for cls in (HittingRing5, SweepGrid, OptimizeRing5)}
