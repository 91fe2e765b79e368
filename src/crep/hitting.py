"""Monte-Carlo estimation of the mean first hitting time to the critical set.

Trajectories of the nonlinear stochastic swing system start at the synchronous
state and are integrated by Euler-Maruyama until a monitored output component
leaves its critical interval or the horizon is reached.  Trajectories are
independent work items with per-trajectory seeded noise streams, so estimates
are bit-identical for a fixed master seed no matter how many workers run them
or how the samples are split into kernel batches.  A run uses about one batch
per worker, split further only when a batch's rows x nodes would exceed a
fixed memory cap.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import AllCensoredError
from .escape import DEFAULT_EPS
from .network import Network
from .powerflow import SynchronousState, solve_synchronous_state

EXIT_MODES = ("phase_only", "freq_only", "both")

#: two-sided 95% normal quantile
_Z95 = 1.959963984540054
#: upper bound on rows x nodes of one kernel batch (2 MiB per float64 array)
_BATCH_CELLS = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """Euler-Maruyama and monitoring parameters for hitting-time runs."""

    dt: float = 1e-3
    t_max: float = 1e5
    n_samples: int = 1000
    eps: float = DEFAULT_EPS
    master_seed: int = 0
    exit_mode: str = "both"

    def __post_init__(self):
        for name in ("dt", "t_max", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.t_max < self.dt:
            raise ValueError("t_max must be >= dt")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.eps < 0.0:
            raise ValueError("eps must be >= 0")
        if self.exit_mode not in EXIT_MODES:
            raise ValueError(f"exit_mode must be one of {EXIT_MODES}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_max / self.dt)))


@dataclass(frozen=True)
class TrajectoryOutcome:
    """First-exit result of a single trajectory; indices are 1-based."""

    exit_time: float | None
    exit_line: int | None
    exit_node: int | None

    @property
    def censored(self) -> bool:
        return self.exit_time is None


@dataclass(frozen=True)
class HittingTimeEstimate:
    """Censored Monte-Carlo estimate of the mean first hitting time.

    ``mean`` and the 95% confidence half-width are computed over exited
    trajectories only; censored trajectories are counted separately.
    ``half_width`` is NaN when fewer than two trajectories exited.
    """

    mean: float
    half_width: float
    n_exited: int
    n_censored: int
    exit_line_histogram: np.ndarray
    exit_node_histogram: np.ndarray


def _kernel_args(net: Network, state: SynchronousState, cfg: SimConfig):
    check_phase = cfg.exit_mode in ("phase_only", "both")
    check_freq = cfg.exit_mode in ("freq_only", "both")
    return dict(
        master_seed=cfg.master_seed,
        phase0=state.phase,
        n_steps=cfg.n_steps,
        dt=cfg.dt,
        power=net.power,
        inv_inertia=1.0 / net.inertia,
        damping=net.damping,
        noise_over_m=net.noise / net.inertia,
        line_from=net.line_from,
        line_to=net.line_to,
        capacity=net.capacity,
        check_phase=check_phase,
        check_freq=check_freq,
        eps=cfg.eps,
    )


def simulate_trajectory(
    net: Network,
    state: SynchronousState,
    cfg: SimConfig,
    trajectory_index: int,
    backend: str | None = None,
) -> TrajectoryOutcome:
    """Integrate one trajectory; returns its first-exit time and component."""
    backend = backend or _kernels.default_backend()
    args = _kernel_args(net, state, cfg)
    step, comp = _kernels.simulate_chunk(
        backend, trajectory_index, trajectory_index + 1, **args
    )
    if step[0] == 0:
        return TrajectoryOutcome(None, None, None)
    exit_time = float(step[0]) * cfg.dt
    if comp[0] < net.m:
        return TrajectoryOutcome(exit_time, int(comp[0]) + 1, None)
    return TrajectoryOutcome(exit_time, None, int(comp[0]) - net.m + 1)


def estimate_hitting_time(
    net: Network,
    cfg: SimConfig,
    n_workers: int = 1,
    backend: str | None = None,
    state: SynchronousState | None = None,
) -> HittingTimeEstimate:
    """Run ``cfg.n_samples`` trajectories and aggregate exit statistics.

    Raises :class:`AllCensoredError` when no trajectory exits before the
    horizon.  The result depends only on the network, the config and the
    backend, never on ``n_workers``.
    """
    if state is None:
        state = solve_synchronous_state(net)
    backend = backend or _kernels.default_backend()
    args = _kernel_args(net, state, cfg)

    total = cfg.n_samples
    n_batches = max(n_workers, -(-total * net.n // _BATCH_CELLS))
    size = -(-total // n_batches)
    bounds = [(lo, min(lo + size, total)) for lo in range(0, total, size)]
    exit_step = np.empty(total, dtype=np.int64)
    exit_comp = np.empty(total, dtype=np.int64)

    def run(span):
        lo, hi = span
        step, comp = _kernels.simulate_chunk(backend, lo, hi, **args)
        exit_step[lo:hi] = step
        exit_comp[lo:hi] = comp

    if n_workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run, bounds))
    else:
        for span in bounds:
            run(span)

    exited = exit_step > 0
    n_exited = int(np.count_nonzero(exited))
    n_censored = total - n_exited
    if n_exited == 0:
        raise AllCensoredError(
            f"no trajectory exited before t_max={cfg.t_max} (all {total} censored)"
        )
    times = exit_step[exited] * cfg.dt
    mean = float(np.mean(times))
    if n_exited >= 2:
        half_width = float(_Z95 * np.std(times, ddof=1) / math.sqrt(n_exited))
    else:
        half_width = float("nan")

    comps = exit_comp[exited]
    line_hist = np.bincount(comps[comps < net.m], minlength=net.m)[: net.m]
    node_hist = np.bincount(comps[comps >= net.m] - net.m, minlength=net.n)[: net.n]
    return HittingTimeEstimate(
        mean=mean,
        half_width=half_width,
        n_exited=n_exited,
        n_censored=n_censored,
        exit_line_histogram=line_hist,
        exit_node_histogram=node_hist,
    )
