"""Monte-Carlo estimation of the mean first hitting time to the critical set.

Trajectories of the nonlinear stochastic swing system start at the synchronous
state and are integrated by Euler-Maruyama until a monitored output component
leaves its critical interval or the horizon is reached.  Trajectories are
independent work items with per-trajectory seeded noise streams, so estimates
are bit-identical for a fixed master seed no matter how many workers run them
or how the samples are split into kernel batches.  ``n_workers`` is an upper
bound: a run makes one batch per worker the machine's usable CPUs allow,
split further only when a batch's rows x nodes would exceed a fixed memory
cap, and runs them in as many processes as its rows x nodes x steps pay for:
the calling process runs its share of the batches and worker processes the
rest, since a kernel step is some 20 numpy calls that hold the GIL and
threads cannot run two batches at once.
"""
from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import AllCensoredError, ConfigError, require_int, require_real
from .escape import DEFAULT_EPS
from .network import Network
from .powerflow import HALF_PI, SynchronousState, solve_synchronous_state

EXIT_MODES = ("phase_only", "freq_only", "both")

#: two-sided 95% normal quantile
_Z95 = 1.959963984540054
#: upper bound on trajectories x nodes of one kernel batch; its float64 state
#: array holds 2n + m rows per trajectory, (2 + m/n) x 2 MiB at most
_BATCH_CELLS = 1 << 18
#: trajectories x nodes x steps a run needs per process before another pays:
#: a worker costs a fork, a pickled Network and a pool shutdown, some 8.5 ms
#: in all on 2 cores, and exits shrink a batch as it runs, so two processes
#: lost or tied below about 5e5 in all and won from about 1e6 (ring5 and a
#: 200-node grid, 2 batches)
_PROCESS_WORK = 1 << 18
#: most trajectories one run takes: a run holds every trajectory's exit step
#: and component until it aggregates them, 25 bytes per trajectory at its
#: peak (measured with tracemalloc on ring5 at 2**22 and 2**23 one-step
#: trajectories, all exiting), so this many hold about 1.7 GB; more would
#: exhaust memory rather than start
MAX_SAMPLES = 1 << 26


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
            value = getattr(self, name)
            require_real(value, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ConfigError("dt must be > 0")
        if self.t_max < self.dt:
            raise ConfigError("t_max must be >= dt")
        # the kernel keeps exit steps in int64
        if self.t_max / self.dt >= 2**63:
            raise ConfigError(f"t_max / dt must be < 2**63, got {self.t_max / self.dt!r}")
        require_int(self.n_samples, "n_samples", 1)
        if self.n_samples > MAX_SAMPLES:
            raise ConfigError(
                f"n_samples must be at most MAX_SAMPLES = {MAX_SAMPLES}, got {self.n_samples}"
            )
        require_int(self.master_seed, "master_seed", 0)
        if self.master_seed >= 2**64:
            raise ConfigError(f"master_seed must be < 2**64, got {self.master_seed!r}")
        if self.eps < 0.0:
            raise ConfigError("eps must be >= 0")
        if self.exit_mode not in EXIT_MODES:
            raise ConfigError(f"exit_mode must be one of {EXIT_MODES}")

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

    ``mean_mle`` counts the censored trajectories too: it is the maximum
    likelihood mean of an exponential exit time censored at the horizon T,
    (sum of exit times + n_censored * T) / n_exited, with T = n_steps * dt
    the simulated horizon.  It equals ``mean`` when nothing is censored, and
    ``mean`` underestimates the mean exit time when much is.
    ``censored_fraction`` is n_censored / n_samples.  Both are filled by
    :func:`estimate_hitting_time`.
    """

    mean: float
    half_width: float
    n_exited: int
    n_censored: int
    exit_line_histogram: np.ndarray
    exit_node_histogram: np.ndarray
    mean_mle: float = math.nan
    censored_fraction: float = math.nan


def exit_limits(net: Network, cfg: SimConfig) -> np.ndarray:
    """Exit limit of each output component, the m line gaps then the n node frequencies.

    pi/2 on the lines and ``cfg.eps`` on the nodes that ``cfg.exit_mode``
    monitors, inf on the others.
    """
    limit = np.full(net.m + net.n, math.inf)
    if cfg.exit_mode != "freq_only":
        limit[:net.m] = HALF_PI
    if cfg.exit_mode != "phase_only":
        limit[net.m:] = cfg.eps
    return limit


def simulate_trajectory(
    net: Network,
    state: SynchronousState,
    cfg: SimConfig,
    trajectory_index: int,
) -> TrajectoryOutcome:
    """Integrate one trajectory; returns its first-exit time and component."""
    require_int(trajectory_index, "trajectory_index", 0)
    if trajectory_index >= 2**64:
        raise ConfigError(f"trajectory_index must be < 2**64, got {trajectory_index!r}")
    step, comp = _kernels.simulate_chunk(
        trajectory_index, trajectory_index + 1, net, state.phase, exit_limits(net, cfg),
        cfg.master_seed, n_steps=cfg.n_steps, dt=cfg.dt,
    )
    if step[0] == 0:
        return TrajectoryOutcome(None, None, None)
    exit_time = float(step[0]) * cfg.dt
    if comp[0] < net.m:
        return TrajectoryOutcome(exit_time, int(comp[0]) + 1, None)
    return TrajectoryOutcome(exit_time, None, int(comp[0]) - net.m + 1)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate(span, net, phase0, limit, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Run the kernel batch ``span`` = (lo, hi); a worker process's task."""
    lo, hi = span
    return _kernels.simulate_chunk(
        lo, hi, net, phase0, limit, cfg.master_seed, n_steps=cfg.n_steps, dt=cfg.dt
    )


def estimate_hitting_time(
    net: Network, cfg: SimConfig, n_workers: int = 1
) -> HittingTimeEstimate:
    """Run ``cfg.n_samples`` trajectories and aggregate exit statistics.

    Raises :class:`ConfigError` unless ``n_workers`` is an int >= 1, and
    :class:`AllCensoredError` when no trajectory exits before the horizon.
    The result depends only on the network and the config, never on
    ``n_workers``, which is an upper bound on the processes that run the
    batches: a run uses at most one per usable CPU and one per
    ``_PROCESS_WORK`` trajectories x nodes x steps.  The calling process runs
    its share of the batches, and worker processes, started and joined within
    the call, run the rest; with one process, or when the caller is a daemon
    that may not start processes, every batch runs in the calling process.
    """
    require_int(n_workers, "n_workers", 1)
    phase0, limit = solve_synchronous_state(net).phase, exit_limits(net, cfg)

    total = cfg.n_samples
    # the batches follow the workers, not the processes, so a run's split does
    # not move with the timing constant _PROCESS_WORK
    workers = min(n_workers, _usable_cpus())
    n_batches = max(workers, -(-total * net.n // _BATCH_CELLS))
    size = -(-total // n_batches)
    bounds = [(lo, min(lo + size, total)) for lo in range(0, total, size)]
    procs = min(workers, len(bounds), max(1, total * net.n * cfg.n_steps // _PROCESS_WORK))
    args = (net, phase0, limit, cfg)
    # each batch's exit steps and components land in place, and the batch
    # is released
    exit_step = np.empty(total, dtype=np.int64)
    exit_comp = np.empty(total, dtype=np.int64)

    def land(span, batch):
        exit_step[span[0]:span[1]], exit_comp[span[0]:span[1]] = batch

    # a daemonic process may not start children
    if procs == 1 or multiprocessing.current_process().daemon:
        for span in bounds:
            land(span, _simulate(span, *args))
    else:
        own = len(bounds) // procs
        with ProcessPoolExecutor(max_workers=procs - 1) as pool:
            futures = [pool.submit(_simulate, span, *args) for span in bounds[own:]]
            for span in bounds[:own]:
                land(span, _simulate(span, *args))
            for span, future in zip(bounds[own:], futures):
                land(span, future.result())

    exited = exit_step > 0
    n_exited = int(np.count_nonzero(exited))
    n_censored = total - n_exited
    if n_exited == 0:
        raise AllCensoredError(
            f"no trajectory exited before t_max={cfg.t_max} (all {total} censored)"
        )
    # scaled before the exited are picked, so no int64 copy of them is made,
    # and each full array is released once read
    times = exit_step * cfg.dt
    del exit_step
    times = times[exited]
    comps = exit_comp[exited]
    del exit_comp, exited
    mean = float(np.mean(times))
    mean_mle = float((np.sum(times) + n_censored * (cfg.n_steps * cfg.dt)) / n_exited)
    if n_exited >= 2:
        half_width = float(_Z95 * np.std(times, ddof=1) / math.sqrt(n_exited))
    else:
        half_width = float("nan")

    # the exit components are the m lines, then the n nodes
    counts = np.bincount(comps, minlength=net.m + net.n)
    line_hist, node_hist = counts[:net.m], counts[net.m:]
    return HittingTimeEstimate(
        mean=mean,
        half_width=half_width,
        n_exited=n_exited,
        n_censored=n_censored,
        exit_line_histogram=line_hist,
        exit_node_histogram=node_hist,
        mean_mle=mean_mle,
        censored_fraction=n_censored / total,
    )
