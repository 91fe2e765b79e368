"""Command-line interface: analysis reports, sweeps, hitting times, optimization.

Every command echoes its fully resolved configuration (seeds, tolerances,
epsilon, time step) inside the emitted document so a run can be reproduced
from its own output.  Exit codes: 0 success, 1 input or usage error, 2 no
admissible state / infeasible specification, 3 search found no feasible point.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .baselines import (
    AddLine,
    BraessScenario,
    SetCapacity,
    _bundle,
    braess_compare,
    metrics_bundle,
)
from .errors import (
    AllCensoredError,
    DegenerateSystemError,
    InfeasibleSpecError,
    LyapunovSolveError,
    NetworkParseError,
    NetworkValidationError,
    NoFeasiblePointError,
    SynchronousStateError,
)
from .escape import DEFAULT_EPS, Analysis
from .hitting import EXIT_MODES, SimConfig, estimate_hitting_time
from .network import Network, load_network, save_network
from .optimizer import (
    DECISION_VARIABLES,
    DecisionSpec,
    ObjectiveKind,
    SearchConfig,
    _DECISION_FIELDS,
    apply_decision,
    optimize,
)
from .powerflow import DEFAULT_MAX_ITER, DEFAULT_TOL

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NO_FEASIBLE_POINT = 3

SWEEP_PARAMS = ("Pt", "Lt", "Mt", "Dt")
SWEEP_METRICS = (
    "phi",
    "phi_delta",
    "phi_omega",
    "trace_q_delta",
    "trace_q_omega",
    "h2_squared",
    "min_re_mu",
    "cohesiveness",
    "gamma",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is exit 1
        raise UsageError(message)


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(doc, out_path) -> None:
    text = json.dumps(_jsonable(doc), indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _network_doc(path, net: Network) -> dict:
    """The report's "network" entry: the input file, its digest and its size."""
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return {"path": str(path), "sha256": digest, "n": net.n, "m": net.m}


def _load(path) -> Network:
    try:
        return load_network(path)
    except FileNotFoundError as exc:
        raise UsageError(f"network file not found: {path}") from exc


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    net = _load(args.network)
    analysis = Analysis(net, args.eps, args.tol, args.max_iter)
    timings = {}
    total_start = time.perf_counter()
    for key, stage in (("power_flow", "state"), ("linearize", "reduction"),
                       ("variance", "variance")):
        start = time.perf_counter()
        getattr(analysis, stage)
        timings[key] = time.perf_counter() - start

    start = time.perf_counter()
    bundle = _bundle(analysis)
    timings["metrics"] = time.perf_counter() - start
    timings["total"] = time.perf_counter() - total_start

    variance = analysis.variance
    metrics = _jsonable(bundle)
    doc = {
        "network": _network_doc(args.network, net),
        "config": {"eps": args.eps, "tol": args.tol, "max_iter": args.max_iter},
        "state": analysis.state,
        "variance": {
            "sigma2_delta": variance.sigma2_delta,
            "sigma2_omega": variance.sigma2_omega,
        },
        "crep": metrics.pop("crep"),
        "metrics": metrics,
        "timings": timings,
    }
    _emit(doc, args.out)
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--range must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --range {text!r}: {exc}") from exc
    if steps < 1:
        raise UsageError("--range needs at least one step")
    return np.linspace(lo, hi, steps)


def scale_network(net: Network, param: str, total: float) -> Network:
    """Scale one parameter family so its total equals ``total``.

    Each component keeps its share of the current total, matching a sweep of
    the family's aggregate size.
    """
    if total <= 0.0:
        raise UsageError(f"sweep value for {param} must be > 0, got {total}")
    if param == "Pt":
        load = -float(net.power[net.power < 0].sum())
        if load <= 0.0:
            raise UsageError("cannot sweep Pt: the network has no loads")
        power = net.power * (total / load)
        power = power - power.sum() / net.n  # keep the float sum balanced
        return net.with_arrays(power=power)
    if param == "Lt":
        return net.with_arrays(capacity=net.capacity * (total / float(net.capacity.sum())))
    if param == "Mt":
        return net.with_arrays(inertia=net.inertia * (total / float(net.inertia.sum())))
    if param == "Dt":
        return net.with_arrays(damping=net.damping * (total / float(net.damping.sum())))
    raise UsageError(f"unknown sweep parameter {param!r}")


def cmd_sweep(args) -> int:
    net = _load(args.network)
    values = _parse_range(args.range)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in metrics if m not in SWEEP_METRICS]
    if unknown:
        raise UsageError(f"unknown metrics {unknown}; choose from {SWEEP_METRICS}")
    if not metrics:
        raise UsageError("--metrics must name at least one metric")

    rows = []
    for value in values:
        scaled = scale_network(net, args.param, float(value))
        try:
            bundle = metrics_bundle(scaled, eps=args.eps)
        except (SynchronousStateError, DegenerateSystemError, LyapunovSolveError):
            rows.append([repr(float(value))] + [""] * len(metrics) + ["false"])
            continue
        cells = [getattr(bundle if hasattr(bundle, m) else bundle.crep, m) for m in metrics]
        rows.append([repr(float(value))] + [repr(float(c)) for c in cells] + ["true"])

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([args.param] + metrics + ["feasible"])
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    return EXIT_OK


# -- hitting time ------------------------------------------------------------


def _sim_config(args) -> SimConfig:
    try:
        return SimConfig(
            dt=args.dt,
            t_max=args.tmax,
            n_samples=args.samples,
            eps=args.eps,
            master_seed=args.seed,
            exit_mode=args.exit_mode,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_hitting_time(args) -> int:
    net = _load(args.network)
    cfg = _sim_config(args)
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    estimate = estimate_hitting_time(net, cfg, n_workers=args.workers)
    doc = {
        "network": _network_doc(args.network, net),
        "config": asdict(cfg),
        "estimate": estimate,
    }
    _emit(doc, args.out)
    return EXIT_OK


# -- optimize ----------------------------------------------------------------


def _default_indices(net: Network, decision: str) -> tuple[int, ...]:
    if decision == "generation":
        idx = tuple(int(i) + 1 for i in np.flatnonzero(net.power > 0))
        if not idx:
            raise InfeasibleSpecError("network has no generator nodes (power > 0)")
        return idx
    if decision == "line_capacity":
        return tuple(range(1, net.m + 1))
    return tuple(range(1, net.n + 1))


def _as_bound_array(value, k: int, name: str) -> np.ndarray:
    if isinstance(value, (int, float)):
        return np.full(k, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (k,):
        raise UsageError(f"bounds field {name!r} must be a scalar or a length-{k} array")
    return arr


def _decision_spec(net: Network, args) -> DecisionSpec:
    bounds = {}
    if args.bounds:
        try:
            with open(args.bounds, "r", encoding="utf-8") as handle:
                bounds = json.load(handle)
        except FileNotFoundError as exc:
            raise UsageError(f"bounds file not found: {args.bounds}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"bounds file is not valid JSON: {exc}") from exc
        unknown = set(bounds) - {"indices", "lower", "upper"}
        if unknown:
            raise UsageError(f"unknown bounds fields: {sorted(unknown)}")

    indices = tuple(int(i) for i in bounds.get("indices", ())) or _default_indices(
        net, args.decision
    )
    k = len(indices)
    idx0 = np.array(indices, dtype=int) - 1
    if args.budget is not None:
        budget = args.budget
    else:
        field = _DECISION_FIELDS[args.decision]
        budget = float(getattr(net, field)[idx0].sum())

    if "lower" in bounds:
        lower = _as_bound_array(bounds["lower"], k, "lower")
    elif args.decision == "generation":
        lower = np.zeros(k)
    else:
        lower = np.full(k, 0.01 * budget / k)
    if "upper" in bounds:
        upper = _as_bound_array(bounds["upper"], k, "upper")
    else:
        upper = np.full(k, budget)
    return DecisionSpec(
        variable=args.decision, indices=indices, budget=budget, lower=lower, upper=upper
    )


def cmd_optimize(args) -> int:
    net = _load(args.network)
    spec = _decision_spec(net, args)
    search = SearchConfig(seed=args.seed, max_evals=args.max_evals)
    result = optimize(net, spec, ObjectiveKind(args.objective), eps=args.eps, search=search)
    optimized = apply_decision(net, spec, result.theta)

    network_out = args.network_out
    if network_out is None:
        network_out = (args.out + ".network.json") if args.out else "optimized.network.json"
    save_network(optimized, network_out)

    doc = {
        "network": _network_doc(args.network, net),
        "config": {
            "decision": spec.variable,
            "objective": args.objective,
            "indices": list(spec.indices),
            "budget": spec.budget,
            "lower": spec.lower,
            "upper": spec.upper,
            "eps": args.eps,
            "seed": args.seed,
            "max_evals": args.max_evals,
        },
        "result": result,
        "network_out": str(network_out),
    }
    _emit(doc, args.out)
    return EXIT_OK


# -- braess ------------------------------------------------------------------


def _parse_add_line(text: str) -> AddLine:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--add-line must be from:to:capacity, got {text!r}")
    try:
        return AddLine(int(parts[0]), int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise UsageError(f"bad --add-line {text!r}: {exc}") from exc


def _parse_set_capacity(text: str) -> SetCapacity:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--set-capacity must be line:capacity, got {text!r}")
    try:
        return SetCapacity(int(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"bad --set-capacity {text!r}: {exc}") from exc


def cmd_braess(args) -> int:
    net = _load(args.network)
    if (args.add_line is None) == (args.set_capacity is None):
        raise UsageError("exactly one of --add-line or --set-capacity is required")
    if args.add_line is not None:
        change = _parse_add_line(args.add_line)
        change_doc = {
            "kind": "add_line",
            "from": change.from_node,
            "to": change.to_node,
            "capacity": change.capacity,
        }
    else:
        change = _parse_set_capacity(args.set_capacity)
        change_doc = {
            "kind": "set_capacity",
            "line": change.line_index,
            "capacity": change.capacity,
        }

    sim = None
    sim_doc = None
    if args.with_hitting_time:
        sim = _sim_config(args)
        sim_doc = asdict(sim)

    verdict = braess_compare(
        BraessScenario(net, change), eps=args.eps, sim=sim, n_workers=args.workers
    )
    doc = {
        "network": _network_doc(args.network, net),
        "config": {"eps": args.eps, "change": change_doc, "sim": sim_doc},
        **_jsonable(verdict),
    }
    _emit(doc, args.out)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_sim_flags(sub, samples_required: bool):
    sub.add_argument("--dt", type=float, default=1e-3, help="integration step (s)")
    sub.add_argument("--tmax", type=float, default=1e5, help="horizon (s)")
    sub.add_argument(
        "--samples", type=int, default=None if samples_required else 1000,
        required=samples_required, help="number of trajectories",
    )
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--workers", type=int, default=1, help="worker threads")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crep", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="full stability report for a network file")
    analyze.add_argument("network")
    analyze.add_argument("--eps", type=float, default=DEFAULT_EPS)
    analyze.add_argument("--tol", type=float, default=DEFAULT_TOL)
    analyze.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    analyze.add_argument("--out", default=None, help="report path (stdout when omitted)")
    analyze.set_defaults(func=cmd_analyze)

    sweep = subs.add_parser("sweep", help="metric curves over a total-parameter sweep")
    sweep.add_argument("network")
    sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    sweep.add_argument("--range", required=True, help="lo:hi:steps")
    sweep.add_argument("--metrics", default="phi_delta,phi_omega,phi")
    sweep.add_argument("--eps", type=float, default=DEFAULT_EPS)
    sweep.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    sweep.set_defaults(func=cmd_sweep)

    hitting = subs.add_parser("hitting-time", help="Monte-Carlo mean first hitting time")
    hitting.add_argument("network")
    _add_sim_flags(hitting, samples_required=True)
    hitting.add_argument("--eps", type=float, default=DEFAULT_EPS)
    hitting.add_argument(
        "--exit-mode", choices=EXIT_MODES, default="both"
    )
    hitting.add_argument("--out", default=None)
    hitting.set_defaults(func=cmd_hitting_time)

    opt = subs.add_parser("optimize", help="minimize a stability objective over one family")
    opt.add_argument("network")
    opt.add_argument(
        "--decision", choices=DECISION_VARIABLES,
        required=True,
    )
    opt.add_argument(
        "--objective", choices=[k.value for k in ObjectiveKind], default="crep_phi"
    )
    opt.add_argument("--budget", type=float, default=None,
                     help="total over the optimized indices (default: current total)")
    opt.add_argument("--bounds", default=None,
                     help="JSON file with optional indices/lower/upper")
    opt.add_argument("--eps", type=float, default=DEFAULT_EPS)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--max-evals", type=int, default=2000)
    opt.add_argument("--out", default=None)
    opt.add_argument("--network-out", default=None,
                     help="path for the optimized network file")
    opt.set_defaults(func=cmd_optimize)

    braess = subs.add_parser("braess", help="before/after metric table for a line change")
    braess.add_argument("network")
    braess.add_argument("--add-line", default=None, help="from:to:capacity")
    braess.add_argument("--set-capacity", default=None, help="line:capacity")
    braess.add_argument("--eps", type=float, default=DEFAULT_EPS)
    braess.add_argument("--with-hitting-time", action="store_true")
    _add_sim_flags(braess, samples_required=False)
    braess.add_argument(
        "--exit-mode", choices=EXIT_MODES, default="phase_only"
    )
    braess.add_argument("--out", default=None)
    braess.set_defaults(func=cmd_braess)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NetworkParseError, NetworkValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SynchronousStateError as exc:
        print(f"error: no admissible synchronous state ({exc})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DegenerateSystemError, LyapunovSolveError, AllCensoredError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InfeasibleSpecError as exc:
        print(f"error: infeasible specification ({exc})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NoFeasiblePointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE_POINT


if __name__ == "__main__":
    sys.exit(main())
