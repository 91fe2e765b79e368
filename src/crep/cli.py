"""Command-line interface: analysis reports, sweeps, hitting times, optimization.

Every command echoes its fully resolved configuration (seeds, epsilon, time
step, search budget) inside the emitted document so a run can be reproduced
from its own output.  Every failure the library or this module detects
arrives as a CrepError, which one table maps to an exit code and a one-line
message on stderr: 0 success, 1 input, usage or setting error, 2 no
admissible state / degenerate system / all trajectories censored /
infeasible specification, 3 search found no feasible point.  Any other
exception is a bug and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import fields, is_dataclass

import numpy as np

from .baselines import _bundle, braess_compare, metrics_bundle
from .errors import (
    METRIC_UNDEFINED,
    AllCensoredError,
    CrepError,
    DegenerateSystemError,
    InfeasibleSpecError,
    LyapunovSolveError,
    NoFeasiblePointError,
    SynchronousStateError,
    is_number,
)
from .escape import DEFAULT_EPS, Analysis
from .hitting import EXIT_MODES, SimConfig, estimate_hitting_time
from .network import Network, load_network, save_network
from .optimizer import (
    DECISION_VARIABLES,
    DecisionSpec,
    ObjectiveKind,
    SearchConfig,
    apply_decision,
    current_values,
    optimize,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NO_FEASIBLE_POINT = 3

#: sweep parameter -> the Network array it scales; Pt scales the loads
_SCALED_ARRAYS = {"Lt": "capacity", "Mt": "inertia", "Dt": "damping"}
SWEEP_PARAMS = ("Pt", *_SCALED_ARRAYS)
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
#: most points one sweep runs: np.linspace allocates every point before the
#: first runs, and each point is a full analysis (about a millisecond on ring5)
MAX_SWEEP_STEPS = 10**6


class UsageError(CrepError):
    """Command-line arguments, or a file they name, cannot be used."""


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


def _out_path(text: str) -> str:
    """An output path flag's value, rejected while parsing unless a file can go there."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text}")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory does not exist: {parent}")
    return text


def _emit(doc, out_path) -> None:
    """Write a JSON report, or text such as a CSV table, to ``out_path`` or stdout."""
    text = doc if isinstance(doc, str) else json.dumps(_jsonable(doc), indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fields(text: str, flag: str, names: str, *types) -> dict:
    """A flag's colon-separated values, keyed by the colon-separated ``names``."""
    parts = text.split(":")
    if len(parts) != len(types):
        raise UsageError(f"{flag} must be {names}, got {text!r}")
    try:
        return {name: kind(part) for name, kind, part in zip(names.split(":"), types, parts)}
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}: {exc}") from exc


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


def cmd_analyze(net: Network, args) -> dict:
    analysis = Analysis(net, args.eps)
    timings = {}
    total_start = time.perf_counter()
    for key, stage in (("power_flow", "state"), ("variance", "variance")):
        start = time.perf_counter()
        getattr(analysis, stage)
        timings[key] = time.perf_counter() - start

    start = time.perf_counter()
    bundle = _bundle(analysis)
    timings["metrics"] = time.perf_counter() - start
    timings["total"] = time.perf_counter() - total_start

    variance = analysis.variance
    metrics = _jsonable(bundle)
    return {
        "config": {"eps": args.eps},
        "state": analysis.state,
        "variance": {
            "sigma2_delta": variance.sigma2_delta,
            "sigma2_omega": variance.sigma2_omega,
        },
        "crep": metrics.pop("crep"),
        "metrics": metrics,
        "timings": timings,
    }


# -- sweep -------------------------------------------------------------------


def scale_network(net: Network, param: str, total: float) -> Network:
    """Scale one parameter family so its total equals ``total``.

    Each component keeps its share of the current total, matching a sweep of
    the family's aggregate size.
    """
    if not total > 0.0:
        raise UsageError(f"sweep value for {param} must be > 0, got {total}")
    if param == "Pt":
        load = -float(net.power[net.power < 0].sum())
        if load <= 0.0:
            raise UsageError("cannot sweep Pt: the network has no loads")
        power = net.power * (total / load)
        return net.with_arrays(power=power - power.sum() / net.n)  # float sum balanced
    if param not in _SCALED_ARRAYS:
        raise UsageError(f"unknown sweep parameter {param!r}")
    name = _SCALED_ARRAYS[param]
    values = getattr(net, name)
    return net.with_arrays(**{name: values * (total / float(values.sum()))})


def cmd_sweep(net: Network, args) -> str:
    lo, hi, steps = _fields(args.range, "--range", "lo:hi:steps", float, float, int).values()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--range bounds must be finite, got {args.range!r}")
    if steps < 1:
        raise UsageError("--range needs at least one step")
    if steps > MAX_SWEEP_STEPS:
        raise UsageError(f"--range allows at most {MAX_SWEEP_STEPS} steps, got {steps}")
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in metrics if m not in SWEEP_METRICS]
    if unknown:
        raise UsageError(f"unknown metrics {unknown}; choose from {SWEEP_METRICS}")
    if not metrics:
        raise UsageError("--metrics must name at least one metric")

    rows = []
    for value in np.linspace(lo, hi, steps):
        scaled = scale_network(net, args.param, float(value))
        try:
            bundle = metrics_bundle(scaled, eps=args.eps)
        except METRIC_UNDEFINED:
            rows.append([repr(float(value))] + [""] * len(metrics) + ["false"])
            continue
        cells = [getattr(bundle if hasattr(bundle, m) else bundle.crep, m) for m in metrics]
        rows.append([repr(float(value))] + [repr(float(c)) for c in cells] + ["true"])

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([args.param] + metrics + ["feasible"])
    writer.writerows(rows)
    return buffer.getvalue()


# -- hitting time ------------------------------------------------------------


def _sim_config(args) -> SimConfig:
    return SimConfig(**{f.name: getattr(args, f.name) for f in fields(SimConfig)})


def cmd_hitting_time(net: Network, args) -> dict:
    cfg = _sim_config(args)
    return {"config": cfg, "estimate": estimate_hitting_time(net, cfg, n_workers=args.workers)}


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


def _bound(bounds: dict, name: str, k: int, default: float) -> np.ndarray:
    """Bounds field ``name`` as k floats: one number for all, or a list of k."""
    value = bounds.get(name, default)
    try:
        if is_number(value):
            return np.full(k, float(value))
        if not (isinstance(value, list) and len(value) == k
                and all(is_number(v) for v in value)):
            raise UsageError(f"bounds field {name!r} must be a number or a list of {k} numbers")
        return np.array(value, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise UsageError(f"bounds field {name!r}: {exc}") from exc


def _decision_spec(net: Network, args) -> DecisionSpec:
    bounds = {}
    if args.bounds:
        try:
            with open(args.bounds, "r", encoding="utf-8") as handle:
                bounds = json.load(handle)
        except FileNotFoundError as exc:
            raise UsageError(f"bounds file not found: {args.bounds}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"bounds file is not valid JSON: {exc}") from exc
        if not isinstance(bounds, dict):
            raise UsageError("bounds file must hold a JSON object")
        unknown = set(bounds) - {"indices", "lower", "upper"}
        if unknown:
            raise UsageError(f"unknown bounds fields: {sorted(unknown)}")

    indices = bounds.get("indices", [])
    if not (isinstance(indices, list) and all(is_number(i, integral=True) for i in indices)):
        raise UsageError("bounds field 'indices' must be a list of integers")
    indices = tuple(indices) or _default_indices(net, args.decision)
    current = current_values(net, args.decision, indices)  # range-checks the indices
    k = len(indices)
    if args.budget is not None:
        if not math.isfinite(args.budget):
            raise UsageError(f"--budget must be finite, got {args.budget}")
        budget = args.budget
    else:
        budget = float(current.sum())
    low = 0.0 if args.decision == "generation" else 0.01 * budget / k
    lower = _bound(bounds, "lower", k, low)
    upper = _bound(bounds, "upper", k, budget)
    return DecisionSpec(
        variable=args.decision, indices=indices, budget=budget, lower=lower, upper=upper
    )


def cmd_optimize(net: Network, args) -> dict:
    if args.out and args.network_out and (
            os.path.realpath(args.out) == os.path.realpath(args.network_out)):
        raise UsageError(f"--network-out and --out name the same file: {args.out}")
    spec = _decision_spec(net, args)
    search = SearchConfig(seed=args.seed, max_evals=args.max_evals)
    result = optimize(net, spec, ObjectiveKind(args.objective), eps=args.eps, search=search)
    optimized = apply_decision(net, spec, result.theta)

    network_out = args.network_out
    if network_out is None:
        network_out = (args.out + ".network.json") if args.out else "optimized.network.json"
    save_network(optimized, network_out)

    return {
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


# -- braess ------------------------------------------------------------------


def cmd_braess(net: Network, args) -> dict:
    if (args.add_line is None) == (args.set_capacity is None):
        raise UsageError("exactly one of --add-line or --set-capacity is required")
    if args.add_line is not None:
        values = _fields(args.add_line, "--add-line", "from:to:capacity", int, int, float)
        kind, change = "add_line", net.with_added_line
    else:
        values = _fields(args.set_capacity, "--set-capacity", "line:capacity", int, float)
        kind, change = "set_capacity", net.with_line_capacity
    sim = _sim_config(args) if args.with_hitting_time else None
    verdict = braess_compare(
        net, change(*values.values()), eps=args.eps, sim=sim, n_workers=args.workers
    )
    return {
        "config": {"eps": args.eps, "change": {"kind": kind, **values}, "sim": sim},
        **_jsonable(verdict),
    }


# -- parser ------------------------------------------------------------------


def _add_sim_flags(sub, samples_required: bool, exit_mode: str):
    sub.add_argument("--dt", type=float, default=SimConfig.dt, help="integration step (s)")
    sub.add_argument("--tmax", dest="t_max", type=float, default=SimConfig.t_max,
                     help="horizon (s)")
    sub.add_argument(
        "--samples", dest="n_samples", type=int,
        default=None if samples_required else SimConfig.n_samples,
        required=samples_required, help="number of trajectories",
    )
    sub.add_argument("--seed", dest="master_seed", type=int, default=SimConfig.master_seed,
                     help="master seed")
    sub.add_argument("--workers", type=int, default=1, help="upper bound on worker processes")
    sub.add_argument("--exit-mode", choices=EXIT_MODES, default=exit_mode)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crep", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    # the arguments every command takes; main loads the network and writes --out
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("network")
    shared.add_argument("--eps", type=float, default=DEFAULT_EPS)
    shared.add_argument("--out", type=_out_path, default=None,
                        help="report or CSV path (stdout when omitted)")

    def command(name, func, help):
        sub = subs.add_parser(name, parents=[shared], help=help)
        sub.set_defaults(func=func)
        return sub

    command("analyze", cmd_analyze, "full stability report for a network file")

    sweep = command("sweep", cmd_sweep, "metric curves over a total-parameter sweep")
    sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    sweep.add_argument("--range", required=True, help="lo:hi:steps")
    sweep.add_argument("--metrics", default="phi_delta,phi_omega,phi")

    hitting = command("hitting-time", cmd_hitting_time, "Monte-Carlo mean first hitting time")
    _add_sim_flags(hitting, samples_required=True, exit_mode=SimConfig.exit_mode)

    opt = command("optimize", cmd_optimize, "minimize a stability objective over one family")
    opt.add_argument("--decision", choices=DECISION_VARIABLES, required=True)
    opt.add_argument("--objective", choices=[k.value for k in ObjectiveKind], default="crep_phi")
    opt.add_argument("--budget", type=float, default=None,
                     help="total over the optimized indices (default: current total)")
    opt.add_argument("--bounds", default=None,
                     help="JSON file with optional indices/lower/upper")
    opt.add_argument("--seed", type=int, default=SearchConfig.seed)
    opt.add_argument("--max-evals", type=int, default=SearchConfig.max_evals)
    opt.add_argument("--network-out", type=_out_path, default=None,
                     help="path for the optimized network file")

    braess = command("braess", cmd_braess, "before/after metric table for a line change")
    braess.add_argument("--add-line", default=None, help="from:to:capacity")
    braess.add_argument("--set-capacity", default=None, help="line:capacity")
    braess.add_argument("--with-hitting-time", action="store_true")
    _add_sim_flags(braess, samples_required=False, exit_mode="phase_only")
    return parser


#: (error types, exit code, stderr line after "error: "); the first row whose
#: types match the error applies, and every CrepError matches the last row:
#: usage, network file, network invariant and setting errors
_EXITS = (
    (SynchronousStateError, EXIT_INFEASIBLE, "no admissible synchronous state ({})"),
    (InfeasibleSpecError, EXIT_INFEASIBLE, "infeasible specification ({})"),
    ((DegenerateSystemError, LyapunovSolveError, AllCensoredError), EXIT_INFEASIBLE, "{}"),
    (NoFeasiblePointError, EXIT_NO_FEASIBLE_POINT, "{}"),
    (CrepError, EXIT_INPUT, "{}"),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the "network" entry is taken at load: it describes the input even
        # when the command writes over that file
        net = _load(args.network)
        network = _network_doc(args.network, net)
        doc = args.func(net, args)
        _emit(doc if isinstance(doc, str) else {"network": network, **doc}, args.out)
        return EXIT_OK
    except CrepError as exc:
        code, line = next(row[1:] for row in _EXITS if isinstance(exc, row[0]))
        print("error: " + line.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
