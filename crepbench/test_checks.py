"""Tests of the benchmark's own checks, result line and tracer.

    PYTHONPATH=src python -m pytest crepbench/test_checks.py -q

Each check passes on crep's real output and fails once that output is
corrupted by the smallest change it is meant to catch.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

import run

run.use_checkout_crep()

import checks  # noqa: E402
import crep  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def test_trajectory_check_catches_exit_step_moved_by_one():
    net = workloads.ring5()
    state = crep.solve_synchronous_state(net)
    cfg = crep.SimConfig(dt=1e-3, t_max=6.0, n_samples=4, eps=0.02, master_seed=3,
                         exit_mode="phase_only")
    program, replay = [], []
    for index in range(4):
        out = crep.simulate_trajectory(net, state, cfg, index)
        program.append((out.exit_time, out.exit_line, out.exit_node))
        replay.append(reference.exit_step(workloads.grid_of(net), state.phase, cfg.dt,
                                          cfg.n_steps, cfg.eps, cfg.exit_mode,
                                          cfg.master_seed, index))
    assert any(step > 0 for step, _ in replay) and any(step == 0 for step, _ in replay)
    assert checks.trajectories(program, replay, cfg.dt, net.m) == []

    exited = next(i for i, (step, _) in enumerate(replay) if step > 0)
    moved = list(program)
    time, line, node = moved[exited]
    moved[exited] = ((round(time / cfg.dt) + 1) * cfg.dt, line, node)
    assert checks.trajectories(moved, replay, cfg.dt, net.m)


def test_variance_check_catches_one_sigma2_scaled():
    net = workloads.ring5()
    state = crep.solve_synchronous_state(net)
    model = crep.build_linearization(net, state)
    variance = crep.solve_lyapunov(crep.spectral_reduce(model, net))
    ref = reference.stationary_variances(workloads.grid_of(net), np.array(state.phase))
    assert checks.variances(variance.sigma2_delta, variance.sigma2_omega, *ref) == []

    for which in (0, 1):
        corrupted = [variance.sigma2_delta.copy(), variance.sigma2_omega.copy()]
        corrupted[which][2] *= 1.0 + 1e-6
        assert checks.variances(*corrupted, *ref)


def test_sweep_point_checks_pass_and_catch_a_moved_phase():
    net = workloads.ring_with_chords(0)
    grid = workloads.grid_of(net)
    bundle = crep.metrics_bundle(net)
    phase = np.array(crep.solve_synchronous_state(net).phase)
    assert checks.power_flow(grid, phase, bundle.cohesiveness) == []
    eta = grid.noise**2 / grid.damping
    gaps = phase[grid.line_from] - phase[grid.line_to]
    resistance = reference.effective_resistances(grid, phase)
    assert checks.escape_bounds(bundle.crep.f_delta, gaps, resistance,
                                eta.min(), eta.max()) == []

    moved = phase.copy()
    moved[5] += 1e-6
    assert checks.power_flow(grid, moved, bundle.cohesiveness)
    above = bundle.crep.f_delta * 2.0 + 1e-3
    assert checks.escape_bounds(above, gaps, resistance, eta.min(), eta.max())


def test_search_check_catches_theta_off_budget():
    workload = workloads.OptimizeRing5(seed=0)
    kind = "crep_phi_delta"
    result = crep.optimize(workload.net, workload.spec, crep.ObjectiveKind(kind),
                           search=crep.SearchConfig(seed=5, max_evals=150, polish=False))
    uniform = workload.objective(np.ones(workload.spec.dim), kind)

    def judge(res):
        return checks.search(res, workload.spec.lower, workload.spec.upper,
                             workload.spec.budget, uniform,
                             workload.objective(res.theta, kind))

    assert judge(result) == []
    theta = result.theta.copy()
    theta[1] += 1e-6
    assert judge(dataclasses.replace(result, theta=theta))


def test_claim_checks():
    low = crep.HittingTimeEstimate(5.0, 0.4, 900, 100, np.zeros(5), np.zeros(5))
    high = dataclasses.replace(low, mean=7.0)
    assert checks.optimized_exits_later(low, high) == []
    assert checks.optimized_exits_later(low, dataclasses.replace(high, mean=5.5))
    assert checks.crep_beats_variance(0.01, 0.02) == []
    assert checks.crep_beats_variance(0.02, 0.02)


def test_result_line_emits_every_benchmark_metric():
    untraced = {name: 1.5 for name, _, _ in run.END_TO_END}
    units = {name: unit for name, unit, _ in run.END_TO_END}
    doc = json.loads(run.result_line(True, 3, 0, untraced, units))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert {(name, m["unit"]) for name, m in doc["metrics"].items()} == {
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    }

    traced = tracing.layer_metrics([], rounds=1)
    traced["trace.overhead_s"] = 0.1
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    doc = json.loads(run.result_line(True, 3, 0, traced, units))
    assert {(name, m["unit"]) for name, m in doc["metrics"].items()} == {
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    }
    assert {(name, better) for name, _, better in tracing.PER_LAYER} == {
        (m["name"], m["better"]) for m in BENCHMARK["per_layer"]
    }


def test_tracer_counts_kernel_steps_and_restores_crep():
    net = workloads.ring5()
    state = crep.solve_synchronous_state(net)
    cfg = crep.SimConfig(dt=1e-3, t_max=3.0, n_samples=6, eps=0.02, master_seed=3,
                         exit_mode="phase_only")
    original = crep.estimate_hitting_time
    tracer = tracing.Tracer()
    tracer.install()
    try:
        crep.estimate_hitting_time(net, cfg, n_workers=2)
    finally:
        tracer.uninstall()
    assert crep.estimate_hitting_time is original
    assert crep.hitting.solve_synchronous_state is crep.powerflow.solve_synchronous_state

    steps = []
    for index in range(cfg.n_samples):
        out = crep.simulate_trajectory(net, state, cfg, index)
        steps.append(cfg.n_steps if out.censored else round(out.exit_time / cfg.dt))
    metrics = tracing.layer_metrics(tracer.spans, rounds=1)
    assert metrics["hitting.calls"] == 1 and metrics["kernel.calls"] == 2
    assert metrics["kernel.row_steps"] == sum(steps)
    assert metrics["kernel.loop_steps"] == max(steps[:3]) + max(steps[3:])
    hitting = next(i for i, span in enumerate(tracer.spans) if span.name == "hitting")
    assert all(span.parent == hitting for span in tracer.spans if span.name == "kernel")
