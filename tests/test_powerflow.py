import math
import re
import warnings

import numpy as np
import pytest

from crep import (
    NetworkValidationError,
    NoConvergence,
    OutOfDomain,
    SynchronousStateError,
    network_from_arrays,
    solve_synchronous_state,
)

import crep.powerflow
from conftest import (
    random_connected_network,
    random_meshed_network,
    reference_synchronous_state,
    ring5_net,
    two_node_net,
)

ARCSIN_HALF = math.asin(0.5)


def solve_stack(nets):
    """solve_state_stack of networks that share their line ends, on their arrays."""
    return crep.powerflow.solve_state_stack(
        nets[0], np.array([net.power for net in nets]), np.array([net.capacity for net in nets]))


def test_two_node_arcsin():
    state = solve_synchronous_state(two_node_net(p=1.0, cap=2.0))
    assert state.output_phase_diffs[0] == pytest.approx(ARCSIN_HALF, abs=1e-12)
    assert state.phase[0] == 0.0


def test_zero_injections_give_zero_state():
    net = network_from_arrays(
        [0.0, 0.0, 0.0], [1.0] * 3, [1.0] * 3, [0.1] * 3,
        [(1, 2, 1.0), (2, 3, 1.0)],
    )
    state = solve_synchronous_state(net)
    assert np.array_equal(state.phase, np.zeros(3))
    assert np.array_equal(state.output_phase_diffs, np.zeros(2))


def test_overload_has_no_admissible_state():
    with pytest.raises(SynchronousStateError):
        solve_synchronous_state(two_node_net(p=3.0, cap=2.0))


def test_marginal_overload_has_no_admissible_state():
    # any |P| > l, however slight, leaves the balance equations unsolvable
    with pytest.raises((OutOfDomain, NoConvergence)):
        solve_synchronous_state(two_node_net(p=2.0 + 1e-6, cap=2.0))


def test_three_node_path_flows():
    net = network_from_arrays(
        [1.0, 0.0, -1.0], [1.0] * 3, [1.0] * 3, [0.0] * 3,
        [(1, 2, 2.0), (2, 3, 2.0)],
    )
    state = solve_synchronous_state(net)
    assert np.allclose(state.output_phase_diffs, [ARCSIN_HALF, ARCSIN_HALF], atol=1e-12)


def test_residual_below_tolerance_on_random_networks():
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = random_connected_network(rng)
        state = solve_synchronous_state(net)
        assert state.residual <= 1e-10
        assert state.phase[0] == 0.0
        gaps = np.abs(state.output_phase_diffs)
        if gaps.size:
            assert gaps.max() < math.pi / 2


def test_joint_scaling_of_power_and_capacity():
    rng = np.random.default_rng(12)
    net = random_connected_network(rng)
    state = solve_synchronous_state(net)
    for c in (0.5, 3.0):
        scaled = net.with_arrays(power=net.power * c, capacity=net.capacity * c)
        scaled_state = solve_synchronous_state(scaled)
        assert np.allclose(scaled_state.phase, state.phase, atol=1e-9)


def test_gauge_shift_leaves_phase_differences():
    net = two_node_net()
    state = solve_synchronous_state(net)
    shifted = state.phase + 0.7
    diffs = shifted[net.line_from] - shifted[net.line_to]
    assert np.allclose(diffs, state.output_phase_diffs, atol=1e-15)


def test_single_node_network():
    net = network_from_arrays([0.0], [1.0], [1.0], [0.5], [])
    state = solve_synchronous_state(net)
    assert state.phase.shape == (1,)
    assert state.residual == 0.0


@pytest.mark.parametrize(
    "net",
    [
        two_node_net(p=3.0, cap=2.0),
        two_node_net(p=2.0 + 1e-6, cap=2.0),
        ring5_net(caps=(0.2,) * 5),
    ],
    ids=["overload", "marginal-overload", "ring5-caps-x0.2"],
)
def test_infeasible_flow_stops_at_first_failed_line_search(monkeypatch, net):
    # a full halving sequence without descent ends the solve at once, not
    # after max_iter iterations of 2**-29-scaled steps (900-1272 evaluations)
    calls = 0
    mismatch = crep.powerflow._mismatch

    def counting(*args):
        nonlocal calls
        calls += 1
        return mismatch(*args)

    monkeypatch.setattr(crep.powerflow, "_mismatch", counting)
    with pytest.raises(NoConvergence, match=r"no damped Newton step .* at iteration \d+"):
        solve_synchronous_state(net)
    assert calls < 500


def test_early_stop_keeps_every_state_bitwise():
    # capacities scaled across the feasibility boundary: success or failure
    # and every successful state match the reference loop, which accepts a
    # failed line search and runs on; the last 60 networks are meshed, with
    # nodes of degree 7 whose lines' flows must add in line order, and scaled
    # no lower than 0.1, below which few of them solve
    rng = np.random.default_rng(404)
    meshed = np.random.default_rng(405)
    solved = stopped_early = 0
    for case in range(360):
        lowest = 0.01
        if case < 300:
            base = random_connected_network(rng)
        else:
            base = random_meshed_network(meshed, n=int(meshed.integers(9, 21)),
                                         n_lines=int(meshed.integers(14, 30)))
            assert np.bincount(np.concatenate((base.line_from, base.line_to))).max() == 7
            lowest = 0.1
        scale = math.exp(rng.uniform(math.log(lowest), math.log(3.0)))
        net = base.with_arrays(capacity=base.capacity * scale)
        try:
            expected = reference_synchronous_state(net)
        except SynchronousStateError:
            expected = None
        try:
            state = solve_synchronous_state(net)
        except SynchronousStateError as exc:
            state = None
            stopped_early += "no damped Newton step" in str(exc)
        assert (state is None) == (expected is None)
        if state is not None:
            solved += 1
            phase, diffs, residual = expected
            assert np.array_equal(state.phase, phase)
            assert np.array_equal(state.output_phase_diffs, diffs)
            assert state.residual == residual
    assert solved >= 100 and stopped_early >= 100


def test_a_singular_jacobian_fails_only_its_own_row(monkeypatch):
    # the middle row's Newton system is made singular while all three rows
    # run; it fails with the single-network error, the others keep their bits
    nets = [ring5_net(caps=(c,) * 5) for c in (1.0, 1.2, 0.9)]
    alone = [solve_synchronous_state(net) for net in nets]
    jacobians = crep.powerflow._jacobians

    def singular_middle(*args):
        jac = jacobians(*args)
        if len(jac) == 3:
            jac[1] = 0.0
        return jac

    monkeypatch.setattr(crep.powerflow, "_jacobians", singular_middle)
    phase, _, residual, errors = solve_stack(nets)
    assert isinstance(errors[1], NoConvergence)
    assert str(errors[1]) == "singular Jacobian during Newton iteration"
    assert isinstance(errors[1].__cause__, np.linalg.LinAlgError)
    for j in (0, 2):
        assert errors[j] is None
        assert np.array_equal(phase[j], alone[j].phase)
        assert residual[j] == alone[j].residual

    monkeypatch.setattr(crep.powerflow, "_jacobians", lambda *args: 0.0 * jacobians(*args))
    with pytest.raises(NoConvergence, match="singular Jacobian"):
        solve_synchronous_state(nets[0])


def test_iteration_limit_fails_only_the_rows_still_running(monkeypatch):
    # ring5 converges on its 4th Newton step, and at half capacity on its 6th;
    # with a limit of 4 the first still comes back, the second fails
    fast, slow = ring5_net(), ring5_net(caps=(0.5,) * 5)
    alone = solve_synchronous_state(fast)
    monkeypatch.setattr(crep.powerflow, "MAX_ITER", 4)
    with pytest.raises(NoConvergence, match=(
        r"^power flow did not converge in 4 iterations "
        r"\(residual \d\.\d{3}e[-+]\d+ > tol 1\.000e-10\)$"
    )):
        solve_synchronous_state(slow)
    assert solve_synchronous_state(fast).residual <= crep.network.TOL
    phase, gaps, residual, errors = solve_stack([fast, slow])
    assert errors[0] is None and isinstance(errors[1], NoConvergence)
    assert np.array_equal(phase[0], alone.phase)
    assert np.array_equal(gaps[0], alone.output_phase_diffs)
    assert residual[0] == alone.residual

    monkeypatch.setattr(crep.powerflow, "MAX_ITER", 3)
    with pytest.raises(NoConvergence, match="did not converge in 3 iterations"):
        solve_synchronous_state(fast)


def test_a_row_stepping_to_infinite_phases_fails_without_a_warning():
    # capacities near 1e308 beside 0.1: the full Newton step puts inf phases
    # in the trial, whose gaps are NaN, and no halving lowers the mismatch
    net = ring5_net()
    huge = net.with_arrays(capacity=[3.4821579507518357e307, 0.1, 3.897665175412208e307, 0.1,
                                     2.6201768738359554e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase, gaps, _, (failed, error) = solve_stack([huge, net])
    assert isinstance(failed, NoConvergence) and str(failed) == (
        "no damped Newton step reduced the mismatch at iteration 1 "
        "(residual 9.000e-01 > tol 1.000e-10)"
    )
    alone = solve_synchronous_state(net)
    assert error is None
    assert phase[1].tobytes() == alone.phase.tobytes()
    assert gaps[1].tobytes() == alone.output_phase_diffs.tobytes()


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_scaled_injections_and_capacities_solve_to_the_same_phases(scale):
    # the flow equations are homogeneous in (P, K); at these scales roundoff
    # alone leaves a mismatch above TOL (1.2e-10 and 7.5e-9 on ring5)
    net = ring5_net()
    scaled = net.with_arrays(power=net.power * scale, capacity=net.capacity * scale)
    state = solve_synchronous_state(scaled)
    assert np.max(np.abs(state.phase - solve_synchronous_state(net).phase)) <= 1e-12


def test_each_row_stops_at_its_own_tolerance():
    # overloaded two-node networks: max(TOL, 64 eps sum |P_i|) is TOL for a
    # sum of 6000 and 64 eps 6e8 = 8.527e-06 for a sum of 6e8, alone or stacked
    small, large = two_node_net(p=3e3, cap=2e3), two_node_net(p=3e8, cap=2e8)
    tol = 64 * np.finfo(float).eps * 6e8
    for errors in ([solve_stack([net])[3][0] for net in (small, large)],
                   solve_stack([small, large])[3]):
        assert [re.search(r"tol (\S+)\)$", str(error)).group(1) for error in errors] == \
            ["1.000e-10", f"{tol:.3e}"]
        assert all(isinstance(error, NoConvergence) for error in errors)


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_a_network_loads_exactly_when_the_power_flow_can_meet_its_imbalance(scale):
    # dyadic injections sum to exactly 0; the Newton system leaves out node 1,
    # whose mismatch tends to the slack added there, so a slack within the
    # stopping tolerance loads and solves, and one beyond it does not load
    net = ring5_net()
    power = np.array([0.875, -0.25, 0.25, -0.5, -0.375]) * scale
    tol = crep.network.balance_tolerance(power)
    slack = np.zeros(5)
    slack[0] = 0.9 * tol
    state = solve_synchronous_state(
        net.with_arrays(power=power + slack, capacity=net.capacity * scale))
    assert 0.9 * tol * (1 - 1e-3) <= state.residual <= tol
    slack[0] = 1.1 * tol
    with pytest.raises(NetworkValidationError, match="^power imbalance"):
        net.with_arrays(power=power + slack, capacity=net.capacity * scale)
