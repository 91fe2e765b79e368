import math

import numpy as np
import pytest

import crep
from crep import (
    NetworkParseError,
    NetworkValidationError,
    load_network,
    network_from_arrays,
    save_network,
)

from conftest import random_connected_network, two_node_net


def minimal_doc():
    return {
        "nodes": [
            {"id": 1, "power": 1.0, "inertia": 1.0, "damping": 1.0, "noise": 0.0},
            {"id": 2, "power": -1.0, "inertia": 1.0, "damping": 1.0, "noise": 0.0},
        ],
        "lines": [{"from": 1, "to": 2, "capacity": 2.0}],
    }


def test_load_minimal_two_node(tmp_network_file):
    net = load_network(tmp_network_file(minimal_doc()))
    assert net.n == 2
    assert net.m == 1
    assert net.nodes[0].power == 1.0
    assert net.lines[0].capacity == 2.0


def test_power_imbalance_rejected(tmp_network_file):
    doc = minimal_doc()
    doc["nodes"][1]["power"] = -0.5
    with pytest.raises(NetworkValidationError, match="power imbalance"):
        load_network(tmp_network_file(doc))


@pytest.mark.parametrize("field", ["power", "inertia", "damping", "noise"])
def test_nan_node_parameter_in_file_rejected(tmp_network_file, field):
    doc = minimal_doc()
    doc["nodes"][0][field] = math.nan
    path = tmp_network_file(doc)
    assert "NaN" in open(path).read()
    with pytest.raises(NetworkValidationError, match=f"node 1: {field} must be finite"):
        load_network(path)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_capacity_rejected(tmp_network_file, value):
    doc = minimal_doc()
    doc["lines"][0]["capacity"] = value
    with pytest.raises(NetworkValidationError, match=r"line \(1,2\): capacity must be finite"):
        load_network(tmp_network_file(doc))


def test_three_node_path(tmp_network_file):
    doc = {
        "nodes": [
            {"id": i, "power": p, "inertia": 1.0, "damping": 1.0, "noise": 0.1}
            for i, p in ((1, 1.0), (2, 0.0), (3, -1.0))
        ],
        "lines": [
            {"from": 1, "to": 2, "capacity": 2.0},
            {"from": 2, "to": 3, "capacity": 2.0},
        ],
    }
    net = load_network(tmp_network_file(doc))
    assert (net.n, net.m) == (3, 2)


def test_unknown_fields_rejected(tmp_network_file):
    doc = minimal_doc()
    doc["nodes"][0]["voltage"] = 1.0
    with pytest.raises(NetworkParseError, match="voltage"):
        load_network(tmp_network_file(doc))
    doc = minimal_doc()
    doc["extra"] = {}
    with pytest.raises(NetworkParseError, match="extra"):
        load_network(tmp_network_file(doc))


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nodes: []")
    with pytest.raises(NetworkParseError):
        load_network(str(path))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("inertia", 0.0, "inertia"),
        ("damping", -1.0, "damping"),
        ("noise", -0.1, "noise"),
    ],
)
def test_node_parameter_signs(tmp_network_file, field, value, message):
    doc = minimal_doc()
    doc["nodes"][0][field] = value
    with pytest.raises(NetworkValidationError, match=message):
        load_network(tmp_network_file(doc))


def test_line_validation(tmp_network_file):
    doc = minimal_doc()
    doc["lines"][0]["capacity"] = 0.0
    with pytest.raises(NetworkValidationError, match="capacity"):
        load_network(tmp_network_file(doc))
    doc = minimal_doc()
    doc["lines"].append({"from": 2, "to": 1, "capacity": 1.0})
    with pytest.raises(NetworkValidationError, match="duplicate"):
        load_network(tmp_network_file(doc))
    doc = minimal_doc()
    doc["lines"][0]["to"] = 1
    with pytest.raises(NetworkValidationError, match="self-loop"):
        load_network(tmp_network_file(doc))


def test_disconnected_rejected():
    with pytest.raises(NetworkValidationError, match="connected"):
        network_from_arrays(
            [1.0, -1.0, 0.5, -0.5],
            [1.0] * 4,
            [1.0] * 4,
            [0.0] * 4,
            [(1, 2, 1.0), (3, 4, 1.0)],
        )


def test_node_ids_must_be_contiguous():
    with pytest.raises(NetworkValidationError, match="ids"):
        crep.Network(
            (
                crep.Node(1, 1.0, 1.0, 1.0, 0.0),
                crep.Node(3, -1.0, 1.0, 1.0, 0.0),
            ),
            (crep.Line(1, 3, 1.0),),
        )


def test_incidence_path():
    net = network_from_arrays(
        [1.0, 0.0, -1.0], [1.0] * 3, [1.0] * 3, [0.0] * 3,
        [(1, 2, 2.0), (2, 3, 2.0)],
    )
    expected = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(net.incidence_array, expected)


def test_incidence_single_line():
    assert np.array_equal(two_node_net().incidence_array, np.array([[1.0], [-1.0]]))


def test_incidence_triangle():
    net = network_from_arrays(
        [0.0, 0.0, 0.0], [1.0] * 3, [1.0] * 3, [0.0] * 3,
        [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)],
    )
    expected = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(net.incidence_array, expected)


def test_incidence_columns_sum_to_zero():
    rng = np.random.default_rng(4)
    for _ in range(10):
        net = random_connected_network(rng)
        cols = net.incidence_array.sum(axis=0)
        assert np.array_equal(cols, np.zeros(net.m))


def _line_quantities(net):
    state = crep.solve_synchronous_state(net)
    model = crep.build_linearization(net, state)
    var = crep.solve_lyapunov(crep.spectral_reduce(model, net))
    report = crep.crep_from_moments(
        state.output_phase_diffs, var.sigma2_delta, var.sigma2_omega, 0.02
    )
    return var.sigma2_delta, report.f_delta, report.phi


def test_line_reordering_permutes_per_line_quantities():
    lines = [(1, 2, 1.5), (2, 3, 2.0), (3, 4, 1.0), (4, 1, 2.5)]
    power = [0.6, -0.2, 0.1, -0.5]
    args = ([1.0, 2.0, 1.5, 0.7], [0.9, 1.1, 1.3, 0.8], [0.2, 0.3, 0.1, 0.4])
    net = network_from_arrays(power, *args, lines)
    perm = [2, 0, 3, 1]
    net_p = network_from_arrays(power, *args, [lines[k] for k in perm])

    sigma, f_delta, phi = _line_quantities(net)
    sigma_p, f_delta_p, phi_p = _line_quantities(net_p)
    assert np.allclose(sigma_p, sigma[perm], rtol=1e-12)
    assert np.allclose(f_delta_p, f_delta[perm], rtol=1e-10)
    assert phi == pytest.approx(phi_p, rel=1e-12)
    inc = net.incidence_array
    inc_p = net_p.incidence_array
    assert np.array_equal(inc_p, inc[:, perm])


def test_line_flip_negates_column_and_preserves_metrics():
    lines = [(1, 2, 1.5), (2, 3, 2.0), (3, 1, 1.8)]
    power = [0.5, -0.1, -0.4]
    args = ([1.0, 2.0, 1.5], [0.9, 1.1, 1.3], [0.2, 0.3, 0.1])
    net = network_from_arrays(power, *args, lines)
    flipped = [(2, 1, 1.5)] + lines[1:]
    net_f = network_from_arrays(power, *args, flipped)

    assert np.array_equal(
        net_f.incidence_array[:, 0], -net.incidence_array[:, 0]
    )
    sigma, f_delta, phi = _line_quantities(net)
    sigma_f, f_delta_f, phi_f = _line_quantities(net_f)
    assert np.allclose(sigma_f, sigma, rtol=1e-12)
    assert np.allclose(f_delta_f, f_delta, rtol=1e-10)
    assert phi == pytest.approx(phi_f, rel=1e-12)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    net = random_connected_network(rng)
    path = tmp_path / "round.json"
    save_network(net, path)
    again = load_network(path)
    assert again == net


def test_arrays_are_read_only():
    net = two_node_net()
    with pytest.raises(ValueError):
        net.power[0] = 5.0
    with pytest.raises(ValueError):
        net.incidence_array[0, 0] = 2.0
