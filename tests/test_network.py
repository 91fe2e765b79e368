import functools
import math
import operator
import re

import numpy as np
import pytest

import crep
from crep import (
    ConfigError,
    NetworkParseError,
    NetworkValidationError,
    load_network,
    network_from_arrays,
    save_network,
)

from conftest import random_connected_network, ring5_net, two_node_net


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
    assert net.power[0] == 1.0
    assert net.capacity[0] == 2.0


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
    doc = minimal_doc()
    doc["nodes"][1]["id"] = 3
    doc["lines"][0]["to"] = 3
    with pytest.raises(NetworkValidationError, match="ids"):
        crep.network_from_dict(doc)


def test_incidence_path():
    net = network_from_arrays(
        [1.0, 0.0, -1.0], [1.0] * 3, [1.0] * 3, [0.0] * 3,
        [(1, 2, 2.0), (2, 3, 2.0)],
    )
    expected = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(net.incidence.toarray(), expected)


def test_incidence_single_line():
    assert np.array_equal(two_node_net().incidence.toarray(), np.array([[1.0], [-1.0]]))


def test_incidence_triangle():
    net = network_from_arrays(
        [0.0, 0.0, 0.0], [1.0] * 3, [1.0] * 3, [0.0] * 3,
        [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)],
    )
    expected = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(net.incidence.toarray(), expected)


def test_incidence_columns_sum_to_zero():
    rng = np.random.default_rng(4)
    for _ in range(10):
        net = random_connected_network(rng)
        cols = net.incidence.toarray().sum(axis=0)
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
    inc = net.incidence.toarray()
    inc_p = net_p.incidence.toarray()
    assert np.array_equal(inc_p, inc[:, perm])


def test_line_flip_negates_column_and_preserves_metrics():
    lines = [(1, 2, 1.5), (2, 3, 2.0), (3, 1, 1.8)]
    power = [0.5, -0.1, -0.4]
    args = ([1.0, 2.0, 1.5], [0.9, 1.1, 1.3], [0.2, 0.3, 0.1])
    net = network_from_arrays(power, *args, lines)
    flipped = [(2, 1, 1.5)] + lines[1:]
    net_f = network_from_arrays(power, *args, flipped)

    assert np.array_equal(
        net_f.incidence.toarray()[:, 0], -net.incidence.toarray()[:, 0]
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
    for arr in (net.incidence.data, net.incidence.indices, net.incidence.indptr):
        with pytest.raises(ValueError):
            arr[0] = 2


def path_doc():
    """Valid three-node path 1-2-3 as a JSON document."""
    return {
        "nodes": [
            {"id": i, "power": p, "inertia": 1.0, "damping": 1.0, "noise": 0.1}
            for i, p in ((1, 1.0), (2, -0.5), (3, -0.5))
        ],
        "lines": [
            {"from": 1, "to": 2, "capacity": 2.0},
            {"from": 2, "to": 3, "capacity": 2.0},
        ],
    }


def from_edited_path(edit):
    doc = path_doc()
    edit(doc)
    return crep.network_from_dict(doc)


def edit_node(pos, **fields):
    return lambda: from_edited_path(lambda doc: doc["nodes"][pos].update(fields))


def edit_line(pos, **fields):
    return lambda: from_edited_path(lambda doc: doc["lines"][pos].update(fields))


def add_line(a, b, c):
    return lambda: from_edited_path(
        lambda doc: doc["lines"].append({"from": a, "to": b, "capacity": c})
    )


SINGLE_VIOLATIONS = {
    "nan power": (edit_node(1, power=math.nan), "node 2: power must be finite"),
    "inf inertia": (edit_node(0, inertia=math.inf), "node 1: inertia must be finite"),
    "-inf damping": (edit_node(2, damping=-math.inf), "node 3: damping must be finite"),
    "nan noise": (edit_node(0, noise=math.nan), "node 1: noise must be finite"),
    "zero inertia": (edit_node(1, inertia=0.0), "node 2: inertia must be > 0"),
    "negative damping": (edit_node(2, damping=-1.0), "node 3: damping must be > 0"),
    "negative noise": (edit_node(0, noise=-0.1), "node 1: noise must be >= 0"),
    "self-loop": (edit_line(1, to=2), "line (2,2): self-loops are not allowed"),
    "nan capacity": (edit_line(0, capacity=math.nan), "line (1,2): capacity must be finite"),
    "zero capacity": (edit_line(1, capacity=0.0), "line (2,3): capacity must be > 0"),
    "unknown to": (add_line(3, 4, 1.0), "line (3,4): unknown node id 4"),
    "unknown from": (edit_line(0, **{"from": 0}), "line (0,2): unknown node id 0"),
    "duplicate": (add_line(3, 2, 1.0), "duplicate line between nodes 3 and 2"),
    "imbalance": (
        edit_node(2, power=-0.4),
        "power imbalance: sum of injections is 1.000e-01 (must be 0)",
    ),
    "disconnected": (
        lambda: from_edited_path(lambda doc: doc["lines"].pop()),
        "graph is not connected",
    ),
    "no nodes": (
        lambda: crep.network_from_dict({"nodes": [], "lines": []}),
        "network has no nodes",
    ),
    "json ids": (
        edit_node(1, id=3),
        "node ids must be 1..3 in order (position 1 has id 3)",
    ),
    "ragged": (
        lambda: network_from_arrays([0.0] * 3, [1.0] * 2, [1.0] * 2, [0.1] * 2, [(1, 2, 1.0)]),
        "network arrays must be 1-D with one length per node and per line, got shapes "
        "{'power': (3,), 'inertia': (2,), 'damping': (2,), 'noise': (2,), "
        "'line_from': (1,), 'line_to': (1,), 'capacity': (1,)}",
    ),
    "scalar": (
        lambda: crep.Network(0.0, [1.0], [1.0], [0.1], [], [], []),
        "network arrays must be 1-D with one length per node and per line, got shapes "
        "{'power': (), 'inertia': (1,), 'damping': (1,), 'noise': (1,), "
        "'line_from': (0,), 'line_to': (0,), 'capacity': (0,)}",
    ),
    "line index 0": (
        lambda: crep.network_from_dict(path_doc()).with_line_capacity(0, 1.0),
        "no line with index 0",
    ),
    "line index m + 1": (
        lambda: crep.network_from_dict(path_doc()).with_line_capacity(3, 1.0),
        "no line with index 3",
    ),
}


@pytest.mark.parametrize("build,message", SINGLE_VIOLATIONS.values(), ids=SINGLE_VIOLATIONS)
def test_single_violation_message(build, message):
    with pytest.raises(NetworkValidationError) as info:
        build()
    assert str(info.value) == message


MULTIPLE_VIOLATIONS = {
    # node checks in node order, then line checks in line order, then balance,
    # then connectivity
    "node before line": (
        [(1.0, 1.0, 1.0, -1.0), (-0.5, 0.0, 1.0, 0.1), (-0.5, 1.0, 1.0, 0.1)],
        [(2, 2, 2.0), (2, 3, math.nan)],
        "node 1: noise must be >= 0",
    ),
    "line order": (
        [(1.0, 1.0, 1.0, 0.1), (-0.5, 1.0, 1.0, 0.1), (-0.4, 1.0, 1.0, 0.1)],
        [(1, 2, 2.0), (2, 1, 1.0), (2, 3, 0.0)],
        "duplicate line between nodes 2 and 1",
    ),
    "line before balance": (
        [(1.0, 1.0, 1.0, 0.1), (-0.5, 1.0, 1.0, 0.1), (-0.4, 1.0, 1.0, 0.1)],
        [(1, 2, 2.0), (2, 5, 1.0)],
        "line (2,5): unknown node id 5",
    ),
    "balance before connectivity": (
        [(1.0, 1.0, 1.0, 0.1), (-0.5, 1.0, 1.0, 0.1), (-0.4, 1.0, 1.0, 0.1)],
        [(1, 2, 2.0)],
        "power imbalance: sum of injections is 1.000e-01 (must be 0)",
    ),
}


@pytest.mark.parametrize("nodes,lines,message", MULTIPLE_VIOLATIONS.values(),
                         ids=MULTIPLE_VIOLATIONS)
def test_first_violation_is_reported(nodes, lines, message):
    with pytest.raises(NetworkValidationError) as info:
        network_from_arrays(*zip(*nodes), lines)
    assert str(info.value) == message


PARSE_ERRORS = {
    "top level": (lambda: crep.network_from_dict([path_doc()]),
                  "top-level document must be an object"),
    "no lines": (lambda: from_edited_path(lambda doc: doc.pop("lines")),
                 'document must contain "nodes" and "lines"'),
    "nodes object": (lambda: from_edited_path(lambda doc: doc.update(nodes={})),
                     '"nodes" and "lines" must be arrays'),
    "node list": (lambda: from_edited_path(lambda doc: doc["nodes"].append([4, 0.0])),
                  "nodes[3]: expected an object"),
    "node field": (lambda: from_edited_path(lambda doc: doc["nodes"][1].pop("noise")),
                   "nodes[1]: missing fields ['noise']"),
    "string power": (edit_node(0, power="1.0"), "nodes[0].power: expected a number, got '1.0'"),
    "float id": (edit_node(2, id=3.0), "nodes[2].id: expected an integer, got 3.0"),
}


@pytest.mark.parametrize("build,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_message(build, message):
    with pytest.raises(NetworkParseError) as info:
        build()
    assert str(info.value) == message


def test_ragged_arrays_rejected_not_truncated():
    net = two_node_net()
    with pytest.raises(NetworkValidationError, match="1-D"):
        net.with_arrays(power=[0.5, -0.5, 0.0])
    with pytest.raises(NetworkValidationError, match="1-D"):
        net.with_arrays(capacity=[])
    with pytest.raises(NetworkValidationError, match="1-D"):
        crep.Network([1.0, -1.0], [1.0] * 2, [1.0] * 2, [0.0] * 2, [0], [1, 0], [1.0])


def test_line_end_beyond_int64_rejected():
    doc = path_doc()
    doc["lines"][1]["to"] = 2**70
    with pytest.raises(NetworkValidationError, match="line_to"):
        crep.network_from_dict(doc)


@pytest.mark.parametrize("build,message", [
    (lambda: network_from_arrays([0.5, -0.5], [1.0] * 2, [1.0] * 2, [0.1] * 2,
                                 [(1.7, 2.9, 1.0)]),
     "line_from: line ends must be integer node indices"),
    (lambda: crep.Network([0.5, -0.5], [1.0] * 2, [1.0] * 2, [0.1] * 2, [0], [1.2], [1.0]),
     "line_to: line ends must be integer node indices"),
    (lambda: two_node_net().with_added_line(1.5, 2, 1.0),
     "line_from: line ends must be integer node indices"),
    (lambda: crep.Network([0.5, -0.5], [1.0] * 2, [1.0] * 2, [0.1] * 2, [math.nan], [1],
                          [1.0]),
     "line_from: cannot convert float NaN to integer"),
], ids=["network_from_arrays", "Network", "with_added_line", "nan"])
def test_fractional_line_end_rejected_not_truncated(build, message):
    with pytest.raises(NetworkValidationError) as info:
        build()
    assert str(info.value) == message


def test_integral_float_line_ends_are_accepted():
    nodes = ([0.5, -0.5], [1.0] * 2, [1.0] * 2, [0.1] * 2)
    floats = network_from_arrays(*nodes, [(1.0, 2.0, 1.0)])
    assert floats == network_from_arrays(*nodes, [(1, 2, 1.0)])


def test_integer_literal_beyond_float_range_rejected():
    doc = path_doc()
    doc["nodes"][0]["power"] = 10**400
    with pytest.raises(NetworkParseError, match=r"nodes\[0\]\.power"):
        crep.network_from_dict(doc)


def test_undecodable_file_rejected(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(NetworkParseError, match="invalid JSON"):
        load_network(str(path))


def test_derived_network_is_validated_in_full():
    net = random_connected_network(np.random.default_rng(11))
    with pytest.raises(NetworkValidationError, match=r"line \(\d+,\d+\): capacity must be finite"):
        net.with_arrays(capacity=[math.nan] * net.m)
    with pytest.raises(NetworkValidationError, match="inertia must be > 0"):
        net.with_arrays(inertia=np.zeros(net.n))
    with pytest.raises(NetworkValidationError, match="power imbalance"):
        net.with_arrays(power=net.power + 1e-3)


def _replaced(values, position, value):
    out = np.array(values, dtype=object)
    out[position] = value
    return out.tolist()


@pytest.mark.parametrize("field, bad", [
    ("capacity", lambda net: _replaced(net.capacity, 2, math.nan)),
    ("capacity", lambda net: _replaced(net.capacity, -1, 0.0)),
    ("capacity", lambda net: _replaced(net.capacity, 0, -1.0)),
    ("capacity", lambda net: net.capacity[:-1]),
    ("capacity", lambda net: ["wide"] * net.m),
    ("inertia", lambda net: _replaced(net.inertia, 3, 0.0)),
    ("damping", lambda net: _replaced(net.damping, 1, math.inf)),
    ("noise", lambda net: _replaced(net.noise, 4, -0.1)),
    ("power", lambda net: net.power + 1e-3),
    ("power", lambda net: np.append(net.power, 0.0)),
])
def test_derived_network_raises_what_the_constructor_raises(field, bad):
    # with_arrays builds its copy through the constructor
    net = random_connected_network(np.random.default_rng(12), n_min=6)
    arrays = {name: getattr(net, name) for name in (
        "power", "inertia", "damping", "noise", "line_from", "line_to", "capacity")}
    with pytest.raises(NetworkValidationError) as built:
        crep.Network(**{**arrays, field: bad(net)})
    with pytest.raises(NetworkValidationError) as derived:
        net.with_arrays(**{field: bad(net)})
    assert str(derived.value) == str(built.value)


TWO_REPLACED = {
    # a line check runs before the balance
    "capacity and balance": lambda net: {
        "power": net.power + 1e-3, "capacity": _replaced(net.capacity, 1, -1.0)},
    # the earlier node's violation is reported, whichever array holds it
    "damping first": lambda net: {
        "inertia": _replaced(net.inertia, 4, 0.0), "damping": _replaced(net.damping, 2, math.nan)},
    "inertia first": lambda net: {
        "inertia": _replaced(net.inertia, 1, -2.0), "damping": _replaced(net.damping, 3, 0.0)},
    # at one node, every finiteness check runs before the signs
    "one node": lambda net: {
        "inertia": _replaced(net.inertia, 2, 0.0), "noise": _replaced(net.noise, 2, math.inf)},
    # the node checks run before the line checks
    "node before line": lambda net: {
        "capacity": _replaced(net.capacity, 0, 0.0), "noise": _replaced(net.noise, 5, -1.0)},
}


@pytest.mark.parametrize("bad", TWO_REPLACED.values(), ids=TWO_REPLACED)
def test_derived_network_replacing_two_arrays_raises_what_the_constructor_raises(bad):
    net = random_connected_network(np.random.default_rng(12), n_min=6)
    arrays = {name: getattr(net, name) for name in (
        "power", "inertia", "damping", "noise", "line_from", "line_to", "capacity")}
    with pytest.raises(NetworkValidationError) as built:
        crep.Network(**{**arrays, **bad(net)})
    with pytest.raises(NetworkValidationError) as derived:
        net.with_arrays(**bad(net))
    assert str(derived.value) == str(built.value)


def test_derived_network_shares_only_its_fields_and_line_end_caches():
    # a cache of a parameter array must not follow into a copy that replaces it
    net = random_connected_network(np.random.default_rng(13))
    derived = net.with_arrays(capacity=2.0 * net.capacity)
    fields = {"power", "inertia", "damping", "noise", "line_from", "line_to", "capacity"}
    assert set(derived.__dict__) == fields | {"incidence", "line_ends"}
    assert derived.incidence is net.incidence and derived.line_ends is net.line_ends


def test_balance_is_the_sequential_float_sum():
    # the tolerance, TOL = 1e-10 at these injections, applies to their sum
    # added left to right on every Python version; numpy's pairwise sum and
    # the exact sum (close to the builtin sum of Python 3.12 on) fall on its
    # other side
    cases = [
        # left to right 1.00000017e-10, pairwise 9.9999795e-11, exactly 9.999976e-11
        ([0.5, -0.5, 1.0, 9.999976e-11, 0.5, 1.0, -2.0, 1e-10, -0.5, -1e-10], False),
        # left to right 9.9999992e-11, pairwise 1.00000325e-10, exactly 1.0000028e-10
        ([1.0, 0.5, -9.999972e-11, -0.5, 1.0, 0.5, -2.0, -0.5, 1e-10, 1e-10], True),
    ]
    lines = [(i, i + 1, 1.0) for i in range(1, 10)]
    tol = crep.network.TOL
    for power, balanced in cases:
        assert crep.network.balance_tolerance(np.array(power)) == tol
        assert (abs(functools.reduce(operator.add, power)) <= tol) == balanced
        assert (abs(float(np.sum(power))) <= tol) != balanced
        assert (abs(math.fsum(power)) <= tol) != balanced
        args = (power, [1.0] * 10, [1.0] * 10, [0.1] * 10, lines)
        if balanced:
            assert network_from_arrays(*args).n == 10
        else:
            with pytest.raises(NetworkValidationError, match="power imbalance"):
                network_from_arrays(*args)


def test_a_stack_of_rows_raises_what_with_arrays_raises_for_its_first_bad_row():
    net = ring5_net()
    bad_rows = {
        "power": [net.power + 1e-3, _replaced(net.power, 2, math.nan)],
        "inertia": [_replaced(net.inertia, 3, 0.0), _replaced(net.inertia, 1, math.inf)],
        "damping": [_replaced(net.damping, 1, math.nan), _replaced(net.damping, 0, -1.0)],
        "capacity": [_replaced(net.capacity, 4, 0.0), _replaced(net.capacity, 2, math.inf)],
    }
    for name, (first, second) in bad_rows.items():
        valid = getattr(net, name)
        rows = np.array([valid, first, valid, second], dtype=float)
        crep.network.check_rows(net, name, rows[[0, 2]])
        for stack in (rows, rows[[0, 3, 1]]):
            with pytest.raises(NetworkValidationError) as alone:
                net.with_arrays(**{name: stack[1]})
            with pytest.raises(NetworkValidationError, match=f"^{re.escape(str(alone.value))}$"):
                crep.network.check_rows(net, name, stack)
    # the balance of a stack's rows is their sum added left to right: this
    # row's pairwise sum would pass
    balanced = [1.0, 0.5, -9.999972e-11, -0.5, 1.0, 0.5, -2.0, -0.5, 1e-10, 1e-10]
    unbalanced = [0.5, -0.5, 1.0, 9.999976e-11, 0.5, 1.0, -2.0, 1e-10, -0.5, -1e-10]
    path = network_from_arrays(balanced, [1.0] * 10, [1.0] * 10, [0.1] * 10,
                               [(i, i + 1, 1.0) for i in range(1, 10)])
    crep.network.check_rows(path, "power", np.array([balanced]))
    with pytest.raises(NetworkValidationError, match="^power imbalance"):
        crep.network.check_rows(path, "power", np.array([balanced, unbalanced]))


def test_equality_compares_all_arrays():
    net = two_node_net()
    assert net == two_node_net()
    assert net != two_node_net(cap=3.0)
    assert net != two_node_net(noise=(0.0, 0.1))


@pytest.mark.parametrize("scale,slack,balanced", [
    (1.0, 0.9e-10, True), (1.0, 1.1e-10, False), (1.0, 1.1e-9, False),
    # max(TOL, 64 eps sum |P_i|) = 64 eps 2.25e8 = 3.2e-6 at scale 1e8
    (1e8, 2e-7, True), (1e8, 3e-7, True), (1e8, 3.4e-6, False),
])
def test_balance_tolerance_scales_with_the_injections(scale, slack, balanced):
    # dyadic injections: the scaled ones and their sums are exact
    net = ring5_net()
    power = np.array([0.875, -0.25, 0.25, -0.5, -0.375]) * scale
    assert sum(power.tolist()) == 0.0
    power[0] += slack
    if balanced:
        assert net.with_arrays(power=power).n == 5
    else:
        with pytest.raises(NetworkValidationError, match="power imbalance"):
            net.with_arrays(power=power)


def test_balance_tolerance_does_not_overflow():
    # sum |P_i| beyond the float range keeps a finite tolerance, 64 eps 6.8e308
    # = 9.7e294, and a sum beyond the float range is inf and never balances
    huge = 1.7e308
    lines = [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]

    def build(power):
        return network_from_arrays(power, [1.0] * 4, [1.0] * 4, [0.0] * 4, lines)

    tol = crep.network.balance_tolerance(np.array([huge, -huge, huge, -huge]))
    assert tol == 4 * (huge * 2.0**-46)
    assert build([huge, -huge, huge, 9e294 - huge]).n == 4
    for power in ([huge, -huge, huge, 1e295 - huge], [huge, huge, -huge, -huge]):
        with pytest.raises(NetworkValidationError, match="power imbalance"):
            build(power)


TWO_NODES = ([0.5, -0.5], [1.0] * 2, [1.0] * 2, [0.1] * 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: network_from_arrays(*TWO_NODES, [(1, 2)]), NetworkValidationError,
     "lines[0]: expected (from, to, capacity) with numeric ends, got (1, 2)"),
    (lambda: network_from_arrays(*TWO_NODES, [("1", 2, 1.0)]), NetworkValidationError,
     "lines[0]: expected (from, to, capacity) with numeric ends, got ('1', 2, 1.0)"),
    (lambda: network_from_arrays(*TWO_NODES, [(True, 2, 1.0)]), NetworkValidationError,
     "lines[0]: expected (from, to, capacity) with numeric ends, got (True, 2, 1.0)"),
    (lambda: ring5_net().with_line_capacity(1.5, 2.0), NetworkValidationError,
     "no line with index 1.5"),
    (lambda: ring5_net().with_line_capacity(True, 2.0), NetworkValidationError,
     "no line with index True"),
    (lambda: ring5_net().with_added_line("1", 3, 1.0), NetworkValidationError,
     "line (1,3): unknown node id '1'"),
    (lambda: ring5_net().with_added_line(1, True, 1.0), NetworkValidationError,
     "line (1,True): unknown node id True"),
    (lambda: crep.smib_analytic("x", 1.0, 2.0, 1.0, 0.4), ConfigError,
     "inertia must be a real number, got 'x'"),
    (lambda: crep.smib_network("x", 1.0, 2.0, 1.0, 0.4), ConfigError,
     "inertia must be a real number, got 'x'"),
    (lambda: crep.smib_network(1.0, 1.0, 2.0, 1.0, 0.4, bus_scale=None), ConfigError,
     "bus_scale must be a real number, got None"),
], ids=["short-line", "str-end", "bool-end", "fractional-index", "bool-index", "str-id",
        "bool-id", "smib_analytic", "smib_network", "bus_scale"])
def test_public_builders_reject_arguments_that_are_not_numbers(build, error, message):
    # a named error, never a bare ValueError, TypeError or IndexError, and a
    # bool is not read as the index 0 or 1
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: crep.Network(["0.5", "-0.5"], *TWO_NODES[1:], [0], [1], [1.5]),
     "power: expected integers or floats, got <U4"),
    (lambda: crep.Network(*TWO_NODES, [0], [1], ["1.5"]),
     "capacity: expected integers or floats, got <U3"),
    (lambda: crep.Network(*TWO_NODES, [False], [True], [1.5]),
     "line_from: expected integers or floats, got bool"),
    (lambda: crep.Network(*TWO_NODES, [0], np.array([True]), [1.5]),
     "line_to: expected integers or floats, got bool"),
    (lambda: crep.Network(TWO_NODES[0], [True, True], *TWO_NODES[2:], [0], [1], [1.5]),
     "inertia: expected integers or floats, got bool"),
    (lambda: network_from_arrays(["0.5", "-0.5"], *TWO_NODES[1:], [(1, 2, 1.5)]),
     "power: expected integers or floats, got <U4"),
    (lambda: network_from_arrays(*TWO_NODES, [(1, 2, "1.5")]),
     "capacity: expected integers or floats, got <U3"),
    (lambda: two_node_net().with_arrays(damping=[True, True]),
     "damping: expected integers or floats, got bool"),
], ids=["str-power", "str-capacity", "bool-ends", "numpy-bool-end", "bool-inertia",
        "builder-str-power", "builder-str-capacity", "derived-bool-damping"])
def test_constructor_rejects_arrays_that_are_not_integers_or_floats(build, message):
    # a numeric string would parse and a bool would read as the index 0 or 1
    with pytest.raises(NetworkValidationError) as info:
        build()
    assert str(info.value) == message


def test_constructor_accepts_any_integer_or_float_dtype():
    built = crep.Network(*TWO_NODES, np.array([0], np.uint8), np.array([1], np.int32),
                         np.array([1.5], np.float32))
    assert built == crep.Network(*TWO_NODES, [0], [1], [1.5])
