import csv
import json
from dataclasses import fields

import numpy as np
import pytest

import crep
from crep import save_network, smib_network
from crep.cli import main

from conftest import random_connected_network, ring5_net, stagewise_pipeline, two_node_net


def write_net(tmp_path, net, name="net.json"):
    path = tmp_path / name
    save_network(net, path)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_analyze_success(tmp_path):
    path = write_net(tmp_path, two_node_net(p=1.0, cap=2.0, noise=(0.2, 0.1)))
    out = str(tmp_path / "report.json")
    assert main(["analyze", path, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert {"phi", "phi_delta", "phi_omega"} <= set(doc["crep"])
    assert doc["network"]["n"] == 2
    assert doc["config"]["eps"] == 0.02
    assert doc["state"]["phase"][0] == 0.0
    assert "timings" in doc


def test_analyze_infeasible_exit_code(tmp_path, capsys):
    path = write_net(tmp_path, two_node_net(p=3.0, cap=2.0, noise=(0.1, 0.1)))
    assert main(["analyze", path]) == 2
    assert "no admissible synchronous state" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1


def test_analyze_invalid_network(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [], "lines": []}')
    assert main(["analyze", str(path)]) == 1


def test_analyze_non_finite_parameter_exit_code(tmp_path, capsys):
    path = tmp_path / "nan.json"
    text = open(write_net(tmp_path, two_node_net())).read()
    path.write_text(text.replace('"inertia": 1.0', '"inertia": NaN', 1))
    assert main(["analyze", str(path)]) == 1
    assert "inertia must be finite" in capsys.readouterr().err


def test_analyze_report_reproduces_the_stagewise_pipeline(tmp_path):
    rng = np.random.default_rng(39)
    for i in range(4):
        path = write_net(tmp_path, random_connected_network(rng), f"net{i}.json")
        out = str(tmp_path / f"report{i}.json")
        assert main(["analyze", path, "--out", out]) == 0
        doc = json.loads(open(out).read())
        state, model, variance, report = stagewise_pipeline(crep.load_network(path))
        assert doc["variance"] == {
            "sigma2_delta": variance.sigma2_delta.tolist(),
            "sigma2_omega": variance.sigma2_omega.tolist(),
        }
        expected = {f.name: getattr(report, f.name) for f in fields(report)}
        expected.update(f_delta=report.f_delta.tolist(), f_omega=report.f_omega.tolist())
        assert doc["crep"] == expected
        assert doc["state"]["phase"] == state.phase.tolist()
        assert doc["metrics"]["min_re_mu"] == crep.linear_stability(model)
        assert list(doc["timings"]) == ["power_flow", "linearize", "variance", "metrics",
                                        "total"]


def _sweep_column(tmp_path, netfile, param, spec, metric="phi_delta"):
    out = str(tmp_path / f"sweep_{param}.csv")
    code = main([
        "sweep", netfile, "--param", param, "--range", spec,
        "--metrics", metric, "--out", out,
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == [param, metric, "feasible"]
    assert all(row[2] == "true" for row in rows)
    return np.array([float(row[1]) for row in rows])


@pytest.fixture
def smib_file(tmp_path):
    net = smib_network(1.0, 0.7, 2.0, 1.0, 0.4, bus_scale=1e8)
    return write_net(tmp_path, net, "smib.json")


def test_sweep_capacity_decreases_escape(tmp_path, smib_file):
    col = _sweep_column(tmp_path, smib_file, "Lt", "1.2:4.0:6")
    assert np.all(np.diff(col) < 0)


def test_sweep_load_increases_escape(tmp_path, smib_file):
    col = _sweep_column(tmp_path, smib_file, "Pt", "0.2:1.98:6")
    assert np.all(np.diff(col) > 0)
    assert col[-1] > 0.4
    assert col[-1] > 100 * col[0]


def test_sweep_inertia_leaves_escape_constant(tmp_path, smib_file):
    # scale the family total; the machine inertia spans 0.5x to 8x its base
    total = 1.0 + 1e8
    col = _sweep_column(tmp_path, smib_file, "Mt", f"{0.5 * total}:{8.0 * total}:5")
    assert np.ptp(col) <= 1e-6 * np.mean(col)


def test_sweep_flags_infeasible_points(tmp_path, smib_file):
    out = str(tmp_path / "sweep.csv")
    assert main([
        "sweep", smib_file, "--param", "Pt", "--range", "1.0:3.0:5",
        "--metrics", "phi_delta", "--out", out,
    ]) == 0
    header, rows = read_csv(out)
    flags = [row[-1] for row in rows]
    assert "false" in flags and "true" in flags
    for row in rows:
        if row[-1] == "false":
            assert row[1] == ""


def test_sweep_reruns_byte_identically(tmp_path, smib_file):
    payloads = []
    for name in ("s1.csv", "s2.csv"):
        out = str(tmp_path / name)
        assert main([
            "sweep", smib_file, "--param", "Lt", "--range", "1.5:3.0:4",
            "--metrics", "phi_delta,gamma", "--out", out,
        ]) == 0
        payloads.append(open(out, "rb").read())
    assert payloads[0] == payloads[1]


def test_analyze_single_node_network(tmp_path):
    net = crep.network_from_arrays([0.0], [1.0], [0.5], [0.3], [])
    path = write_net(tmp_path, net)
    out = str(tmp_path / "single.json")
    assert main(["analyze", path, "--eps", "0.2", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["crep"]["argmax_line"] is None
    assert doc["crep"]["f_delta"] == []
    assert doc["crep"]["phi"] == doc["crep"]["phi_omega"]


def test_sweep_rejects_unknown_metric(tmp_path, smib_file):
    assert main([
        "sweep", smib_file, "--param", "Lt", "--range", "1:2:2",
        "--metrics", "volts",
    ]) == 1


def test_hitting_time_rejects_zero_samples(tmp_path):
    path = write_net(tmp_path, two_node_net(noise=(0.2, 0.2)))
    assert main(["hitting-time", path, "--samples", "0"]) == 1


def test_hitting_time_zero_noise_exit_code(tmp_path):
    path = write_net(tmp_path, two_node_net(p=0.5, noise=(0.0, 0.0)))
    assert main([
        "hitting-time", path, "--samples", "10", "--tmax", "1.0",
    ]) == 2


def test_hitting_time_byte_identical_runs(tmp_path):
    path = write_net(tmp_path, ring5_net())
    outs = []
    for name, workers in (("a.json", "1"), ("b.json", "4")):
        out = str(tmp_path / name)
        code = main([
            "hitting-time", path, "--samples", "200", "--tmax", "25",
            "--seed", "12", "--exit-mode", "phase_only", "--workers", workers,
            "--out", out,
        ])
        assert code == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["config"]["master_seed"] == 12
    assert doc["estimate"]["n_exited"] + doc["estimate"]["n_censored"] == 200


def test_optimize_round_trip(tmp_path):
    path = write_net(tmp_path, ring5_net())
    out = str(tmp_path / "result.json")
    net_out = str(tmp_path / "optimized.json")
    code = main([
        "optimize", path, "--decision", "line_capacity",
        "--objective", "crep_phi_delta", "--seed", "1", "--max-evals", "400",
        "--out", out, "--network-out", net_out,
    ])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["result"]["feasible"] is True
    assert doc["result"]["objective_final"] <= doc["result"]["objective_initial"]

    optimized = crep.load_network(net_out)
    report = crep.crep(optimized, eps=doc["config"]["eps"])
    assert abs(report.phi_delta - doc["result"]["objective_final"]) <= 1e-12


def test_optimize_degenerate_bounds_single_evaluation(tmp_path):
    path = write_net(tmp_path, ring5_net())
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"lower": 1.0, "upper": 1.0}))
    out = str(tmp_path / "result.json")
    code = main([
        "optimize", path, "--decision", "line_capacity", "--budget", "5.0",
        "--bounds", str(bounds), "--out", out,
        "--network-out", str(tmp_path / "same.json"),
    ])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["result"]["evaluations"] == 1
    assert doc["result"]["theta"] == [1.0] * 5


def test_optimize_no_feasible_point_exit_code(tmp_path):
    path = write_net(tmp_path, two_node_net(p=1.0, cap=2.0, noise=(0.1, 0.1)))
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"lower": 0.5, "upper": 0.9}))
    assert main([
        "optimize", path, "--decision", "line_capacity", "--budget", "0.8",
        "--bounds", str(bounds), "--max-evals", "40",
        "--network-out", str(tmp_path / "n.json"),
    ]) == 3


def test_optimize_infeasible_spec_exit_code(tmp_path):
    path = write_net(tmp_path, ring5_net())
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"lower": 2.0, "upper": 3.0}))
    # budget 5 below the lower-bound sum 10
    assert main([
        "optimize", path, "--decision", "line_capacity", "--budget", "5.0",
        "--bounds", str(bounds),
        "--network-out", str(tmp_path / "n.json"),
    ]) == 2


def test_braess_noop_unchanged(tmp_path):
    path = write_net(tmp_path, two_node_net(p=1.0, cap=2.0, noise=(0.3, 0.2)))
    out = str(tmp_path / "braess.json")
    assert main([
        "braess", path, "--set-capacity", "1:2.0", "--out", out,
    ]) == 0
    doc = json.loads(open(out).read())
    assert all(v == "unchanged" for v in doc["verdicts"].values())
    assert doc["capacity_added"] is False


def test_braess_capacity_increase_improves(tmp_path):
    path = write_net(tmp_path, two_node_net(p=1.0, cap=2.0, noise=(0.3, 0.2)))
    out = str(tmp_path / "braess.json")
    assert main(["braess", path, "--set-capacity", "1:3.0", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["verdicts"]["f_delta_norm"] == "improves"


def test_braess_triangle_with_hitting_time(tmp_path):
    net = crep.network_from_arrays(
        [0.6, -0.2, -0.4], [1.0] * 3, [0.8] * 3, [0.4, 0.3, 0.2],
        [(1, 2, 1.5), (2, 3, 1.5)],
    )
    path = write_net(tmp_path, net)
    out = str(tmp_path / "braess.json")
    code = main([
        "braess", path, "--add-line", "3:1:1.0", "--with-hitting-time",
        "--samples", "60", "--tmax", "15", "--eps", "0.5",
        "--exit-mode", "both", "--out", out,
    ])
    assert code == 0
    doc = json.loads(open(out).read())
    assert set(doc["verdicts"]) == {"f_delta_norm", "min_re_mu", "gamma", "hitting_time"}
    assert doc["hitting_before"] is not None


def test_braess_requires_exactly_one_change(tmp_path):
    path = write_net(tmp_path, two_node_net(noise=(0.1, 0.1)))
    assert main(["braess", path]) == 1
    assert main([
        "braess", path, "--set-capacity", "1:2.0", "--add-line", "1:2:1.0",
    ]) == 1
