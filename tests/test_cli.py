import csv
import hashlib
import json
import os
import shutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import crep
from crep import save_network, smib_network
from crep.cli import UsageError, main, scale_network

from conftest import random_connected_network, ring5_net, stagewise_pipeline, two_node_net

DEMO_RING5 = Path(__file__).resolve().parents[1] / "demo" / "ring5.json"


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
        assert doc["metrics"]["min_re_mu"] == variance.min_re_mu
        assert list(doc["timings"]) == ["power_flow", "variance", "metrics", "total"]


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


def test_hitting_time_rejects_negative_seed(tmp_path):
    path = write_net(tmp_path, two_node_net(noise=(0.2, 0.2)))
    assert main(["hitting-time", path, "--samples", "4", "--seed", "-1"]) == 1


def test_hitting_time_rejects_a_step_count_past_int64(tmp_path, capsys):
    path = write_net(tmp_path, two_node_net(noise=(0.2, 0.2)))
    argv = ["hitting-time", path, "--samples", "4", "--dt", "1e-310", "--tmax", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: t_max / dt must be < 2**63, got inf\n"


def test_hitting_time_config_has_exactly_the_sim_config_fields(tmp_path):
    path = write_net(tmp_path, two_node_net(p=0.5, noise=(0.4, 0.4)))
    out = str(tmp_path / "hit.json")
    assert main([
        "hitting-time", path, "--samples", "8", "--tmax", "5", "--eps", "0.05",
        "--out", out,
    ]) == 0
    doc = json.loads(open(out).read())
    assert list(doc["config"]) == [f.name for f in fields(crep.SimConfig)]


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
    estimate = doc["estimate"]
    assert estimate["n_exited"] + estimate["n_censored"] == 200
    assert estimate["censored_fraction"] == estimate["n_censored"] / 200
    assert estimate["mean_mle"] >= estimate["mean"]


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


def test_report_hashes_the_input_as_it_was_loaded(tmp_path):
    # --network-out may write over the input; the report still names what was loaded
    path = tmp_path / "in.json"
    shutil.copy(DEMO_RING5, path)
    loaded = hashlib.sha256(path.read_bytes()).hexdigest()
    out = tmp_path / "rep.json"
    assert main([
        "optimize", str(path), "--decision", "line_capacity", "--max-evals", "40",
        "--network-out", str(path), "--out", str(out),
    ]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() != loaded
    assert json.loads(out.read_text())["network"]["sha256"] == loaded


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_network_out_naming_the_report_is_rejected_before_any_work(
    tmp_path, capsys, monkeypatch, spelling
):
    def no_work(*args, **kwargs):
        raise AssertionError("optimize ran although its two outputs are one file")

    monkeypatch.setattr(crep.cli, "optimize", no_work)
    path = write_net(tmp_path, ring5_net())
    out = str(tmp_path / "r.json")
    network_out = out if spelling == "same" else os.path.join(str(tmp_path), ".", "r.json")
    assert main([
        "optimize", path, "--decision", "line_capacity", "--out", out,
        "--network-out", network_out,
    ]) == 1
    assert capsys.readouterr().err == (
        f"error: --network-out and --out name the same file: {out}\n"
    )
    assert not os.path.exists(out)


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


def _exit_case_files(tmp_path):
    """Inputs for one case per row of the CLI's exit table, by placeholder name."""
    overloaded = two_node_net(p=3.0, cap=2.0, noise=(0.1, 0.1))
    with pytest.raises(crep.SynchronousStateError) as info:
        crep.solve_synchronous_state(overloaded)
    for name, doc in (("wide", {"lower": 2.0, "upper": 3.0}),
                      ("narrow", {"lower": 0.5, "upper": 0.9})):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return {
        "tmp": str(tmp_path),
        "overloaded": write_net(tmp_path, overloaded, "overloaded.json"),
        "no_state": str(info.value),
        "ring5": write_net(tmp_path, ring5_net(), "ring5.json"),
        "two_node": write_net(tmp_path, two_node_net(p=1.0, cap=2.0), "two.json"),
        "quiet": write_net(tmp_path, two_node_net(p=0.5, noise=(0.0, 0.0)), "quiet.json"),
    }


EXIT_TABLE_ROWS = {
    "SynchronousStateError": (
        ["analyze", "{overloaded}"], 2, "error: no admissible synchronous state ({no_state})",
    ),
    "InfeasibleSpecError": (
        ["optimize", "{ring5}", "--decision", "line_capacity", "--budget", "5.0",
         "--bounds", "{tmp}/wide.json", "--network-out", "{tmp}/n.json"],
        2,
        "error: infeasible specification (budget 5.0 outside [sum(lower), sum(upper)] = "
        "[10.0, 15.0])",
    ),
    "AllCensoredError": (
        ["hitting-time", "{quiet}", "--samples", "10", "--tmax", "1.0"],
        2, "error: no trajectory exited before t_max=1.0 (all 10 censored)",
    ),
    "NoFeasiblePointError": (
        ["optimize", "{two_node}", "--decision", "line_capacity", "--budget", "0.8",
         "--bounds", "{tmp}/narrow.json", "--max-evals", "40",
         "--network-out", "{tmp}/n.json"],
        3, "error: no evaluated candidate admitted an in-domain synchronous state",
    ),
    "CrepError": (
        ["analyze", "{tmp}/absent.json"],
        1, "error: network file not found: {tmp}/absent.json",
    ),
}


@pytest.mark.parametrize("argv,code,line", EXIT_TABLE_ROWS.values(), ids=EXIT_TABLE_ROWS)
def test_exit_table_row(tmp_path, capsys, argv, code, line):
    files = _exit_case_files(tmp_path)
    assert main([arg.format(**files) for arg in argv]) == code
    assert capsys.readouterr().err == line.format(**files) + "\n"


def test_error_outside_crep_error_propagates(tmp_path, capsys, monkeypatch):
    # a ValueError from inside a stage is a bug, not an input error
    def broken(*args):
        raise ValueError("internal failure")

    monkeypatch.setattr(crep.escape, "solve_lyapunov", broken)
    # unequal damping ratios keep the variance stage on the Lyapunov path
    path = write_net(tmp_path, two_node_net(damping=(1.0, 1.5), noise=(0.2, 0.1)))
    with pytest.raises(ValueError, match="internal failure"):
        main(["analyze", path])
    assert "error:" not in capsys.readouterr().err


def test_braess_bad_workers_is_not_blamed_on_the_base_network(tmp_path, capsys):
    path = write_net(tmp_path, ring5_net())
    assert main([
        "braess", path, "--set-capacity", "2:1.5", "--with-hitting-time",
        "--samples", "20", "--tmax", "50", "--workers", "0",
    ]) == 1
    err = capsys.readouterr().err
    assert err == "error: n_workers must be an int >= 1, got 0\n"


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["sweep", "--param", "Lt", "--range", "3:6:2"],
    ["optimize", "--decision", "line_capacity", "--max-evals", "40"],
    ["braess", "--add-line", "1:3:1.0"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.02"])
def test_eps_outside_the_open_half_line_exit_code(tmp_path, capsys, command, eps):
    path = write_net(tmp_path, ring5_net())
    argv = [command[0], path, *command[1:], "--eps", eps]
    if command[0] == "optimize":
        argv += ["--network-out", str(tmp_path / "n.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: eps must be finite and > 0, got ")


@pytest.mark.parametrize("doc,field", [
    ({"indices": [[1]]}, "'indices'"),
    ({"indices": [1.7, 2.2]}, "'indices'"),
    ({"indices": ["1", "2"]}, "'indices'"),
    ({"indices": [True, 2]}, "'indices'"),
    ({"lower": "abc"}, "'lower'"),
    ({"upper": [3.0, 3.0, 3.0, 3.0, None]}, "'upper'"),
    ({"upper": True}, "'upper'"),
    ({"lower": [0.1, 0.1]}, "'lower'"),
    (5, "JSON object"),
    ({"lower": 10**400}, "'lower'"),
    ({"upper": [3.0, 3.0, 3.0, 3.0, -10**400]}, "'upper'"),
])
def test_bounds_file_values_are_type_checked(tmp_path, capsys, doc, field):
    path = write_net(tmp_path, ring5_net())
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps(doc))
    assert main([
        "optimize", path, "--decision", "line_capacity", "--bounds", str(bounds),
        "--max-evals", "40", "--network-out", str(tmp_path / "n.json"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bounds ") and field in err


@pytest.mark.parametrize("flags,message", [
    (["--max-evals", "0"], "max_evals must be an int >= 1, got 0"),
    (["--max-evals", "-5"], "max_evals must be an int >= 1, got -5"),
    (["--seed", "-1"], "seed must be an int >= 0, got -1"),
])
def test_optimize_rejects_bad_search_settings(tmp_path, capsys, flags, message):
    path = write_net(tmp_path, ring5_net())
    assert main([
        "optimize", path, "--decision", "line_capacity", *flags,
        "--network-out", str(tmp_path / "n.json"),
    ]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("budget", [[], ["--budget", "5.0"]], ids=["default", "given"])
@pytest.mark.parametrize("indices", [[9], [0], [2, 6], [10**30], [1, -10**30]])
def test_bounds_file_index_out_of_range_exit_code(tmp_path, capsys, indices, budget):
    # the default budget sums the indexed lines, so the range is checked first
    path = write_net(tmp_path, ring5_net())
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"indices": indices}))
    assert main([
        "optimize", path, "--decision", "line_capacity", "--bounds", str(bounds),
        *budget, "--max-evals", "40", "--network-out", str(tmp_path / "n.json"),
    ]) == 2
    assert capsys.readouterr().err == (
        "error: infeasible specification (line index out of range)\n"
    )


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--param", "Lt", "--range", "1:nan:3"], "--range bounds must be finite, got '1:nan:3'"),
    (["sweep", "--param", "Lt", "--range", "1:inf:3"], "--range bounds must be finite, got '1:inf:3'"),
    (["sweep", "--param", "Pt", "--range", "inf:2:3"], "--range bounds must be finite, got 'inf:2:3'"),
    (["optimize", "--decision", "line_capacity", "--budget", "nan"], "--budget must be finite, got nan"),
    (["optimize", "--decision", "damping", "--budget", "inf"], "--budget must be finite, got inf"),
], ids=["range-nan", "range-inf", "range-lo-inf", "budget-nan", "budget-inf"])
def test_non_finite_range_or_budget_blames_its_flag(tmp_path, capsys, argv, message):
    path = write_net(tmp_path, ring5_net())
    argv = [argv[0], path, *argv[1:]]
    if argv[0] == "optimize":
        argv += ["--max-evals", "40", "--network-out", str(tmp_path / "n.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("total", [0.0, -1.0, float("nan")])
def test_scale_network_rejects_a_total_that_is_not_positive(total):
    with pytest.raises(UsageError, match="must be > 0"):
        scale_network(ring5_net(), "Lt", total)


def test_a_sweep_past_the_variance_range_reports_infeasible_points(tmp_path):
    # ring5's variances overflow at these capacity totals; a NaN variance
    # would reach the escape stage, which rejects it with a ValueError
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", str(DEMO_RING5), "--param", "Lt",
                     "--range", "1e308:1.7e308:2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [(row[0], row[-1]) for row in rows] == [("1e+308", "false"), ("1.7e+308", "false")]


@pytest.mark.parametrize("argv,code,message", [
    (["sweep", "--param", "Lt", "--range", "3:10:100000000000000000000"], 1,
     "--range allows at most 1000000 steps, got 100000000000000000000"),
    (["braess", "--add-line", "1:99999999999999999999:1.0"], 1,
     "line (1,99999999999999999999): unknown node id 99999999999999999999"),
    (["optimize", "--decision", "generation", "--budget", "1e308"], 2,
     "infeasible specification (generation budget 1e+308 does not balance the "
     "fixed injections (1.1 required))"),
    (["optimize", "--decision", "line_capacity", "--budget", "1e308"], 3,
     "no evaluated candidate was feasible; the first with a state failed with "
     "LyapunovSolveError: the closed-form covariance overflows: a denominator or an "
     "entry is not finite in double precision"),
], ids=["range-steps", "add-line-id", "generation-budget", "capacity-budget"])
def test_huge_flag_values_exit_with_one_error_line(tmp_path, capsys, argv, code, message):
    argv = [argv[0], str(DEMO_RING5), *argv[1:]]
    if argv[0] == "optimize":
        argv += ["--max-evals", "40", "--network-out", str(tmp_path / "n.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "n.json").exists()


#: every output path flag, after the command and its required flags
OUTPUT_FLAGS = pytest.mark.parametrize("command,flag", [
    (["analyze"], "--out"),
    (["sweep", "--param", "Lt", "--range", "3:6:2"], "--out"),
    (["hitting-time", "--samples", "10"], "--out"),
    (["optimize", "--decision", "line_capacity"], "--out"),
    (["optimize", "--decision", "line_capacity"], "--network-out"),
    (["braess", "--add-line", "1:3:1.0"], "--out"),
], ids=lambda value: value if isinstance(value, str) else value[0])


@pytest.fixture
def no_work(monkeypatch):
    """Make every command's work function fail if it is called."""
    def fail(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    for name in ("Analysis", "metrics_bundle", "estimate_hitting_time", "optimize",
                 "braess_compare"):
        monkeypatch.setattr(crep.cli, name, fail)


@OUTPUT_FLAGS
def test_output_in_a_missing_directory_is_rejected_before_any_work(
    tmp_path, capsys, no_work, command, flag
):
    path = write_net(tmp_path, ring5_net())
    missing = tmp_path / "missing"
    assert main([command[0], path, *command[1:], flag, str(missing / "x.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: argument {flag}: directory does not exist: {missing}\n"
    )
    assert not missing.exists()


@OUTPUT_FLAGS
@pytest.mark.parametrize("target", ["empty", "directory"])
def test_empty_or_directory_output_path_is_rejected_before_any_work(
    tmp_path, capsys, no_work, command, flag, target
):
    path = write_net(tmp_path, ring5_net())
    value, reason = ("", "empty path") if target == "empty" else (
        str(tmp_path), f"is a directory: {tmp_path}")
    assert main([command[0], path, *command[1:], flag, value]) == 1
    assert capsys.readouterr().err == f"error: argument {flag}: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["net.json"]
