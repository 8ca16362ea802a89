import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpknl import GaussianPacket, ModelParams, SampledDensity, checks
from fpknl.cli import SCHEMA, _grid_axis, main

ROOT = Path(__file__).resolve().parents[1]


def base_config(outdir, task="evolve", **overrides):
    cfg = {
        "task": task,
        "model": {
            "dimension": 1,
            "drift": [[1.0]],
            "coupling_state": [[0.0]],
            "coupling_mean": [[-0.5]],
            "diffusion": 0.1,
            "coupling": 1.0,
        },
        "initial": {
            "kind": "gaussian",
            "components": [
                {"weight": 1.0, "mean": [0.5], "num": [[1.0]], "den": [[1.0]]}
            ],
        },
        "time": {"start": 0.0, "end": 1.0, "snapshots": [0.0, 1.0]},
        "grid": {"x_min": -6.0, "x_max": 6.0, "nodes": 241},
        "output": {"dir": str(outdir), "prefix": "t"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_print_schema_emits_valid_json(capsys):
    assert main(["print-schema"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == SCHEMA


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["extra_block"] = {}
    rc = main(["run", str(write_config(tmp_path, cfg))])
    assert rc == 2
    assert "schema" in capsys.readouterr().err


def test_importing_the_cli_leaves_jsonschema_unloaded():
    # only load_config validates a config; a caller that imports the module
    # and never loads one (the benchmark's workers) paid for importing
    # jsonschema all the same.  A fresh interpreter: this one has loaded it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import sys, fpknl.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))"],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_evolve_task_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    rc = main(["run", str(write_config(tmp_path, cfg))])
    assert rc == 0
    csv = (out / "t_snapshots.csv").read_text().splitlines()
    assert csv[0] == "t,x,u"
    assert len(csv) == 1 + 2 * 241
    report = json.loads((out / "t_report.json").read_text())
    assert report["all_passed"]
    assert all(c["passed"] for c in report["checks"])
    meta = json.loads((out / "t_meta.json").read_text())
    assert meta["config"]["task"] == "evolve"


def test_evolve_identity_snapshot_equals_initial(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["time"] = {"start": 0.0, "end": 0.0, "snapshots": [0.0]}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    rows = np.loadtxt(out / "t_snapshots.csv", delimiter=",", skiprows=1)
    x, u = rows[:, 1], rows[:, 2]
    expected = np.sqrt(1.0 / (2 * np.pi * 0.1)) * np.exp(-(x - 0.5) ** 2 / (2 * 0.1))
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_symmetry_identity_operator_returns_solution(tmp_path):
    out_sym = tmp_path / "sym"
    cfg = base_config(out_sym, task="symmetry",
                      symmetry={"operator": {"const": 1.0, "lin": [0.0],
                                             "grad": [0.0]}})
    cfg["time"]["snapshots"] = [1.0]
    assert main(["run", str(write_config(tmp_path, cfg, "sym.json"))]) == 0

    out_ev = tmp_path / "ev"
    cfg2 = base_config(out_ev)
    cfg2["time"]["snapshots"] = [1.0]
    assert main(["run", str(write_config(tmp_path, cfg2, "ev.json"))]) == 0

    a = np.loadtxt(out_sym / "t_snapshots.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(out_ev / "t_snapshots.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_symmetry_linsym_task(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, task="symmetry",
                      symmetry={"operator": "linsym", "image_moment": [0.2]})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    report = json.loads((out / "t_report.json").read_text())
    assert report["all_passed"]
    assert report["alpha"] == pytest.approx(0.0, abs=1e-14)
    assert report["normalized"] is False


def test_inverse_task_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, task="inverse")
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    report = json.loads((out / "t_report.json").read_text())
    assert report["roundtrip_error"] <= 1e-12


def test_deterministic_artifacts(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = base_config(out)
        assert main(["run", str(write_config(tmp_path, cfg, f"{name}.json"))]) == 0
        outs.append(out)
    assert (outs[0] / "t_snapshots.csv").read_bytes() == \
        (outs[1] / "t_snapshots.csv").read_bytes()
    assert (outs[0] / "t_report.json").read_bytes() == \
        (outs[1] / "t_report.json").read_bytes()


def test_outdir_env_override(tmp_path, monkeypatch):
    forced = tmp_path / "forced"
    monkeypatch.setenv("FPKNL_OUTDIR", str(forced))
    cfg = base_config(tmp_path / "ignored")
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    assert (forced / "t_report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_numerical_domain_error_exit_code(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["initial"]["components"][0]["num"] = [[-1.0]]  # indefinite shape
    rc = main(["run", str(write_config(tmp_path, cfg))])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_singular_den_is_a_focal_point_where_the_initial_is_built(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["initial"]["components"][0]["den"] = [[0.0]]
    assert main(["run", str(write_config(tmp_path, cfg))]) == 3
    assert "numerical error: FocalPointError" in capsys.readouterr().err


EYE2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("component, message", [
    ({"num": [[1.0, 0.0]]}, "packet needs"),
    ({"mean": [0.5], "num": EYE2, "den": [[1.0]]}, "packet needs"),
    ({"mean": [0.5, 0.0], "num": EYE2, "den": EYE2}, "mixture needs"),
], ids=["num-shape", "second-num-shape", "second-dimension"])
def test_gaussian_component_shapes_are_config_errors(tmp_path, capsys, component, message):
    # the first two used to end in a numpy ValueError traceback, exit code 1
    # ("a check failed"), the third in InvalidCovarianceError, exit code 3
    cfg = base_config(tmp_path / "out")
    comps = cfg["initial"]["components"]
    if "mean" in component:
        comps.append(component)
    else:
        comps[0].update(component)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["weight", "image_moment", "grid"])
def test_non_finite_inputs_are_config_errors(tmp_path, capsys, case):
    # a NaN weight used to exit 3 blaming the horizon, a NaN image moment
    # to spin forever in mixture evaluation, and a NaN grid origin to exit
    # 0 with every CSV value nan and every check passing
    cfg = base_config(tmp_path / "out")
    if case == "weight":
        cfg["initial"]["components"][0]["weight"] = float("nan")
    elif case == "image_moment":
        cfg = base_config(tmp_path / "out", task="symmetry",
                          symmetry={"operator": "linsym", "image_moment": [float("nan")]})
    else:
        cfg["grid"]["x_min"] = float("nan")
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "moment_override" not in err


@pytest.mark.parametrize("task", ["evolve", "inverse", "symmetry", "sampled-evolve",
                                  "sampled-inverse"])
def test_initial_dimension_must_match_the_model(tmp_path, capsys, task):
    # the messages used to name internal arguments (x_start, x_u_t)
    cfg = base_config(tmp_path / "out", task=task.removeprefix("sampled-"))
    if task.startswith("sampled-"):
        cfg["model"].update(dimension=2, drift=EYE2, coupling_state=EYE2,
                            coupling_mean=EYE2)
        cfg["initial"] = {"kind": "sampled", "path": str(sampled_csv(tmp_path))}
        dims = (1, 2)
    else:
        cfg["initial"]["components"][0].update(mean=[0.5, 0.0], num=EYE2, den=EYE2)
        dims = (2, 1)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert ("the initial block has dimension {}, but model.dimension is {}".format(*dims)
            in err)


def sampled_csv(tmp_path, eps=0.5, mean=0.3, nodes=401):
    x = np.linspace(-8.0, 8.0, nodes)
    u = np.exp(-(x - mean) ** 2 / (2 * eps)) / np.sqrt(2 * np.pi * eps)
    path = tmp_path / "initial.csv"
    np.savetxt(path, np.column_stack([x, u]), delimiter=",")
    return path


def _config_refusal(tmp_path, case):
    """The base config edited into one that each task refuses, and the
    message it names."""
    cfg = base_config(tmp_path / "out")
    two_d = {"dimension": 2, "drift": EYE2, "coupling_state": EYE2, "coupling_mean": EYE2}
    if case == "dimension":
        cfg["model"]["dimension"] = 2
        return cfg, "dimension 2 does not match matrix shape 1"
    if case in ("no-initial", "no-time", "no-grid"):
        block = case.removeprefix("no-")
        del cfg[block]
        return cfg, f"this task needs a{'n' if block == 'initial' else ''} {block} block"
    if case == "gaussian-no-components":
        cfg["initial"] = {"kind": "gaussian"}
        return cfg, "gaussian initial needs components"
    if case == "sampled-no-path":
        cfg["initial"] = {"kind": "sampled"}
        return cfg, "sampled initial needs a path"
    if case == "three-columns":
        path = tmp_path / "three.csv"
        path.write_text("0.0,1.0,2.0\n0.1,1.0,2.0\n")
        cfg["initial"] = {"kind": "sampled", "path": str(path)}
        return cfg, "sampled initial must be two CSV columns: x,u"
    if case == "analytic-2d-evolve":
        cfg["model"].update(two_d)
        cfg["initial"]["components"][0].update(mean=[0.5, 0.0], num=EYE2, den=EYE2)
        return cfg, "analytic CSV output is one-dimensional"
    if case == "symmetry-2d":
        cfg = base_config(tmp_path / "out", task="symmetry")
        cfg["model"].update(two_d)
        return cfg, "the symmetry task is one-dimensional"
    cfg = base_config(tmp_path / "out", task="symmetry")
    cfg["initial"] = {"kind": "sampled", "path": str(sampled_csv(tmp_path))}
    return cfg, "the symmetry task needs a gaussian initial block"


@pytest.mark.parametrize("case", [
    "dimension", "no-initial", "no-time", "no-grid", "gaussian-no-components",
    "sampled-no-path", "three-columns", "analytic-2d-evolve", "symmetry-2d",
    "symmetry-sampled"])
def test_config_refusals_name_their_cause(tmp_path, capsys, case):
    cfg, message = _config_refusal(tmp_path, case)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_sampled_initial_evolve_and_inverse(tmp_path):
    data = sampled_csv(tmp_path)
    for task, key, tol in (("evolve", None, None),
                           ("inverse", "roundtrip_error", 1e-4)):
        out = tmp_path / task
        cfg = base_config(out, task=task)
        cfg["model"]["diffusion"] = 0.5
        cfg["initial"] = {"kind": "sampled", "path": str(data)}
        cfg["time"] = {"start": 0.0, "end": 0.1, "snapshots": [0.1]}
        assert main(["run", str(write_config(tmp_path, cfg, f"{task}.json"))]) == 0
        report = json.loads((out / "t_report.json").read_text())
        assert report["all_passed"]
        if key is not None:
            assert report[key] <= tol


def test_sampled_initial_requires_uniform_grid(tmp_path):
    x = np.array([0.0, 0.1, 0.25, 0.4])
    u = np.ones(4)
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.column_stack([x, u]), delimiter=",")
    cfg = base_config(tmp_path / "out")
    cfg["initial"] = {"kind": "sampled", "path": str(path)}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2


def test_a_one_row_sampled_initial_names_the_missing_node(tmp_path, capsys):
    # one row of x,u has both columns but a single grid node
    path = tmp_path / "one.csv"
    path.write_text("0.0,1.0\n")
    cfg = base_config(tmp_path / "out")
    cfg["initial"] = {"kind": "sampled", "path": str(path)}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "needs at least two grid nodes, got 1" in err and "columns" not in err


def test_a_sampled_initial_with_a_header_row_is_a_config_error(tmp_path, capsys):
    # the header's "x" used to escape np.loadtxt as a raw ValueError, exit 1
    path = tmp_path / "header.csv"
    path.write_text("x,u\n0.0,1.0\n0.1,1.0\n")
    cfg = base_config(tmp_path / "out")
    cfg["initial"] = {"kind": "sampled", "path": str(path)}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot read samples {path}" in err


def test_an_empty_sampled_initial_names_the_missing_nodes(tmp_path, capsys):
    # an empty file used to leak numpy's "input contained no data" warning,
    # then blame the columns
    path = tmp_path / "empty.csv"
    path.write_text("")
    cfg = base_config(tmp_path / "out")
    cfg["initial"] = {"kind": "sampled", "path": str(path)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert "needs at least two grid nodes, got 0" in err and "columns" not in err


def test_verify_task_quick_checks(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, task="verify",
                      verify={"checks": ["matriciant-laws", "roundtrip"]})
    assert main(["verify", str(write_config(tmp_path, cfg))]) == 0
    report = json.loads((out / "t_report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "matriciant-compose-nn" in names and "roundtrip-quadrature" in names


@pytest.mark.parametrize("initial", ["gaussian", "sampled"])
def test_verify_runs_checks_on_configured_model(tmp_path, monkeypatch, initial):
    # without a gaussian initial block the checks keep the configured model
    # and take the reference packet
    names = ["mass-conservation", "roundtrip", "symmetry-routes", "symmetry-residual"]
    reports, closed_form_models = {}, []
    real_closed_form = checks.linsym_closed_form

    def recording_closed_form(params, *args):
        closed_form_models.append((float(params.drift[0, 0]), params.diffusion))
        return real_closed_form(params, *args)

    monkeypatch.setattr(checks, "linsym_closed_form", recording_closed_form)
    for label, drift, eps, mean, num in (("reference", 1.0, 0.1, 0.5, 1.0),
                                         ("configured", 2.0, 0.05, 0.3, 1.5)):
        out = tmp_path / label
        cfg = base_config(out, task="verify", verify={"checks": names})
        cfg["model"].update(drift=[[drift]], diffusion=eps)
        cfg["initial"]["components"][0].update(mean=[mean], num=[[num]])
        if initial == "sampled":
            cfg["initial"] = {"kind": "sampled", "path": str(sampled_csv(tmp_path))}
        assert main(["verify", str(write_config(tmp_path, cfg, f"{label}.json"))]) == 0
        report = json.loads((out / "t_report.json").read_text())
        reports[label] = {c["name"]: c for c in report["checks"]}
    # the analytic roundtrip is exact (0.0) for both models, so the
    # quadrature one stands for the roundtrip check
    for name in ("roundtrip-quadrature", "symmetry-routes", "symmetry-residual-order"):
        assert reports["configured"][name] != reports["reference"][name], name
    # symmetry-closed-form is rounding noise that both models may share
    # (4.4e-16 each), so the check is asked which model it compared
    assert closed_form_models == [(1.0, 0.1), (2.0, 0.05)]


def test_verify_roundtrip_quadrature_follows_configured_model(tmp_path):
    # drift 1 and drift 2 used to report the same fixed-case value
    values = []
    for drift in (1.0, 2.0):
        out = tmp_path / f"drift{drift:g}"
        cfg = base_config(out, task="verify", verify={"checks": ["roundtrip"]})
        cfg["model"]["drift"] = [[drift]]
        assert main(["verify", str(write_config(tmp_path, cfg, f"d{drift:g}.json"))]) == 0
        report = json.loads((out / "t_report.json").read_text())
        values += [c["value"] for c in report["checks"]
                   if c["name"] == "roundtrip-quadrature"]
    assert len(values) == 2 and values[0] != values[1]
    # the sampled half is 1D only: a 2D model runs it on the reference case
    # and says so
    p2 = ModelParams(drift=np.eye(2), coupling_state=np.zeros((2, 2)),
                     coupling_mean=-0.5 * np.eye(2), diffusion=0.1, coupling=1.0)
    pk2 = GaussianPacket(mean=[0.5, 0.0], num=np.eye(2), den=np.eye(2))
    quad = [r for r in checks.check_roundtrip(p2, pk2) if r.name == "roundtrip-quadrature"]
    ref = [r for r in checks.check_roundtrip() if r.name == "roundtrip-quadrature"]
    assert quad[0].value == ref[0].value and "reference case" in quad[0].detail


def test_verify_reports_failure_with_exit_one(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out, task="verify",
                      verify={"checks": ["fd-reduction"],
                              "fd": {"dt": 1e-3, "refine": False}})
    cfg["grid"]["nodes"] = 61
    cfg["time"] = {"start": 0.0, "end": 0.2}
    rc = main(["verify", str(write_config(tmp_path, cfg))])
    assert rc == 1  # grid is far too coarse for the 5e-3 tolerance
    report = json.loads((out / "t_report.json").read_text())
    assert not report["all_passed"]


def test_shipped_verify_quick_config_passes(tmp_path, monkeypatch):
    monkeypatch.setenv("FPKNL_OUTDIR", str(tmp_path))
    assert main(["verify", str(ROOT / "configs" / "verify_quick.json")]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_passed"]
    assert {c["name"] for c in report["checks"]} >= {"quadrature-mass", "reduction-linf"}


def test_verify_runs_checks_on_first_component_at_unit_weight(tmp_path, monkeypatch):
    # two components of weight 0.5: the checks used to get the first at weight
    # 0.5 and raise NormalizationError or fail fd-reduction; at unit weight it
    # is the single packet of verify_quick, so every value but the wall time
    # must be the same bit for bit
    cfg = json.loads((ROOT / "configs" / "verify_quick.json").read_text())
    reports = {}
    for label in ("single", "mixture"):
        if label == "mixture":
            cfg["initial"]["components"] = [
                {"weight": 0.5, "mean": [0.5], "num": [[1.0]], "den": [[1.0]]},
                {"weight": 0.5, "mean": [-0.5], "num": [[1.0]], "den": [[1.0]]}]
        monkeypatch.setenv("FPKNL_OUTDIR", str(tmp_path / label))
        assert main(["verify", str(write_config(tmp_path, cfg, f"{label}.json"))]) == 0
        report = json.loads((tmp_path / label / "verify_report.json").read_text())
        reports[label] = {c["name"]: c["value"] for c in report["checks"]
                          if c["name"] != "reduction-runtime"}
    assert reports["mixture"] == reports["single"]


@pytest.mark.parametrize("check", ["mass-conservation", "symmetry-routes",
                                   "symmetry-residual", "fd-reduction"])
def test_one_dimensional_checks_reject_2d_model(tmp_path, capsys, check):
    # used to die with a raw numpy traceback (exit 1) or to name an
    # internal moment_override key (exit 2)
    cfg = base_config(tmp_path / "out", task="verify", verify={"checks": [check]})
    cfg["model"].update(dimension=2, drift=np.eye(2).tolist(),
                        coupling_state=np.zeros((2, 2)).tolist(),
                        coupling_mean=(-0.5 * np.eye(2)).tolist())
    cfg["initial"]["components"][0].update(mean=[0.5, 0.0], num=np.eye(2).tolist(),
                                           den=np.eye(2).tolist())
    assert main(["verify", str(write_config(tmp_path, cfg))]) == 2
    err = capsys.readouterr().err
    assert f"the {check} check is one-dimensional" in err
    assert "moment_override" not in err


@pytest.mark.parametrize("case", ["evolve-snapshot", "sampled-snapshot", "inverse-end"])
def test_times_outside_start_end_rejected(tmp_path, capsys, case):
    # each used to run: a backward evolve reported PASS, the sampled one
    # exited 3, and an inverse ending before its start passed
    task = "inverse" if case == "inverse-end" else "evolve"
    cfg = base_config(tmp_path / "out", task=task)
    cfg["time"] = {"start": 0.0, "end": 1.0, "snapshots": [-0.5]}
    if case == "sampled-snapshot":
        cfg["initial"] = {"kind": "sampled", "path": str(sampled_csv(tmp_path))}
    if case == "inverse-end":
        cfg["time"] = {"start": 0.0, "end": -0.5}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert "start <= snapshots <= end" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["evolve", "verify"])
def test_a_run_with_nothing_to_check_is_refused(tmp_path, capsys, task):
    # no snapshots, or no checks, used to exit 0 with all_passed true and
    # an empty checks list
    cfg = base_config(tmp_path / "out", task=task)
    if task == "verify":
        cfg["verify"] = {"checks": []}
    else:
        cfg["time"]["snapshots"] = []
    assert main([task if task == "verify" else "run", str(write_config(tmp_path, cfg))]) == 2
    assert "schema" in capsys.readouterr().err
    assert not (tmp_path / "out" / "t_report.json").exists()


def test_fd_reduction_rejects_nonzero_start(tmp_path, capsys):
    # used to run from t = 0 anyway and report the value for start 0
    cfg = base_config(tmp_path / "out", task="verify",
                      verify={"checks": ["fd-reduction"], "fd": {"dt": 1e-3, "refine": False}})
    cfg["time"] = {"start": 0.4, "end": 0.5}
    assert main(["verify", str(write_config(tmp_path, cfg))]) == 2
    assert "time.start must be 0" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["fd-dt", "time-end", "time-snapshot"])
def test_verify_rejects_non_finite_fd_and_time_settings(tmp_path, capsys, case):
    # a NaN dt used to die in fd_solve with a raw ValueError (exit 1), and a
    # NaN end to exit 3 with a KernelValidityError that blamed the horizon
    cfg = base_config(tmp_path / "out", task="verify",
                      verify={"checks": ["fd-reduction"], "fd": {"refine": False}})
    if case == "fd-dt":
        cfg["verify"]["fd"]["dt"] = float("nan")
    elif case == "time-end":
        cfg["time"] = {"start": 0.0, "end": float("nan")}
    else:
        cfg["time"] = {"start": 0.0, "end": 1.0, "snapshots": [float("inf")]}
    assert main(["verify", str(write_config(tmp_path, cfg))]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("operator", [
    {"const": float("nan"), "lin": [1.0], "grad": [1.0]},
    {"const": 1.0, "lin": [1.0], "grad": [float("inf")]},
], ids=["const-nan", "grad-inf"])
def test_symmetry_operator_rejects_non_finite_coefficients(tmp_path, capsys, operator):
    # each used to exit 1 with a failed symmetry-routes check (value nan),
    # the second after leaking a RuntimeWarning from mixture evaluation
    cfg = base_config(tmp_path / "out", task="symmetry", symmetry={"operator": operator})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert "operator coefficients must be finite" in capsys.readouterr().err


def test_symmetry_operator_of_another_dimension_is_a_config_error(tmp_path, capsys):
    # used to die with numpy's matmul ValueError and a traceback
    cfg = base_config(tmp_path / "out", task="symmetry",
                      symmetry={"operator": {"const": 1.0, "lin": [0.5, 0.2],
                                             "grad": [0.3, 0.1]}})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert "operator has dimension 2, but the field has dimension 1" in capsys.readouterr().err


def test_fd_reduction_from_start_zero_unchanged(tmp_path):
    cfg = json.loads((ROOT / "configs" / "verify_quick.json").read_text())
    cfg["verify"]["checks"] = ["fd-reduction"]
    cfg["output"]["dir"] = str(tmp_path)
    assert main(["verify", str(write_config(tmp_path, cfg))]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    linf = {c["name"]: c["value"] for c in report["checks"]}["reduction-linf"]
    assert linf == pytest.approx(3.4069091429711484e-4, rel=1e-12)


@pytest.mark.parametrize("config", ["reference_case", "symmetry_linsym", "verify_quick"])
def test_csv_axis_is_the_solver_grid(config):
    cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    gc = cfg["grid"]
    grid = SampledDensity.from_callable(lambda p: p[:, 0], gc["x_min"], gc["x_max"],
                                        gc["nodes"])
    assert np.array_equal(_grid_axis(cfg), grid.values)
