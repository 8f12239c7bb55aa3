import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etlab
from etlab import kinetic
from etlab.cli import (
    EXIT_AUDIT,
    EXIT_OK,
    _FIELDS,
    ConfigError,
    _read_csv,
    _write_audits,
    main,
    parse_config,
)
from etlab.experiments import write_csv
from etlab.grid import integrate
from etlab.kinetic import MAX_EPS, MIN_EPS
from etlab.scheme import ESTIMATE_TERMS, lyapunov_functional, run_transient
from etlab.thermo import to_primitive


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


MINIMAL = {"mode": "macro", "grid": {"n_cells": 64, "length": 1.0}}


def test_parse_minimal_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.mode == "macro"
    assert cfg.n_cells == 64
    assert cfg.scheme.tau == pytest.approx(1e-3)
    assert cfg.scheme.delta == pytest.approx(1e-4)
    assert cfg.scheme.eps == pytest.approx(1e-6)
    assert cfg.scheme.n_exp == pytest.approx(2.0)
    assert cfg.preset == "gauss-bump"


def test_parse_rejects_negative_tau():
    doc = dict(MINIMAL, scheme={"tau": -1.0})
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(json.dumps(doc))


def test_parse_rejects_unknown_scheme_field():
    doc = dict(MINIMAL, scheme={"theta_floor": 1.0})
    with pytest.raises(ConfigError, match="scheme.theta_floor"):
        parse_config(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_parse_rejects_wrong_length_arrays(tmp_path):
    doc = dict(MINIMAL, init={"rho0": [1.0, 2.0], "theta0": [1.0, 1.0]})
    with pytest.raises(ConfigError, match="init: explicit arrays must have length 64"):
        parse_config(json.dumps(doc))


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ETLAB_OUTPUT_DIR", str(tmp_path / "envout"))
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.output_dir == str(tmp_path / "envout")


def test_unknown_subcommand_exits_3(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    assert main(["frobnicate", cfg]) == 3


def test_missing_config_exits_3():
    assert main(["macro", "/nonexistent/cfg.json"]) == 3


def test_bad_override_exits_3(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    assert main(["macro", cfg, "scheme.tau=-5"]) == 3
    assert main(["macro", cfg, "grid.n_cells=oops"]) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "<argv>: usage: etlab <mode> <config.json> [key=value ...]"),
        (["macro", "cfg.json", "scheme.tau"], "scheme.tau: override must look like key=value"),
    ],
    ids=["no-arguments", "override-without-equals"],
)
def test_usage_error_exits_3_before_any_output_directory(tmp_path, capsys, argv, message):
    _write_config(tmp_path, MINIMAL)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def _bad(*overrides, mode="macro", path=None, id=None):
    """A case: the run's mode, its overrides and the field path its error names."""
    path = path or overrides[0].split("=")[0]
    return pytest.param(mode, list(overrides), path, id=id or overrides[0])


@pytest.mark.parametrize(
    "mode, overrides, path",
    [
        _bad("scheme.fp_max_iter=2.5"),
        _bad("scheme.tau=true"),
        _bad("grid.n_cells=true"),
        _bad("scheme.sigma_ramp=0.5"),
        _bad("kinetic.eps=[]"),
        _bad("grid.size=8"),
        _bad("scheme.edge_mean=geometric"),
        _bad("init.rho0=[1,1,1]", "grid.n_cells=3", path="init", id="macro-rho0-alone"),
        _bad(
            "init.rho0=[1,1]",
            "init.theta0=[1,1]",
            mode="kinetic",
            path="init",
            id="kinetic-arrays-wrong-length",
        ),
        _bad(
            "init.rho0=[1,1,1]",
            "init.theta0=[1,-1e-300,1]",
            "grid.n_cells=3",
            mode="compare",
            path="init",
            id="compare-arrays-not-positive",
        ),
        # zero entries are raised to the floor, so it must be positive
        _bad(
            "init.rho0=[1,0,1]",
            "init.theta0=[1,1,1]",
            "grid.n_cells=3",
            "scheme.init_floor=0",
            mode="kinetic",
            path="scheme.init_floor",
            id="kinetic-zero-entries-floor-0",
        ),
        _bad(
            "init.rho0=[1,1,1]",
            "init.theta0=[0,1,1]",
            "grid.n_cells=3",
            'sweep.varied={"init_floor":[1e-4,-1]}',
            mode="sweep",
            path="scheme.init_floor",
            id="sweep-zero-entries-floor-negative",
        ),
        _bad(
            "init.theta0=[1,1,1]",
            'sweep.varied={"delta":[0.01]}',
            mode="sweep",
            path="init",
            id="sweep-varied-theta0-alone",
        ),
        # the former which/values form of sweep is gone
        _bad("sweep.which=delta", mode="sweep", id="sweep-which-alone"),
        _bad("sweep.values=[0.1,0.01]", mode="sweep", id="sweep-values-alone"),
        _bad(mode="sweep", path="sweep.varied", id="sweep-varied-missing"),
        # eps**2 and h**2 overflow a double
        _bad("kinetic.eps=1e160", mode="kinetic"),
        _bad("kinetic.eps=[1e300,0.1]", mode="compare"),
        _bad("grid.length=1e160", id="macro-length-1e160"),
        _bad("grid.length=1e300", mode="mms", id="mms-length-1e300"),
        _bad("grid.length=1e160", mode="kinetic", id="kinetic-length-1e160"),
        _bad("grid.length=1e300", mode="kinetic", id="kinetic-length-1e300"),
        # h**-4 overflows a double, h = length / n (the largest resolution in mms)
        _bad("grid.length=1e-100", id="macro-length-1e-100"),
        _bad(
            "grid.length=1e-100",
            "scheme.inner_mode=paper_picard",
            id="picard-length-1e-100",
        ),
        _bad(
            "grid.length=1e-170",
            "scheme.t_final=1e-300",
            "kinetic.eps=1",
            mode="kinetic",
            id="kinetic-length-1e-170",
        ),
        _bad("grid.length=1e-100", mode="mms", id="mms-length-1e-100"),
        # a varied value outside the scheme field's range
        _bad(
            'sweep.varied={"delta":[-1]}',
            mode="sweep",
            path="sweep",
            id="sweep-varied-delta-negative",
        ),
    ],
)
def test_invalid_override_exits_3_without_exception(tmp_path, capsys, mode, overrides, path):
    cfg = _write_config(tmp_path, MINIMAL)
    assert main([mode, cfg, *overrides]) == 3
    assert f"config error: {path}: " in capsys.readouterr().err
    record = json.loads((tmp_path / "etlab_out" / "error.json").read_text())
    assert record["error"] == "config" and record["message"].startswith(f"{path}: ")


_EPS_RANGE = "[1.49e-154, 1.34e+154]"

# One case per check of the config table, and of the section walk: the
# override that fails it and the exact message it leaves.
_FIELD_CHECKS = [
    ("bogus.key=1", "bogus: unknown section"),
    ("grid=5", "grid: must be an object"),
    ("grid.size=8", "grid.size: unknown field"),
    ("sweep.which=x", "sweep.which: unknown field"),  # the former which/values sweep
    ("grid.n_cells=2", "grid.n_cells: must be an integer >= 3"),
    ("grid.length=0", "grid.length: must be a positive number whose (length / 3)**2 is finite"),
    *[
        (f"scheme.{name}=true", f"scheme.{name}: must be a number")
        for name in ("tau", "eps", "delta", "n_exp", "t_final", "fp_tol", "init_floor")
    ],
    ("scheme.fp_max_iter=2.5", "scheme.fp_max_iter: must be an integer"),
    ("scheme.tau_backoff_limit=null", "scheme.tau_backoff_limit: must be an integer"),
    ("scheme.tau=0", "scheme.tau: must be positive"),
    ("scheme.eps=-1", "scheme.eps: must be nonnegative"),
    ("scheme.delta=-1e-4", "scheme.delta: must be nonnegative"),
    ("scheme.n_exp=5", "scheme.n_exp: must lie in (0, 5)"),
    ("scheme.t_final=-0.1", "scheme.t_final: must be positive"),
    ("scheme.fp_tol=0", "scheme.fp_tol: must be positive"),
    ("scheme.fp_max_iter=0", "scheme.fp_max_iter: must be at least 1"),
    ("scheme.tau_backoff_limit=-1", "scheme.tau_backoff_limit: must be nonnegative"),
    (
        "scheme.inner_mode=newton",
        "scheme.inner_mode: must be one of ('paper_picard', 'coupled_implicit')",
    ),
    ("kinetic.eps=0", f"kinetic.eps: must be a number in {_EPS_RANGE}"),
    ("kinetic.eps=[0.1,0]", f"kinetic.eps: values must be numbers in {_EPS_RANGE}"),
    ("kinetic.eps=[0.1,0.2]", "kinetic.eps: must be strictly decreasing"),
    ("kinetic.v_max=0", "kinetic.v_max: must be positive"),
    ("kinetic.n_v=3", "kinetic.n_v: must be an integer >= 4"),
    ("init.preset=nope", "init.preset: must be one of ('equilibrium', 'gauss-bump', 'temp-step')"),
    ('init.rho0=[1,"x"]', "init.rho0: must be an array of numbers"),
    ("init.theta0=1", "init.theta0: must be an array of numbers"),
    ("output.directory=5", "output.directory: must be a string"),
    ("output.snapshot_stride=0", "output.snapshot_stride: must be a positive integer"),
    ("sweep.varied=[]", "sweep.varied: must be an object"),
    ("sweep.varied={}", "sweep.varied: must not be empty"),
    ('sweep.varied={"fp_max_iter":[1]}', "sweep.varied.fp_max_iter: must name a numeric scheme field"),
    ('sweep.varied={"tau":"x"}', "sweep.varied.tau: must be an array of numbers"),
    ('sweep.varied={"tau":[]}', "sweep.varied.tau: must not be empty"),
    ("mms.resolutions=[8,2]", "mms.resolutions: must be an array of integers >= 3"),
    ("mms.resolutions=[]", "mms.resolutions: must not be empty"),
]


@pytest.mark.parametrize(
    "override, message", [pytest.param(o, m, id=o) for o, m in _FIELD_CHECKS]
)
def test_each_field_check_leaves_its_message(tmp_path, capsys, override, message):
    cfg = _write_config(tmp_path, MINIMAL)
    assert main(["macro", cfg, override]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    error_file = tmp_path / "etlab_out" / "error.json"
    if message.startswith("output.directory: "):
        assert not error_file.exists()  # there is no directory to write it to
    else:
        assert json.loads(error_file.read_text()) == {"error": "config", "message": message}


def test_field_check_cases_cover_the_table():
    # four section-walk cases, then one per check of each field
    checks = sum(len(spec.checks) + len(spec.entries) for spec in _FIELDS.values())
    assert len(_FIELD_CHECKS) == 4 + checks
    assert {o.split("=")[0] for o, _ in _FIELD_CHECKS[4:]} == {
        path for path, spec in _FIELDS.items() if spec.checks
    }


def test_paper_picard_runs_without_regularization(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    overrides = ["scheme.inner_mode=paper_picard", "scheme.eps=0", "scheme.delta=0"]
    overrides += ["scheme.t_final=0.01", f"output.directory={out}"]
    assert main(["macro", cfg, *overrides]) == 0
    assert json.loads((out / "audits.json").read_text())["all_passed"] is True


def test_kinetic_eps_is_read_as_given(tmp_path, capsys):
    # compare takes a number as a one-value sweep; kinetic runs one eps only
    doc = {"grid": {"n_cells": 8, "length": 1.0}, "scheme": {"t_final": 2e-3}}
    cfg = _write_config(tmp_path, doc)
    assert main(["compare", cfg, "kinetic.eps=0.2", "output.directory=cmp"]) == 0
    rows = (tmp_path / "cmp" / "table.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.2]
    assert main(["kinetic", cfg, "kinetic.eps=[0.4,0.2]", "output.directory=kin"]) == 3
    record = json.loads((tmp_path / "kin" / "error.json").read_text())
    assert record["message"].startswith("kinetic.eps: kinetic mode runs one eps")
    assert not (tmp_path / "kin" / "kinetic_final.csv").exists()


@pytest.mark.parametrize(
    "mode, override, path",
    [
        ("mms", "mms.resolutions=[]", "mms.resolutions"),
        ("sweep", "sweep.varied={}", "sweep.varied"),
        ("sweep", 'sweep.varied={"tau":[]}', "sweep.varied.tau"),
    ],
)
def test_empty_lists_exit_3_in_the_modes_that_read_them(tmp_path, capsys, mode, override, path):
    cfg = _write_config(tmp_path, dict(MINIMAL, scheme={"t_final": 2e-3}))
    assert main([mode, cfg, override]) == 3
    assert f"config error: {path}: " in capsys.readouterr().err
    record = json.loads((tmp_path / "etlab_out" / "error.json").read_text())
    assert record["message"] == f"{path}: must not be empty"


def test_override_takes_same_values_as_file():
    from_override = parse_config(json.dumps(MINIMAL), ["kinetic.eps=[0.2,0.1]"])
    from_file = parse_config(json.dumps(dict(MINIMAL, kinetic={"eps": [0.2, 0.1]})))
    assert from_override == from_file
    assert from_override.kinetic_eps == [0.2, 0.1]


def test_override_beats_env_var_beats_file(tmp_path, monkeypatch):
    doc = dict(MINIMAL, output={"directory": "from_file"})
    monkeypatch.setenv("ETLAB_OUTPUT_DIR", "from_env")
    assert parse_config(json.dumps(doc)).output_dir == "from_env"
    cfg = parse_config(json.dumps(doc), ["output.directory=from_override"])
    assert cfg.output_dir == "from_override"


@pytest.mark.parametrize("mode", ["macro", "compare", "sweep"])
def test_t_final_not_multiple_of_tau_exits_3(tmp_path, capsys, mode):
    doc = dict(
        MINIMAL,
        scheme={"t_final": 0.0015},
        sweep={"varied": {"delta": [1e-2, 1e-3]}},
    )
    cfg = _write_config(tmp_path, doc)
    assert main([mode, cfg]) == 3
    assert "scheme.t_final" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep",
    [{"varied": {"tau": [1e-3, 3e-4]}}, {"varied": {"t_final": [2e-3, 1.5e-3]}}],
    ids=["swept-tau", "swept-t_final"],
)
def test_sweep_checks_step_count_of_every_run(tmp_path, capsys, sweep):
    cfg = _write_config(tmp_path, dict(MINIMAL, scheme={"t_final": 2e-3}, sweep=sweep))
    assert main(["sweep", cfg]) == 3
    assert "scheme.t_final" in capsys.readouterr().err


def _macro_doc(tmp_path, **scheme):
    base = {"tau": 5e-3, "t_final": 0.02, "eps": 0.0, "delta": 0.0}
    base.update(scheme)
    return {
        "mode": "macro",
        "grid": {"n_cells": 24, "length": 1.0},
        "scheme": base,
        "init": {"preset": "equilibrium"},
        "output": {"directory": str(tmp_path / "out"), "snapshot_stride": 1},
    }


def test_macro_equilibrium_constant_columns(tmp_path):
    cfg = _write_config(tmp_path, _macro_doc(tmp_path))
    assert main(["macro", cfg]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mass,energy,entropy,diss_total,min_theta,max_rho,fp_iters"
    mass = [float(line.split(",")[1]) for line in lines[1:]]
    energy = [float(line.split(",")[2]) for line in lines[1:]]
    assert np.allclose(mass, mass[0], atol=1e-12)
    assert np.allclose(energy, energy[0], atol=1e-12)


def test_diss_total_leaves_out_the_estimate_terms(tmp_path):
    # diss_total sums the edge form and the eps and delta terms of each
    # step's records; the a-priori-estimate terms, which the edge form
    # bounds, would count that dissipation twice
    doc = _macro_doc(tmp_path, eps=1e-6, delta=1e-4)
    doc["init"]["preset"] = "temp-step"
    assert main(["macro", _write_config(tmp_path, doc)]) == 0
    out = tmp_path / "out"
    diss = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 4]
    estimates = ("grad_log_theta_sq", "theta_grad_sqrt_rho_sq", "grad_sqrt_rho_theta_sq")
    expected = np.zeros(diss.size)
    for record in json.loads((out / "audits.json").read_text())["records"]:
        terms = record["dissipation"]
        assert {"edge_form", "eps_w_terms", "delta_phi", *estimates} <= set(terms)
        assert all(terms[name] > 0.0 for name in estimates)
        expected[record["step"]] += sum(v for k, v in terms.items() if k not in estimates)
    assert diss[0] == 0.0
    np.testing.assert_allclose(diss, expected, rtol=1e-15)


def test_macro_outputs_snapshots_and_audits(tmp_path):
    cfg = _write_config(tmp_path, _macro_doc(tmp_path))
    assert main(["macro", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "snapshot_0.csv").exists()
    assert (out / "snapshot_4.csv").exists()
    payload = json.loads((out / "audits.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["records"]) == 4


def test_write_audits_round_trips_the_payload(tmp_path):
    # numpy scalars as the solver reports them, and audit mode's null residual
    passed = {"mass_pass": np.bool_(True), "energy_pass": True, "entropy_pass": True}
    records = [
        dict(
            passed,
            step=1,
            t=np.float64(0.1),
            tau_used=1e-3,
            iterations=np.int64(4),
            residual=np.float64(2.5e-11),
        ),
        dict(passed, step=2, t=0.2, tau_used=1e-3, iterations=0, residual=None),
    ]
    assert _write_audits(tmp_path, records) == EXIT_OK
    text = (tmp_path / "audits.json").read_text(encoding="utf-8")
    assert json.loads(text) == {"all_passed": True, "records": records}
    assert text.endswith("\n") and text.count("\n") == 1
    assert text.index('"all_passed"') < text.index('"records"')  # sorted keys
    with pytest.raises(ValueError):
        _write_audits(tmp_path, [dict(records[1], t=float("nan"))])


def test_macro_byte_identical_reruns(tmp_path):
    doc = _macro_doc(tmp_path)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg, f"output.directory={tmp_path/'a'}"]) == 0
    assert main(["macro", cfg, f"output.directory={tmp_path/'b'}"]) == 0
    for name in ("trajectory.csv", "snapshot_0.csv", "audits.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _rate(terms):
    """A record's dissipation rate as diss_total counts it."""
    return sum(v for name, v in terms.items() if name not in ESTIMATE_TERMS)


def test_macro_outputs_are_17g_of_the_values_behind_them(tmp_path):
    # Every line of trajectory.csv and of each snapshot is "%.17g" of the
    # values it stores, joined by commas; fp_iters, an integer, too. The
    # values come from the same run, repeated: runs are deterministic.
    doc = _macro_doc(tmp_path, tau=1e-3, t_final=5e-3, eps=1e-6, delta=1e-4)
    doc["init"]["preset"] = "gauss-bump"
    doc["output"]["snapshot_stride"] = 2
    assert main(["macro", _write_config(tmp_path, doc)]) == 0
    cfg = parse_config(json.dumps(doc))
    grid, init = cfg.initial_state()
    traj = run_transient(grid, init, cfg.scheme)

    def line(values):
        return ",".join("%.17g" % v for v in values)

    out = tmp_path / "out"
    iters = [0] * len(traj.times)
    diss = [0.0] * len(traj.times)
    for rep in traj.reports:
        iters[rep.step] += rep.iterations
        diss[rep.step] += (rep.tau_used / traj.times[1]) * _rate(rep.entropy["dissipation"])
    lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(traj.states) == 7
    for k, state in enumerate(traj.states):
        mac = to_primitive(state)
        row = [
            traj.times[k],
            integrate(grid, mac.rho),
            integrate(grid, mac.energy),
            lyapunov_functional(grid, state),
            diss[k],
            float(np.min(mac.theta)),
            float(np.max(mac.rho)),
            iters[k],
        ]
        assert lines[1 + k] == line(row)
    assert int(lines[-1].rsplit(",", 1)[1]) == iters[-1] > 0
    for k in (0, 2, 4, 5):
        mac, state = to_primitive(traj.states[k]), traj.states[k]
        text = (out / f"snapshot_{k}.csv").read_text(encoding="utf-8")
        columns = zip(grid.cell_centers, mac.rho, mac.theta, mac.energy, state.phi, state.w)
        assert text == "x,rho,theta,E,phi,w\n" + "".join(line(c) + "\n" for c in columns)


def test_diss_total_is_the_time_averaged_rate_of_substepped_steps(tmp_path):
    # The substepped run of the test below: each record's rate enters its
    # step's diss_total weighted by tau_used / tau, so each row lies between
    # the rates of its records. Summed unweighted, step 1's 18 records, with
    # rates of 3.4 to 12.4, added up to 131.1.
    doc = _macro_doc(tmp_path, tau=1e-2, t_final=0.04, fp_max_iter=4)
    del doc["scheme"]["eps"], doc["scheme"]["delta"]
    doc["grid"]["n_cells"] = 32
    doc["init"]["preset"] = "gauss-bump"
    assert main(["macro", _write_config(tmp_path, doc)]) == 0
    out = tmp_path / "out"
    records = _strict_json(out / "audits.json")["records"]
    rows = _read_csv(out / "trajectory.csv")
    tau = rows["t"][1]
    assert rows["diss_total"][0] == 0.0
    for k in range(1, 5):
        own = [r for r in records if r["step"] == k]
        rates = [_rate(r["dissipation"]) for r in own]
        weighted = sum((r["tau_used"] / tau) * rate for r, rate in zip(own, rates))
        assert rows["diss_total"][k] == pytest.approx(weighted, rel=1e-14)
        assert min(rates) * (1 - 1e-12) <= rows["diss_total"][k] <= max(rates) * (1 + 1e-12)
    assert len([r for r in records if r["step"] == 1]) == 18


def test_audit_mode_on_stored_trajectory(tmp_path):
    doc = _macro_doc(tmp_path, delta=1e-4, eps=1e-6)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg]) == 0
    assert main(["audit", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "audits.json").read_text())
    assert payload["all_passed"] is True
    assert all(r["mass_pass"] and r["energy_pass"] for r in payload["records"])


def test_audit_mode_flags_tampered_snapshot(tmp_path):
    doc = _macro_doc(tmp_path, delta=1e-4, eps=1e-6)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg]) == 0
    snap = tmp_path / "out" / "snapshot_2.csv"
    lines = snap.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)  # phi of one cell
    lines[5] = ",".join(cells)
    snap.write_text("\n".join(lines) + "\n")
    assert main(["audit", cfg]) == EXIT_AUDIT == 4
    payload = json.loads((tmp_path / "out" / "audits.json").read_text())
    assert payload["all_passed"] is False
    failed = [r["step"] for r in payload["records"] if not r["mass_pass"]]
    assert failed == [2, 3]


# A short repr, a repeating fraction, signed zero, the smallest subnormal, the
# largest finite double, Python integers and numpy float64 scalars.
CSV_VALUES = [
    0.1,
    1 / 3,
    -0.0,
    5e-324,
    1.7976931348623157e308,
    7,
    -12,
    np.float64(2.5),
    np.float64(-1e-300),
]


def _write_csv_values(tmp_path):
    path = tmp_path / "values.csv"
    header = [f"c{i}" for i in range(len(CSV_VALUES))]
    rows = [CSV_VALUES, CSV_VALUES[::-1]]
    write_csv(path, header, rows)
    return path, header, rows


def test_write_csv_formats_each_value_as_format_17g(tmp_path):
    path, header, rows = _write_csv_values(tmp_path)
    lines = [",".join(header)] + [
        ",".join(format(float(x), ".17g") for x in row) for row in rows
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_write_csv_formats_a_long_table_in_seamless_blocks(tmp_path):
    # Over two blocks of rows and a part of a third: the same bytes as one
    # % per row.
    path = tmp_path / "long.csv"
    rows = [[k, k / 3.0, -1e-300 * k, 2.0**k] for k in range(2 * 256 + 7)]
    write_csv(path, ["k", "third", "tiny", "power"], rows)
    lines = ["k,third,tiny,power"] + [",".join("%.17g" % v for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_read_csv_round_trips_written_values_bit_for_bit(tmp_path):
    path, header, rows = _write_csv_values(tmp_path)
    cols = _read_csv(path)
    assert list(cols) == header
    for i, name in enumerate(header):
        want = np.array([float(row[i]) for row in rows])
        assert cols[name].dtype == np.float64
        assert np.array_equal(cols[name].view(np.int64), want.view(np.int64))


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_macro_and_audit_write_the_same_records(tmp_path):
    # Twelve steps of 1e-3: a tau taken as a difference of stored times
    # (0.012 - 0.011 = 0.0010000000000000009) would move the replayed fields.
    doc = _macro_doc(tmp_path, tau=1e-3, t_final=0.012, delta=1e-4, eps=1e-6)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    audits = tmp_path / "out" / "audits.json"
    assert main(["macro", cfg]) == 0
    solved = _strict_json(audits)["records"]
    assert main(["audit", cfg]) == 0
    replayed = _strict_json(audits)["records"]
    assert len(solved) == len(replayed) == 12
    for a, b in zip(solved, replayed):
        assert a.keys() == b.keys()
        assert a["iterations"] > 0 and b["iterations"] == 0
        assert a["residual"] >= 0.0 and b["residual"] is None
        # step, t, tau_used, the budget and entropy fields and flags, exactly
        same = {key for key in a if key not in ("iterations", "residual")}
        assert {key: a[key] for key in same} == {key: b[key] for key in same}


def test_macro_substep_records_share_their_time_grid_step(tmp_path):
    # fp_max_iter = 4 makes the first step back off to 1/32 of tau: 33
    # accepted attempts advance the four steps.
    doc = _macro_doc(tmp_path, tau=1e-2, t_final=0.04, fp_max_iter=4)
    del doc["scheme"]["eps"], doc["scheme"]["delta"]
    doc["grid"]["n_cells"] = 32
    doc["init"]["preset"] = "gauss-bump"
    assert main(["macro", _write_config(tmp_path, doc)]) == 0
    out = tmp_path / "out"
    records = _strict_json(out / "audits.json")["records"]
    rows = _read_csv(out / "trajectory.csv")
    assert len(records) == 33
    assert [r["step"] for r in records] == sorted(r["step"] for r in records)
    assert {r["step"] for r in records} == {1, 2, 3, 4}
    assert rows["fp_iters"][0] == 0
    for k in range(1, 5):
        own = [r for r in records if r["step"] == k]
        assert rows["fp_iters"][k] == sum(r["iterations"] for r in own)
        assert own[-1]["t"] == rows["t"][k]
        assert all(r["t"] < rows["t"][k] for r in own[:-1])


@pytest.mark.xfail(
    strict=True,
    reason="audit checks a step with backoff substeps as one step of tau, but "
    "the eps and delta terms of the budget identity are per attempt",
)
def test_audit_passes_a_run_with_backoff_substeps(tmp_path):
    # The run of the test above (default eps and delta), snapshotted at every
    # step: each step passes its audits in macro mode. At eps = delta = 0
    # the replay passes; here it fails all four steps (mass_error 4.8e-8 at
    # step 1).
    doc = _macro_doc(tmp_path, tau=1e-2, t_final=0.04, fp_max_iter=4)
    del doc["scheme"]["eps"], doc["scheme"]["delta"]
    doc["grid"]["n_cells"] = 32
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg]) == 0
    assert main(["audit", cfg]) == 0


def _corrupt_snapshot(out, damage):
    if damage.endswith("trajectory"):
        traj = out / "trajectory.csv"
        if damage == "missing trajectory":
            traj.unlink()
            return traj
        lines = traj.read_text().splitlines()
        if damage == "uneven-times trajectory":
            lines[3] = ",".join(["0.0025"] + lines[3].split(",")[1:])
        keep = {"header-only trajectory": 1, "one-row trajectory": 2}.get(damage)
        traj.write_text("\n".join(lines[:keep]) + "\n")
        return traj
    if damage == "truncated":
        snap = out / "snapshot_1.csv"
        text = snap.read_text()
        snap.write_text(text[: len(text) // 2])
        return snap
    snap = out / "snapshot_2.csv"
    lines = snap.read_text().splitlines()
    cells = lines[3].split(",")
    cells[5] = {"w=1000": "1000", "nan": "nan"}[damage]  # the w column
    lines[3] = ",".join(cells)
    snap.write_text("\n".join(lines) + "\n")
    return snap


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "damage",
    [
        "w=1000",
        "nan",
        "truncated",
        "header-only trajectory",
        "one-row trajectory",
        "uneven-times trajectory",
        "missing trajectory",
    ],
)
def test_audit_on_corrupted_run_directory_exits_3(tmp_path, capsys, damage):
    doc = _macro_doc(tmp_path, tau=1e-3, t_final=3e-3, delta=1e-4, eps=1e-6)
    doc["grid"]["n_cells"] = 16
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg]) == 0
    snap = _corrupt_snapshot(tmp_path / "out", damage)
    assert main(["audit", cfg]) == 3
    assert snap.name in capsys.readouterr().err
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "config"
    assert snap.name in record["message"]
    if damage == "header-only trajectory":
        assert "damaged trajectory: no rows" in record["message"]
    elif damage == "missing trajectory":
        assert record["message"].startswith("output.directory: no trajectory.csv in ")
    elif damage.endswith("trajectory"):
        assert "damaged trajectory: times must be 0, tau, 2 tau" in record["message"]


def test_audit_rejects_a_length_too_small_for_its_snapshots(tmp_path, capsys):
    # audit learns n from the snapshots; at n = 24, length 1e-100 overflows
    # h**-4, where the budget audits would be non-finite JSON.
    cfg = _write_config(tmp_path, _macro_doc(tmp_path))
    assert main(["macro", cfg]) == 0
    assert main(["audit", cfg, "grid.length=1e-100"]) == 3
    message = (
        "grid.length: must be large enough that the cell width h = length / 24 "
        "has a finite h**-4"
    )
    assert capsys.readouterr().err == f"config error: {message}\n"
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record == {"error": "config", "message": message}


def test_audit_mode_requires_per_step_snapshots(tmp_path):
    doc = _macro_doc(tmp_path)
    doc["output"]["snapshot_stride"] = 2
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg]) == 0
    assert main(["audit", cfg]) == 3


def test_override_changes_grid(tmp_path):
    doc = _macro_doc(tmp_path)
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg, "grid.n_cells=12"]) == 0
    lines = (tmp_path / "out" / "snapshot_0.csv").read_text().splitlines()
    assert len(lines) == 13  # header + 12 cells


def test_solver_failure_exits_2(tmp_path):
    doc = _macro_doc(tmp_path, fp_max_iter=1, tau_backoff_limit=0)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "solver"


@pytest.mark.parametrize("inner_mode", ["coupled_implicit", "paper_picard"])
def test_solver_failure_exits_2_when_tau_would_underflow(tmp_path, inner_mode):
    # Over 1074 halvings take tau below the smallest positive double; on the
    # way h / tau overflows, which must fail the attempt without a warning.
    doc = _macro_doc(tmp_path, fp_max_iter=1, tau_backoff_limit=1100, inner_mode=inner_mode)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg, "grid.n_cells=8"]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "solver"
    assert "tau halvings" in record["message"]


def _assert_run_passed(out):
    assert json.loads((out / "audits.json").read_text())["all_passed"] is True
    last = max(out.glob("snapshot_*.csv"), key=lambda f: int(f.stem.split("_")[1]))
    rows = np.loadtxt(last, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 1:3] > 0.0)  # rho, theta


@pytest.mark.parametrize("n_cells", [1024, 2048])
def test_macro_default_settings_converge_on_fine_grids(tmp_path, n_cells):
    # The residual's roundoff floor grows like h^-2.5 and passes the default
    # fp_tol near n = 384; the chart-variable update does not.
    cfg = _write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    overrides = [f"grid.n_cells={n_cells}", "scheme.t_final=1e-3"]
    assert main(["macro", cfg, *overrides, f"output.directory={out}"]) == 0
    _assert_run_passed(out)


# Substeps (records of a halved tau) measured on the cold-data runs below.
_COLD_SUBSTEPS = {
    ("theta0", 1e-2, 64, "coupled_implicit"): 0,
    ("theta0", 1e-2, 64, "paper_picard"): 0,
    ("theta0", 1e-3, 64, "coupled_implicit"): 0,
    ("theta0", 1e-3, 64, "paper_picard"): 0,
    ("theta0", 1e-4, 64, "coupled_implicit"): 0,
    ("theta0", 1e-4, 64, "paper_picard"): 0,
    ("theta0", 1e-8, 64, "coupled_implicit"): 0,
    ("theta0", 1e-8, 64, "paper_picard"): 0,
    ("theta0", 1e-8, 1024, "coupled_implicit"): 0,
    ("theta0", 1e-8, 1024, "paper_picard"): 0,
    ("rho0", 1e-6, 64, "coupled_implicit"): 0,
    ("rho0", 1e-6, 64, "paper_picard"): 0,
}


@pytest.mark.parametrize("inner_mode", ["coupled_implicit", "paper_picard"])
@pytest.mark.parametrize(
    "field, minimum, n_cells",
    [pytest.param("theta0", t, 64, id=str(t)) for t in (1e-2, 1e-3, 1e-4, 1e-8)]
    + [
        pytest.param("theta0", 1e-8, 1024, id="1e-08-n1024"),
        pytest.param("rho0", 1e-6, 64, id="rho-1e-06"),
    ],
)
def test_macro_default_settings_converge_on_cold_data(
    tmp_path, field, minimum, n_cells, inner_mode
):
    # theta (or rho) drops to its minimum away from a bump, the other field
    # is 1: near the degeneracy of the system, where ellipticity is lost as
    # theta vanishes, or at near-vacuum density.
    x = (np.arange(n_cells) + 0.5) / n_cells
    init = {"rho0": [1.0] * n_cells, "theta0": [1.0] * n_cells}
    init[field] = (minimum + np.exp(-200.0 * (x - 0.5) ** 2)).tolist()
    doc = dict(MINIMAL, grid={"n_cells": n_cells, "length": 1.0}, init=init)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    overrides = ["scheme.t_final=0.02", f"scheme.inner_mode={inner_mode}"]
    assert main(["macro", cfg, *overrides, f"output.directory={out}"]) == 0
    _assert_run_passed(out)
    records = json.loads((out / "audits.json").read_text())["records"]
    substeps = sum(r["tau_used"] < 1e-3 for r in records)
    assert substeps <= _COLD_SUBSTEPS[field, minimum, n_cells, inner_mode]


@pytest.mark.parametrize("source", ["override", "env", "file"])
def test_config_error_leaves_error_json(tmp_path, monkeypatch, capsys, source):
    out = tmp_path / source
    doc = dict(MINIMAL, output={"directory": str(out)}) if source == "file" else MINIMAL
    cfg = _write_config(tmp_path, doc)
    overrides = ["scheme.tau=true"]
    if source == "override":
        overrides.append(f"output.directory={out}")
    elif source == "env":
        monkeypatch.setenv("ETLAB_OUTPUT_DIR", str(out))
    assert main(["macro", cfg, *overrides]) == 3
    assert "scheme.tau" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "config", "message": "scheme.tau: must be a number"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kinetic_relaxation_failure_exits_2(tmp_path, capsys, monkeypatch):
    # A relaxation solve that does not converge (here under a tolerance no
    # residual meets) is a solver failure, not a traceback.
    monkeypatch.setattr(kinetic, "_RELAX_TOL", -1.0)
    doc = {
        "mode": "kinetic",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"t_final": 1e-6},
        "kinetic": {"eps": 0.5, "n_v": 8},
        "output": {"directory": str(tmp_path / "kin")},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["kinetic", cfg]) == 2
    assert "relaxation temperature solve failed" in capsys.readouterr().err
    record = json.loads((tmp_path / "kin" / "error.json").read_text())
    assert record["error"] == "solver"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kinetic_velocity_grid_too_coarse_for_the_maxwellian_keeps_the_mass(tmp_path):
    # Eight nodes on [-1e6, 1e6] cannot resolve a unit-temperature
    # Maxwellian: each cell starts with its mass at the nodes nearest
    # v = 0, and every row holds the mass a resolving grid starts with.
    masses = {}
    for v_max in (1e6, 8.0):
        doc = {
            "mode": "kinetic",
            "grid": {"n_cells": 16, "length": 1.0},
            "scheme": {"t_final": 1e-6},
            "kinetic": {"eps": 0.5, "n_v": 8 if v_max == 1e6 else 64, "v_max": v_max},
            "output": {"directory": str(tmp_path / f"kin-{v_max:g}")},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["kinetic", cfg]) == 0
        text = (tmp_path / f"kin-{v_max:g}" / "kinetic_trajectory.csv").read_text()
        masses[v_max] = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    assert len(masses[1e6]) > 2
    for mass in masses[1e6]:
        assert mass == pytest.approx(masses[8.0][0], rel=1e-14, abs=0.0)


def test_kinetic_mode_writes_trajectory(tmp_path):
    doc = {
        "mode": "kinetic",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"t_final": 0.005},
        "kinetic": {"eps": 0.2, "n_v": 32},
        "init": {"preset": "equilibrium"},
        "output": {"directory": str(tmp_path / "kin")},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["kinetic", cfg]) == 0
    lines = (tmp_path / "kin" / "kinetic_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mass,energy_total,min_theta_b,max_rho"
    assert (tmp_path / "kin" / "kinetic_final.csv").exists()


def test_kinetic_dense_equilibrium_keeps_the_background_temperature(tmp_path):
    # Uniform equilibrium at rho = 1e16 >> theta = 1: nothing moves. A
    # background that took theta_b + (e_kin - e_kin_new), the difference
    # of two kinetic energies of about 1.5e16, would inherit their roundoff
    # and go negative.
    doc = {
        "mode": "kinetic",
        "grid": {"n_cells": 32, "length": 1.0},
        "scheme": {"t_final": 0.005},
        "kinetic": {"eps": 0.2, "n_v": 32},
        "init": {"rho0": [1e16] * 32, "theta0": [1.0] * 32},
        "output": {"directory": str(tmp_path / "kin")},
    }
    assert main(["kinetic", _write_config(tmp_path, doc)]) == 0
    rows = _read_csv(tmp_path / "kin" / "kinetic_trajectory.csv")
    assert rows["min_theta_b"].size > 1
    assert np.max(np.abs(rows["min_theta_b"] - 1.0)) <= 1e-12


def test_kinetic_byte_identical_reruns(tmp_path):
    doc = {
        "mode": "kinetic",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"t_final": 0.005},
        "kinetic": {"eps": 0.2, "n_v": 17},
        "init": {"preset": "gauss-bump"},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["kinetic", cfg, f"output.directory={tmp_path/'a'}"]) == 0
    assert main(["kinetic", cfg, f"output.directory={tmp_path/'b'}"]) == 0
    for name in ("kinetic_trajectory.csv", "kinetic_final.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


_STUDY_DOCS = {
    "compare": {
        "mode": "compare",
        "scheme": {"tau": 1e-3, "t_final": 0.01},
        "kinetic": {"eps": [0.4, 0.2], "n_v": 17},
    },
    "sweep-delta": {
        "mode": "sweep",
        "scheme": {"tau": 2e-3, "t_final": 0.01, "eps": 0.0},
        "sweep": {"varied": {"delta": [1e-2, 1e-3, 1e-4]}},
    },
    "sweep-varied": {
        "mode": "sweep",
        "scheme": {"tau": 5e-3, "t_final": 0.01, "eps": 0.0},
        "sweep": {"varied": {"delta": [1e-3, 1e-4], "init_floor": [0.5, 1e-12]}},
    },
    "mms": {
        "mode": "mms",
        "scheme": {"tau": 1e-3, "t_final": 0.01, "eps": 0.0, "delta": 0.0},
        "mms": {"resolutions": [8, 16]},
    },
}


@pytest.mark.parametrize("study", sorted(_STUDY_DOCS))
def test_study_byte_identical_reruns(tmp_path, study):
    doc = dict(_STUDY_DOCS[study], grid={"n_cells": 16, "length": 1.0})
    cfg = _write_config(tmp_path, doc)
    mode = doc["mode"]
    assert main([mode, cfg, f"output.directory={tmp_path/'a'}"]) == 0
    assert main([mode, cfg, f"output.directory={tmp_path/'b'}"]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir()) != []
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_kinetic_eps_not_decreasing_exits_3(tmp_path, capsys):
    doc = dict(MINIMAL, grid={"n_cells": 8, "length": 1.0}, scheme={"t_final": 2e-3})
    cfg = _write_config(tmp_path, doc)
    assert main(["compare", cfg, "kinetic.eps=[0.2,0.4]"]) == 3
    assert "kinetic.eps" in capsys.readouterr().err


@pytest.mark.parametrize("mode, value", [("kinetic", "1e-300"), ("compare", "[1e-300]")])
def test_kinetic_eps_with_underflowing_square_exits_3(tmp_path, capsys, mode, value):
    # eps**2 underflows to zero, so the relaxation rate dt / eps**2 has no value
    doc = {
        "mode": mode,
        "grid": {"n_cells": 8, "length": 1.0},
        "scheme": {"t_final": 2e-3},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg = _write_config(tmp_path, doc)
    assert main([mode, cfg, f"kinetic.eps={value}"]) == 3
    assert "kinetic.eps" in capsys.readouterr().err
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "config"
    assert record["message"].startswith("kinetic.eps: ")


def test_kinetic_eps_at_its_bounds_runs(tmp_path):
    doc = {"grid": {"n_cells": 8, "length": 1.0}, "scheme": {"t_final": 2e-3}}
    cfg = _write_config(tmp_path, doc)
    for eps in (MIN_EPS, MAX_EPS):
        assert parse_config(json.dumps(doc), [f"kinetic.eps={eps!r}"]).kinetic_eps == [eps]
    out = f"output.directory={tmp_path / 'out'}"
    assert main(["kinetic", cfg, f"kinetic.eps={MAX_EPS!r}", out]) == 0


@pytest.mark.parametrize("mode, value", [("kinetic", "1e-150"), ("compare", "[0.1,1e-150]")])
def test_kinetic_step_count_beyond_bound_exits_3(tmp_path, capsys, mode, value):
    # About 7e148 CFL steps to reach t_final: rejected before any step runs.
    doc = {
        "mode": mode,
        "grid": {"n_cells": 8, "length": 1.0},
        "scheme": {"t_final": 1e-3},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg = _write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="kinetic steps"):
        parse_config(json.dumps(doc), [f"kinetic.eps={value}"])
    assert main([mode, cfg, f"kinetic.eps={value}"]) == 3
    assert "kinetic.eps" in capsys.readouterr().err
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "config"
    assert record["message"].startswith("kinetic.eps: ")


def test_sweep_mode_writes_table(tmp_path):
    doc = {
        "mode": "sweep",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"tau": 2e-3, "t_final": 0.01, "eps": 0.0},
        "init": {"preset": "gauss-bump"},
        "sweep": {"varied": {"delta": [1e-2, 1e-3, 1e-4]}},
        "output": {"directory": str(tmp_path / "sw")},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["sweep", cfg]) == 0
    assert [p.name for p in (tmp_path / "sw").iterdir()] == ["sweep_summary.csv"]
    lines = (tmp_path / "sw" / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == (
        "delta,mass_drift,energy_drift,entropy_final,err_rho_L1,err_E_L1,order_rho,order_E"
    )
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows[:, 0], [1e-2, 1e-3, 1e-4])
    # gaps to the last run, so the last row's are zero; orders between rows
    assert np.all(rows[:2, 4:6] > 0.0) and np.all(rows[2, 4:6] == 0.0)
    assert np.isnan(rows[0, 6:]).all() and np.isnan(rows[2, 6:]).all()
    assert np.all(np.abs(rows[1, 6:] - 1.0) < 0.1)  # the gaps are first order in delta


def test_sweep_varied_runs_from_the_configured_initial_data(tmp_path):
    # Every run of a varied sweep starts from the config's init data and
    # init_floor, not from the preset alone.
    x = (np.arange(16) + 0.5) / 16
    preset = {
        "mode": "sweep",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"tau": 5e-3, "t_final": 0.02, "eps": 0.0},
        "init": {"preset": "gauss-bump"},
        "sweep": {"varied": {"tau": [1e-2, 5e-3], "delta": [1e-3, 1e-4]}},
    }
    cosines = {
        "rho0": (1.0 + 0.5 * np.cos(np.pi * x)).tolist(),
        "theta0": (1.0 + 0.3 * np.cos(2.0 * np.pi * x)).tolist(),
    }
    docs = {
        "preset": preset,
        "explicit": dict(preset, init=cosines),
        "rerun": dict(preset, init=cosines),
        "floored": dict(preset, scheme=dict(preset["scheme"], init_floor=0.5)),
        # A varied init_floor changes each run's initial data.
        "floor-varied": dict(preset, sweep={"varied": {"init_floor": [0.5, 1e-12]}}),
        "floor-fixed": dict(
            preset,
            scheme=dict(preset["scheme"], init_floor=0.5),
            sweep={"varied": {"tau": [5e-3]}},
        ),
    }
    summaries = {}
    for name, doc in docs.items():
        cfg = _write_config(tmp_path, doc, f"{name}.json")
        assert main(["sweep", cfg, f"output.directory={tmp_path / name}"]) == 0
        summaries[name] = (tmp_path / name / "sweep_summary.csv").read_bytes()
    assert summaries["rerun"] == summaries["explicit"] != summaries["preset"]
    assert summaries["floored"] != summaries["preset"]
    floor_rows = summaries["floor-varied"].decode("utf-8").splitlines()
    fixed_rows = summaries["floor-fixed"].decode("utf-8").splitlines()
    assert floor_rows[0].startswith("init_floor,mass_drift,energy_drift,entropy_final,")
    high, low = (row.split(",") for row in floor_rows[1:])
    assert float(high[0]) == 0.5 and float(low[0]) == 1e-12
    assert high[1:4] != low[1:4]
    # the drifts and final entropy; the gaps differ, as each run has its own last
    assert high[1:4] == fixed_rows[1].split(",")[1:4]
    lines = summaries["explicit"].decode("utf-8").splitlines()
    assert lines[0].startswith("delta,tau,mass_drift,energy_drift,entropy_final,")
    combos = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
    assert combos == [(1e-3, 1e-2), (1e-3, 5e-3), (1e-4, 1e-2), (1e-4, 5e-3)]


def test_compare_starts_both_runs_from_the_floored_initial_data(tmp_path):
    # The kinetic runs and the macroscopic reference start from the preset
    # clipped to scheme.init_floor, the same data as the clipped arrays.
    x = (np.arange(16) + 0.5) / 16
    preset = {
        "mode": "compare",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"t_final": 0.01},
        "kinetic": {"eps": [0.4, 0.2]},
        "init": {"preset": "gauss-bump"},
    }
    clipped = {
        "rho0": np.maximum(0.2 + np.exp(-50.0 * (x - 0.5) ** 2), 0.5).tolist(),
        "theta0": np.ones(16).tolist(),
    }
    docs = {
        "default": preset,
        "floored": dict(preset, scheme=dict(preset["scheme"], init_floor=0.5)),
        "clipped": dict(preset, init=clipped),
    }
    tables = {}
    for name, doc in docs.items():
        cfg = _write_config(tmp_path, doc, f"{name}.json")
        assert main(["compare", cfg, f"output.directory={tmp_path / name}"]) == 0
        tables[name] = (tmp_path / name / "table.csv").read_bytes()
    assert tables["floored"] == tables["clipped"] != tables["default"]


def test_kinetic_starts_from_the_floored_initial_data(tmp_path):
    # Like the other modes, kinetic clips the preset up to scheme.init_floor.
    x = (np.arange(16) + 0.5) / 16
    preset = {
        "mode": "kinetic",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"t_final": 0.005},
        "kinetic": {"eps": 0.2, "n_v": 17},
        "init": {"preset": "gauss-bump"},
    }
    clipped = {
        "rho0": np.maximum(0.2 + np.exp(-50.0 * (x - 0.5) ** 2), 0.5).tolist(),
        "theta0": np.ones(16).tolist(),
    }
    docs = {
        "default": preset,
        "floored": dict(preset, scheme=dict(preset["scheme"], init_floor=0.5)),
        "clipped": dict(preset, init=clipped),
    }
    finals = {}
    for name, doc in docs.items():
        cfg = _write_config(tmp_path, doc, f"{name}.json")
        assert main(["kinetic", cfg, f"output.directory={tmp_path / name}"]) == 0
        finals[name] = (tmp_path / name / "kinetic_final.csv").read_bytes()
    assert finals["floored"] == finals["clipped"] != finals["default"]


def test_zero_init_entries_are_raised_to_the_floor_like_tiny_ones(tmp_path, caplog):
    # A vacuum written as 0 starts the same run as one written as 1e-300:
    # both lie below scheme.init_floor and are raised to it.
    inside = np.abs((np.arange(16) + 0.5) / 16 - 0.5) < 0.2
    outputs = {}
    for vacuum in (0, 1e-300):
        doc = {
            "mode": "macro",
            "grid": {"n_cells": 16, "length": 1.0},
            "scheme": {"tau": 1e-3, "t_final": 0.005, "eps": 0.0, "delta": 0.0},
            "init": {"rho0": np.where(inside, 1.0, vacuum).tolist(), "theta0": [1.0] * 16},
            "output": {"snapshot_stride": 1},
        }
        out = tmp_path / f"out-{vacuum}"
        cfg = _write_config(tmp_path, doc, f"{vacuum}.json")
        caplog.clear()
        assert main(["macro", cfg, f"output.directory={out}"]) == 0
        assert "clipped 10 initial cells" in caplog.text
        outputs[vacuum] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs[0] == outputs[1e-300]


def test_mms_mode_writes_tables(tmp_path):
    doc = {
        "mode": "mms",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"tau": 1e-3, "t_final": 0.01, "eps": 0.0, "delta": 0.0},
        "mms": {"resolutions": [8, 16]},
        "output": {"directory": str(tmp_path / "mms")},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["mms", cfg]) == 0
    assert (tmp_path / "mms" / "table.csv").exists()
    assert (tmp_path / "mms" / "table_temporal.csv").exists()


def _run_python(*args):
    paths = [str(Path(etlab.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_of_a_submodule_loads_only_that_submodule():
    # The package itself imports nothing: etlab.grid needs no LAPACK.
    proc = _run_python(
        "-c",
        "import sys, etlab.grid; print(sorted(m for m in sys.modules if m.startswith('etlab')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['etlab', 'etlab.grid']"


def test_python_m_cli_runs_main():
    proc = _run_python("-m", "etlab.cli")
    assert proc.returncode == 3
    assert "usage" in proc.stderr


def test_perfbench_tracer_installs_against_the_package():
    # perfbench/tracing.py patches etlab functions by name; a refactor that
    # drops or renames one breaks every traced benchmark run.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = _run_python(
        "-c",
        f"import sys; sys.path.insert(0, {str(perfbench)!r}); import tracing; "
        "assert callable(tracing.install(tracing.Tracer()))",
    )
    assert proc.returncode == 0, proc.stderr


_IMPORT_BOUNDARY = """
import sys
import etlab.cli
print("scipy.linalg" in sys.modules)
import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from etlab.linalg import BandedCholesky, BandedSymmetricMatrix
rng = np.random.default_rng(5)
n = 50
for bw in (1, 3):
    bands = rng.normal(size=(bw + 1, n))
    for k in range(1, bw + 1):
        bands[k, n - k :] = 0.0
    bands[0] = np.abs(bands[0]) + 2.0 * (bw + 1) * np.abs(bands).max() + 1.0
    rhs = rng.normal(size=n)
    chol = BandedCholesky(BandedSymmetricMatrix(n=n, bandwidth=bw, bands=bands))
    factor, info_f = dpbtrf(bands, lower=1)
    x, info_s = dpbtrs(factor, rhs, lower=1)
    print(info_f, info_s, np.array_equal(chol._factor, factor), np.array_equal(chol.solve(rhs), x))
"""


def test_import_cli_leaves_scipy_linalg_unimported_and_importable():
    # etlab loads scipy's LAPACK wrapper module by file location; a later
    # import of scipy.linalg in the same process must still work and call
    # the same routines.
    proc = _run_python("-c", _IMPORT_BOUNDARY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "0 0 True True", "0 0 True True"]
