import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etlab
from etlab.cli import EXIT_AUDIT, ConfigError, _read_csv, _write_csv, main, parse_config


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
    cfg = parse_config(json.dumps(doc))
    grid = cfg.build_grid()
    with pytest.raises(ConfigError, match="init"):
        cfg.initial_fields(grid)


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
    "override",
    [
        "scheme.fp_max_iter=2.5",
        "scheme.tau=true",
        "grid.n_cells=true",
        "scheme.sigma_ramp=0.5",
        "kinetic.eps=[]",
        "grid.size=8",
        "scheme.edge_mean=geometric",
    ],
)
def test_invalid_override_exits_3_without_exception(tmp_path, capsys, override):
    cfg = _write_config(tmp_path, MINIMAL)
    assert main(["macro", cfg, override]) == 3
    assert "config error" in capsys.readouterr().err


def test_override_takes_same_values_as_file():
    from_override = parse_config(json.dumps(MINIMAL), ["kinetic.eps=[0.2,0.1]"])
    from_file = parse_config(json.dumps(dict(MINIMAL, kinetic={"eps": [0.2, 0.1]})))
    assert from_override == from_file
    assert from_override.kinetic_eps_values == [0.2, 0.1]


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
        sweep={"which": "delta", "values": [1e-2, 1e-3]},
    )
    cfg = _write_config(tmp_path, doc)
    assert main([mode, cfg]) == 3
    assert "scheme.t_final" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep",
    [{"which": "tau", "values": [1e-3, 3e-4]}, {"varied": {"t_final": [2e-3, 1.5e-3]}}],
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


def test_macro_outputs_snapshots_and_audits(tmp_path):
    cfg = _write_config(tmp_path, _macro_doc(tmp_path))
    assert main(["macro", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "snapshot_0.csv").exists()
    assert (out / "snapshot_4.csv").exists()
    payload = json.loads((out / "audits.json").read_text())
    assert payload["all_passed"] is True
    assert len(payload["records"]) == 4


def test_macro_byte_identical_reruns(tmp_path):
    doc = _macro_doc(tmp_path)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg, f"output.directory={tmp_path/'a'}"]) == 0
    assert main(["macro", cfg, f"output.directory={tmp_path/'b'}"]) == 0
    for name in ("trajectory.csv", "snapshot_0.csv", "audits.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
    _write_csv(path, header, rows)
    return path, header, rows


def test_write_csv_formats_each_value_as_format_17g(tmp_path):
    path, header, rows = _write_csv_values(tmp_path)
    lines = [",".join(header)] + [
        ",".join(format(float(x), ".17g") for x in row) for row in rows
    ]
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
    doc = _macro_doc(tmp_path, delta=1e-4, eps=1e-6)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    audits = tmp_path / "out" / "audits.json"
    assert main(["macro", cfg]) == 0
    solved = _strict_json(audits)["records"]
    assert main(["audit", cfg]) == 0
    replayed = _strict_json(audits)["records"]
    flags = ("mass_pass", "energy_pass", "entropy_pass")
    assert len(solved) == len(replayed) == 4
    for a, b in zip(solved, replayed):
        assert a.keys() == b.keys()
        assert [a[f] for f in flags] == [b[f] for f in flags]
        assert a["step"] == b["step"]
        assert a["iterations"] > 0 and b["iterations"] == 0
        assert a["residual"] >= 0.0 and b["residual"] is None


def _corrupt_snapshot(out, damage):
    if damage == "header-only trajectory":
        traj = out / "trajectory.csv"
        traj.write_text(traj.read_text().splitlines()[0] + "\n")
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
    "damage", ["w=1000", "nan", "truncated", "header-only trajectory"]
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


def test_solver_failure_exits_2_when_tau_would_underflow(tmp_path):
    # Over 1074 halvings take tau below the smallest positive double.
    doc = _macro_doc(tmp_path, fp_max_iter=1, tau_backoff_limit=1100)
    doc["init"]["preset"] = "gauss-bump"
    cfg = _write_config(tmp_path, doc)
    assert main(["macro", cfg, "grid.n_cells=8"]) == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "solver"


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


def test_macro_default_settings_converge_on_cold_data(tmp_path):
    # theta drops to 1e-3 away from a hot bump: near the degeneracy of the
    # system, where ellipticity is lost as theta vanishes.
    x = (np.arange(64) + 0.5) / 64
    theta0 = 1e-3 + np.exp(-200.0 * (x - 0.5) ** 2)
    doc = dict(MINIMAL, init={"rho0": [1.0] * 64, "theta0": theta0.tolist()})
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["macro", cfg, "scheme.t_final=0.01", f"output.directory={out}"]) == 0
    _assert_run_passed(out)


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
def test_kinetic_relaxation_failure_exits_2(tmp_path, capsys):
    # Eight nodes on [-1e6, 1e6] cannot resolve a unit-temperature
    # Maxwellian: its discrete moments underflow and relaxation fails.
    doc = {
        "mode": "kinetic",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"t_final": 1e-6},
        "kinetic": {"eps": 0.5, "n_v": 8, "v_max": 1e6},
        "output": {"directory": str(tmp_path / "kin")},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["kinetic", cfg]) == 2
    assert "relaxation temperature solve failed" in capsys.readouterr().err
    record = json.loads((tmp_path / "kin" / "error.json").read_text())
    assert record["error"] == "solver"


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


def test_sweep_values_not_decreasing_exits_3(tmp_path, capsys):
    doc = dict(MINIMAL, grid={"n_cells": 8, "length": 1.0}, scheme={"t_final": 2e-3})
    cfg = _write_config(tmp_path, doc)
    assert main(["sweep", cfg, "sweep.which=delta", "sweep.values=[1e-3,1e-2]"]) == 3
    assert "sweep.values" in capsys.readouterr().err


def test_kinetic_eps_not_decreasing_exits_3(tmp_path, capsys):
    doc = dict(MINIMAL, grid={"n_cells": 8, "length": 1.0}, scheme={"t_final": 2e-3})
    cfg = _write_config(tmp_path, doc)
    assert main(["compare", cfg, "kinetic.eps=[0.2,0.4]"]) == 3
    assert "kinetic.eps" in capsys.readouterr().err


def test_sweep_mode_writes_table(tmp_path):
    doc = {
        "mode": "sweep",
        "grid": {"n_cells": 16, "length": 1.0},
        "scheme": {"tau": 2e-3, "t_final": 0.01, "eps": 0.0},
        "init": {"preset": "gauss-bump"},
        "sweep": {"which": "delta", "values": [1e-2, 1e-3, 1e-4]},
        "output": {"directory": str(tmp_path / "sw")},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["sweep", cfg]) == 0
    table = (tmp_path / "sw" / "table.csv").read_text().splitlines()
    assert table[0] == "param,err_rho_L1,err_E_L1,order_rho,order_E"
    assert len(table) == 3  # two rows measured against the smallest value
    assert (tmp_path / "sw" / "drifts.csv").exists()


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


def test_python_m_cli_runs_main():
    proc = _run_python("-m", "etlab.cli")
    assert proc.returncode == 3
    assert "usage" in proc.stderr


def test_import_cli_does_not_import_sympy():
    proc = _run_python("-c", "import sys, etlab.cli; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_IMPORT_BOUNDARY = """
import sys
import etlab.cli
print(sorted(m for m in ("scipy.linalg", "sympy") if m in sys.modules))
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
    assert proc.stdout.splitlines() == ["[]", "0 0 True True", "0 0 True True"]
