"""Tests of the benchmark's own code: generator, output checker, span arithmetic,
host-speed probe.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY_MACRO = run.Workload(
    "tiny-macro", ("macro", "audit"), "temp-step", 8, {"tau": 1e-3, "t_final": 0.003},
    snapshot_stride=1,
)
TINY_KINETIC = run.Workload(
    "tiny-kinetic", ("kinetic",), "gauss-bump", 8, {"t_final": 0.002},
    {"eps": 0.1, "n_v": 16, "v_max": 8.0},
)


def _run(workload, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(run.config_text(workload, 3), encoding="utf-8")
    sample = tmp_path / "sample"
    result = run.run_sample(workload, config, sample, False, time.monotonic() + 120)
    return sample, result


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_config_is_deterministic_per_seed(name):
    workload = run.WORKLOADS[name]
    text = run.config_text(workload, 7)
    assert text == run.config_text(workload, 7)
    assert text != run.config_text(workload, 8)
    init = json.loads(text)["init"]
    for key in ("rho0", "theta0"):
        assert len(init[key]) == workload.n_cells
        assert min(init[key]) > 0.0


@pytest.mark.parametrize("preset", ["gauss-bump", "temp-step"])
def test_preset_profiles_match_the_cli(preset):
    from etlab.experiments import initial_condition
    from etlab.grid import build_grid

    grid = build_grid(64, 1.0)
    rho, theta = run._preset(preset, list(grid.cell_centers))
    want_rho, want_theta = initial_condition(preset, grid)
    assert rho == pytest.approx(list(want_rho), rel=1e-14)
    assert theta == pytest.approx(list(want_theta), rel=1e-14)


def test_checker_flags_tampered_audits_and_failed_exits(tmp_path):
    sample, result = _run(TINY_MACRO, tmp_path)
    assert run.check_sample(TINY_MACRO, sample, result) == []

    audits = sample / "audits.macro.json"
    good = audits.read_text(encoding="utf-8")
    doc = json.loads(good)
    doc["all_passed"] = False
    audits.write_text(json.dumps(doc), encoding="utf-8")
    assert any("all_passed" in p for p in run.check_sample(TINY_MACRO, sample, result))

    doc = json.loads(good)
    doc["records"][1]["energy_pass"] = False
    audits.write_text(json.dumps(doc), encoding="utf-8")
    assert any("audits fail" in p for p in run.check_sample(TINY_MACRO, sample, result))

    audits.write_text(good, encoding="utf-8")
    assert run.check_sample(TINY_MACRO, sample, dict(result, rcs=[0, 2])) == [
        "audit exited 2"
    ]


def test_checker_flags_config_error_exit(tmp_path):
    bad = run.Workload("bad", ("macro",), "gauss-bump", 8, {"t_final": 0.002, "bogus": 1.0})
    sample, result = _run(bad, tmp_path)
    assert result["rcs"] == [3]
    assert run.check_sample(bad, sample, result) == ["macro exited 3"]


def test_checker_flags_kinetic_drift(tmp_path):
    sample, result = _run(TINY_KINETIC, tmp_path)
    assert run.check_sample(TINY_KINETIC, sample, result) == []
    path = sample / "out" / "kinetic_trajectory.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    assert any("mass drift" in p for p in run.check_sample(TINY_KINETIC, sample, result))


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "macro-n1024"]) == 2


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["root", -1, 0.0, 10.0, None],
        ["a", 0, 1.0, 4.0, None],
        ["a.child", 1, 2.0, 3.0, None],
        ["b", 0, 3.0, 6.0, None],  # overlaps a: [3, 4] is covered once
        ["c", 0, 8.0, 12.0, None],  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["scheme.run_transient", 0, 1.0, 9.0, None],
        ["scheme.fixed_point_step", 1, 1.0, 5.0, None],
        ["linalg.factor", 2, 1.0, 2.0, (10, 4)],
        ["linalg.solve", 2, 2.0, 2.5, (10, 4)],
        ["thermo.to_primitive", 2, 2.5, 3.0, None],
        ["grid.integrate", 2, 3.0, 3.25, None],
        ["scheme.budget_audit", 2, 3.5, 4.5, None],
        ["thermo.to_primitive", 7, 4.0, 4.25, None],
        ["scheme.fixed_point_step", 1, 5.0, 8.0, None],
        ["linalg.solve", 9, 5.0, 6.0, (10, 4)],
    ]
    records = [{"iterations": 2, "tau_used": 1e-3}, {"iterations": 1, "tau_used": 1e-3}]
    m = tracing.layer_metrics(spans, 10.5, records, 1e-3, 3, 300)
    assert m["linalg.factor_calls"] == 1 and m["linalg.solve_calls"] == 2
    assert m["linalg.factor_s"] == 1.0 and m["linalg.solve_s"] == 1.5
    assert m["linalg.unknowns_factored"] == 10
    assert m["linalg.flops_computed"] == 10 * 25 + 2 * (2 * 10 * 9)
    assert m["scheme.steps"] == 2 and m["scheme.iters_per_step"] == 1.5
    assert m["scheme.useful_solve_ratio"] == 0.5
    assert m["scheme.audit_s"] == 1.0
    assert m["thermo.calls"] == 2 and m["thermo.s"] == 0.75
    assert m["grid.s"] == 0.25
    # run_transient 1 + first step 0.75 + its audit 0.75 + second step 2
    assert m["scheme.self_s"] == pytest.approx(4.5)
    assert m["cli.self_s"] == 2.0
    assert m["kinetic.steps"] == 0
    assert m["trace.unattributed_s"] == pytest.approx(0.5)


def test_tau_halvings_replays_substeps():
    # Step 2 halves once to 5e-4, then the remaining 5e-4 halves once more.
    taus = [1e-3, 5e-4, 2.5e-4, 2.5e-4, 1e-3]
    assert tracing.tau_halvings([{"tau_used": t} for t in taus], 1e-3) == 2


def test_import_times_split():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | encodings",
            "import time:       500 |      90000 |     numpy",
            "import time:       300 |      95000 |   etlab.grid",
            "import time:      1000 |     100000 | etlab",
            "import time:       200 |     350000 |     sympy",
            "import time:      2000 |     400000 | etlab.cli",
        ]
    )
    got = run.import_times(text)
    assert got["setup.import_numpy_s"] == pytest.approx(0.09)
    assert got["setup.import_sympy_s"] == pytest.approx(0.35)
    assert got["setup.import_etlab_s"] == pytest.approx(0.06)


def test_speed_probe_scales_by_the_mean_host_speed():
    ref_py, ref_np = hostspeed.REF_PY_S, hostspeed.REF_NP_S
    probe = hostspeed.SpeedProbe(0.75)
    probe.py_durations = [ref_py, 2 * ref_py, 4 * ref_py]
    probe.np_durations = [ref_np / 2] * 3
    probe.probe_s = 0.5
    # interpreter speed (1 + 1/2 + 1/4) / 3 = 7/12, array speed 2
    assert probe.scale() == pytest.approx((7 / 12) ** 0.75 * 2.0**0.25)
    # applied to the region minus the probes
    assert probe.scaled(2.5) == pytest.approx(2.0 * probe.scale())

    setup = hostspeed.SpeedProbe(0.5, with_numpy=False)
    setup.py_durations = [4 * ref_py]
    assert setup.scale() == pytest.approx(0.5)


def test_speed_probe_samples_during_a_region_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.SpeedProbe(0.5, period_s=0.01)
    start = time.perf_counter()
    probe.start()
    while time.perf_counter() - start < 0.2:
        hostspeed.py_kernel()
    probe.stop()
    region = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a probe before, one after and about one per period in between
    assert len(probe.py_durations) == len(probe.np_durations) >= 5
    assert 0.0 < probe.probe_s < region
    assert probe.scale() > 0.0
