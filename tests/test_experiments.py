import math
from dataclasses import astuple

import numpy as np
import pytest

from etlab.grid import build_grid, grad_edge, integrate
from etlab.kinetic import build_velocity_grid, run_kinetic
from etlab.scheme import SchemeParams, make_initial_state, run_transient
from etlab.thermo import to_primitive
from etlab.experiments import (
    PRESET_NAMES,
    ConvergenceTable,
    ManufacturedSolution,
    default_manufactured,
    default_run_matrix,
    fit_loglog_slope,
    initial_condition,
    kinetic_limit_study,
    mms_convergence,
    sweep_study,
)

GRID = build_grid(32, 1.0)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["equilibrium", "gauss-bump", "temp-step"])
def test_presets_positive(name):
    rho0, theta0 = initial_condition(name, GRID)
    assert np.all(rho0 > 0.0)
    assert np.all(theta0 > 0.0)


def test_preset_equilibrium_is_unit():
    rho0, theta0 = initial_condition("equilibrium", GRID)
    assert np.all(rho0 == 1.0) and np.all(theta0 == 1.0)


def test_preset_gauss_bump_shape():
    rho0, theta0 = initial_condition("gauss-bump", GRID)
    assert rho0.max() == pytest.approx(1.2, abs=0.02)  # cell centers miss the peak
    assert rho0.min() == pytest.approx(0.2, abs=0.01)
    assert np.all(theta0 == 1.0)


def test_preset_temp_step_range():
    _, theta0 = initial_condition("temp-step", GRID)
    assert 0.49 < theta0.min() < 0.52
    assert 0.98 < theta0.max() < 1.01


def test_presets_no_flux_compatible():
    # boundary gradients negligible relative to the interior for every preset
    for name in ("gauss-bump", "temp-step"):
        rho0, theta0 = initial_condition(name, GRID)
        for f in (rho0, theta0):
            g = np.abs(grad_edge(GRID, f))
            if g.max() > 0.0:
                assert g[0] < 1e-3 * g.max() or g[0] < 1e-10
                assert g[-1] < 1e-3 * g.max() or g[-1] < 1e-10


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        initial_condition("vortex", GRID)


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------


def test_table_orders_match_log2_on_dyadic_sweep():
    table = ConvergenceTable.from_errors([0.2, 0.1, 0.05], [8.0, 2.0, 0.5], [4.0, 1.0, 0.25])
    assert math.isnan(table.rows[0].order_rho)
    assert table.rows[1].order_rho == pytest.approx(2.0)
    assert table.rows[2].order_energy == pytest.approx(2.0)


def test_table_orders_are_nan_where_the_parameter_ratio_has_no_logarithm():
    # A sweep may run to delta = 0, or pass a value twice or change its sign.
    params = [1e-2, 0.0, 1e-3, 1e-3, -1e-4]
    table = ConvergenceTable.from_errors(params, [5.0, 4.0, 3.0, 2.0, 1.0], [5.0, 4.0, 3.0, 2.0, 1.0])
    for row in table.rows:
        assert math.isnan(row.order_rho) and math.isnan(row.order_energy)


def test_table_csv_round_trip(tmp_path):
    table = ConvergenceTable.from_errors(
        [1e-2, 1e-3, 1e-4], [3.2e-3, 3.3e-4, 3.1e-5], [1.1e-3, 1.2e-4, 1.3e-5]
    )
    path = tmp_path / "table.csv"
    table.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "param,err_rho_L1,err_E_L1,order_rho,order_E"
    again = np.loadtxt(path, delimiter=",", skiprows=1)
    # exact values; the NaN orders of the first row compare equal
    np.testing.assert_array_equal(again, [astuple(r) for r in table.rows])


def test_table_csv_uses_lf_endings(tmp_path):
    table = ConvergenceTable.from_errors([0.5, 0.25], [1.0, 0.25], [1.0, 0.25])
    path = tmp_path / "t.csv"
    table.write_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw


def test_fit_loglog_slope_exact_powers():
    x = [1e-2, 1e-3, 1e-4]
    y = [v**0.5 for v in x]
    assert fit_loglog_slope(x, y) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


def test_sweep_study_equilibrium_errors_vanish():
    # at theta = 1 the eps terms all vanish, so equilibrium is stationary
    # for every eps and the self-convergence errors are zero
    p = SchemeParams(tau=1e-2, eps=1e-4, delta=0.0, t_final=0.05)
    rows = sweep_study(GRID, *initial_condition("equilibrium", GRID), p, {"eps": [1e-4, 1e-5, 1e-6]})
    for row in rows:
        assert row.err_rho < 1e-11
        assert row.err_energy < 1e-11


def test_sweep_study_equilibrium_delta_errors_small():
    # with delta > 0 the equilibrium drifts at rate delta * integral(phi),
    # so self-convergence errors are O(delta), far below bump-run errors
    p = SchemeParams(tau=1e-2, eps=0.0, delta=1e-4, t_final=0.05)
    varied = {"delta": [1e-3, 1e-4, 1e-5]}
    rows = sweep_study(GRID, *initial_condition("equilibrium", GRID), p, varied)
    for row in rows:
        assert row.err_rho < 5e-4
        assert row.err_energy < 5e-4


@pytest.mark.parametrize("resolutions", [[], ()])
def test_mms_convergence_rejects_empty_resolutions(resolutions):
    p = SchemeParams(tau=1e-3, t_final=1e-3)
    with pytest.raises(ValueError, match="resolutions must not be empty"):
        mms_convergence(resolutions, default_manufactured(), p)


def test_mms_convergence_rejects_nonpositive_manufactured_fields():
    ms = default_manufactured()
    negative = ManufacturedSolution(
        lambda x, t: np.full_like(x, -1.0), ms.theta, ms.source_mass, ms.source_energy
    )
    p = SchemeParams(tau=1e-3, t_final=1e-3)
    with pytest.raises(ValueError, match="manufactured fields must be strictly positive"):
        mms_convergence([8], negative, p)


def test_sweep_study_tau_first_order():
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4, t_final=0.04)
    # deep reference value so the Cauchy offset barely biases the slope
    varied = {"tau": [8e-3, 4e-3, 2e-3, 2.5e-4]}
    rows = sweep_study(GRID, *initial_condition("gauss-bump", GRID), p, varied)
    for row in rows[1:-1]:
        assert 0.75 < row.order_rho < 1.35
        assert 0.75 < row.order_energy < 1.35


def test_sweep_study_records_drifts():
    p = SchemeParams(tau=2e-3, eps=0.0, delta=1e-4, t_final=0.02)
    rows = sweep_study(GRID, *initial_condition("gauss-bump", GRID), p, {"delta": [1e-3, 1e-4]})
    assert [row.values for row in rows] == [{"delta": 1e-3}, {"delta": 1e-4}]
    assert abs(rows[0].mass_drift) > abs(rows[1].mass_drift)


def _step_field(x, stepped, half_width=0.2):
    """1 on |x - 1/2| < half_width; outside it, 0 when stepped, else 1."""
    return np.where(np.abs(x - 0.5) < half_width, 1.0, 0.0 if stepped else 1.0)


@pytest.mark.parametrize(
    "rho_step, theta_step", [(True, False), (False, True), (True, True)], ids=["rho", "theta", "both"]
)
def test_sweep_study_converges_to_first_order_as_the_floor_vanishes(rho_step, theta_step):
    # Step data with a vacuum (rho = 0) or a cold region (theta = 0) outside
    # |x - 1/2| < 0.2: the floor that lifts them is a regularization of the
    # degenerate system, and the solution converges to first order in it.
    grid = build_grid(64, 1.0)
    x = grid.cell_centers
    p = SchemeParams(tau=1e-3, eps=0.0, delta=0.0, t_final=0.02)
    varied = {"init_floor": [1e-4, 1e-6, 1e-8, 1e-10]}
    rows = sweep_study(grid, _step_field(x, rho_step), _step_field(x, theta_step), p, varied)
    orders = [row.order_rho for row in rows[1:-1]]
    assert min(orders) >= 0.9, orders


@pytest.mark.parametrize(
    "rho_step, theta_step", [(True, False), (False, True), (True, True)], ids=["rho", "theta", "both"]
)
def test_step_data_converges_to_second_order_in_h(rho_step, theta_step):
    # The same degenerate data with its interfaces on faces (|x - 1/2| < 1/4
    # at every n below): rho at t_final converges to second order in h. The
    # gap of each run is its L1 distance to the n = 1024 run averaged onto
    # its cells.
    p = SchemeParams(tau=2e-4, eps=0.0, delta=0.0, t_final=0.02)

    def final_rho(n):
        grid = build_grid(n, 1.0)
        x = grid.cell_centers
        rho0, theta0 = _step_field(x, rho_step, 0.25), _step_field(x, theta_step, 0.25)
        traj = run_transient(grid, make_initial_state(rho0, theta0, floor=p.init_floor), p)
        return to_primitive(traj.states[-1]).rho

    ref = final_rho(1024)
    ns = (64, 128, 256, 512)
    gaps = [np.abs(final_rho(n) - ref.reshape(n, -1).mean(axis=1)).sum() / n for n in ns]
    orders = np.log2(np.divide(gaps[:-1], gaps[1:]))
    assert min(orders) >= 1.8, orders


def test_sweep_study_orders_only_for_one_varied_field():
    p = SchemeParams(tau=5e-3, eps=0.0, delta=1e-4, t_final=0.01)
    varied = {"delta": [1e-3, 1e-4], "tau": [1e-2, 5e-3]}
    rows = sweep_study(GRID, *initial_condition("gauss-bump", GRID), p, varied)
    assert all(row.err_rho > 0.0 for row in rows[:-1])
    assert rows[-1].err_rho == rows[-1].err_energy == 0.0
    assert all(math.isnan(row.order_rho) and math.isnan(row.order_energy) for row in rows)


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------


def test_manufactured_sources_solve_the_pde_by_fourth_order_differences():
    # S_rho = d_t rho - d_xx (rho theta), S_E = d_t E - d_xx (theta + 5/2 rho theta^2)
    # by 4th-order central differences of the exact fields in x and t
    ms = default_manufactured(1.3)
    xs = np.linspace(0.05, 1.25, 25)
    dh = 1e-3

    def d_t(f, t):
        s = [f(xs, t + k * dh) for k in (-2, -1, 1, 2)]
        return (s[0] - 8 * s[1] + 8 * s[2] - s[3]) / (12 * dh)

    def d_xx(f, t):
        s = [f(xs + k * dh, t) for k in (-2, -1, 0, 1, 2)]
        return (-s[0] + 16 * s[1] - 30 * s[2] + 16 * s[3] - s[4]) / (12 * dh**2)

    def flux_mass(x, t):
        return ms.rho(x, t) * ms.theta(x, t)

    def energy(x, t):
        return ms.theta(x, t) * (1.0 + 1.5 * ms.rho(x, t))

    def flux_energy(x, t):
        return ms.theta(x, t) + 2.5 * ms.rho(x, t) * ms.theta(x, t) ** 2

    for t in (0.0, 0.05, 0.3):
        for source, density, flux in (
            (ms.source_mass, ms.rho, flux_mass),
            (ms.source_energy, energy, flux_energy),
        ):
            want = d_t(density, t) - d_xx(flux, t)
            got = source(xs, t)
            assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(got))


def test_manufactured_sources_match_finite_differences():
    ms = default_manufactured(1.0)
    xs = np.linspace(0.05, 0.95, 7)
    t0, dh = 0.2, 1e-5
    dt_rho = (ms.rho(xs, t0 + dh) - ms.rho(xs, t0 - dh)) / (2.0 * dh)
    flux = lambda x: ms.rho(x, t0) * ms.theta(x, t0)
    dxx = (flux(xs + dh) - 2.0 * flux(xs) + flux(xs - dh)) / dh**2
    assert np.allclose(ms.source_mass(xs, t0), dt_rho - dxx, atol=1e-4)


def test_default_manufactured_positive_and_wall_compatible():
    ms = default_manufactured(1.0)
    xs = np.linspace(0.0, 1.0, 101)
    for t in (0.0, 0.1, 1.0):
        assert np.all(ms.rho(xs, t) > 0.0)
        assert np.all(ms.theta(xs, t) > 0.0)
    dh = 1e-6
    for t in (0.0, 0.5):
        for f in (ms.rho, ms.theta):
            assert abs(f(np.array([dh]), t)[0] - f(np.array([0.0]), t)[0]) < 1e-10


# ---------------------------------------------------------------------------
# kinetic limit
# ---------------------------------------------------------------------------


def test_kinetic_limit_study_rows_are_gaps_to_the_unregularized_run():
    # Row k is the L1 gap at t_final between the BGK moments of eps_k, with
    # energy theta_b + kinetic energy, and the eps = delta = 0 macro run.
    init = make_initial_state(*initial_condition("gauss-bump", GRID))
    eps_values, t_final, tau = [0.4, 0.2], 0.01, 2e-3
    table = kinetic_limit_study(GRID, init, eps_values, t_final, n_v=17, tau_macro=tau)
    p = SchemeParams(tau=tau, eps=0.0, delta=0.0, t_final=t_final)
    macro = to_primitive(run_transient(GRID, init, p).states[-1])
    vgrid = build_velocity_grid(8.0, 17)
    assert [row.param for row in table.rows] == eps_values
    for row, eps in zip(table.rows, eps_values):
        run = run_kinetic(GRID, vgrid, init.rho, init.theta, eps, t_final)
        energy = run.theta_b[-1] + run.kinetic_energy[-1]
        assert row.err_rho == integrate(GRID, np.abs(run.rho[-1] - macro.rho))
        assert row.err_energy == integrate(GRID, np.abs(energy - macro.energy))
        assert row.err_rho > 0.0 and row.err_energy > 0.0
    with pytest.raises(ValueError, match="strictly decreasing"):
        kinetic_limit_study(GRID, init, eps_values[::-1], t_final, n_v=17, tau_macro=tau)


# ---------------------------------------------------------------------------
# the verification matrix
# ---------------------------------------------------------------------------


def test_default_run_matrix_shape():
    matrix = default_run_matrix(t_final=0.05)
    combos = {(preset, p.eps, p.delta, p.tau) for preset, p in matrix}
    assert len(matrix) == len(combos) == 3 * 2 * 3 * 2
    assert {c[0] for c in combos} == set(PRESET_NAMES)
    assert {c[1] for c in combos} == {0.0, 1e-6}
    assert {c[2] for c in combos} == {0.0, 1e-4, 1e-2}
    assert {c[3] for c in combos} == {1e-2, 1e-3}
    assert all(p.t_final == 0.05 and p.inner_mode == "coupled_implicit" for _, p in matrix)
