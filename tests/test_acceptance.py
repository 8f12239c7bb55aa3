"""Acceptance suite: one test per verification criterion.

Each test prints a single PASS line (visible with pytest -s) after its
assertions hold. The transient run matrix is shared between criteria
through session-scoped fixtures.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from etlab.grid import build_grid, integrate
from etlab.kinetic import (
    build_velocity_grid,
    closure_identity_errors,
    energy_total,
    init_equilibrium,
    kinetic_step,
    maxwellian_moments_check,
    moments,
)
from etlab.scheme import SchemeParams, make_initial_state, run_transient
from etlab.experiments import (
    default_manufactured,
    default_run_matrix,
    fit_loglog_slope,
    initial_condition,
    kinetic_limit_study,
    mms_convergence,
    sweep_study,
)
from etlab.thermo import (
    entropy_tilde,
    flux_consistency,
    hessian_htilde,
    onsager,
    to_entropic,
    to_primitive,
)

N_CELLS = 64
T_FINAL = 0.1


def _report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="session")
def run_matrix():
    """All 36 transient runs of the verification matrix (coupled solver)."""
    grid = build_grid(N_CELLS, 1.0)
    results = {}
    for preset, params in default_run_matrix(t_final=T_FINAL):
        init = make_initial_state(*initial_condition(preset, grid))
        traj = run_transient(grid, init, params)
        results[(preset, params.eps, params.delta, params.tau)] = (params, traj)
    return grid, results


def test_criterion_1_structural_identities():
    rng = np.random.default_rng(2024)
    rho = rng.uniform(0.0, 10.0, size=10_000)
    theta = rng.uniform(0.0, 10.0, size=10_000)
    mobility = onsager(rho, theta)
    min_eig = float(np.min(mobility.min_eigenvalue()))
    assert min_eig >= -1e-12

    det = mobility.determinant()
    exact = rho * theta**3 + 2.5 * rho**2 * theta**4
    det_gap = float(np.max(np.abs(det - exact) / (1.0 + np.abs(exact))))
    assert det_gap <= 1e-12

    hess_gap = 0.0
    for rho_v, energy_v in [(1.0, 1.0), (0.4, 2.1), (2.3, 0.7), (1.7, 3.2)]:
        matrix, det_v = hessian_htilde(rho_v, energy_v)
        gamma = 1.0 + 1.5 * rho_v
        assert det_v == pytest.approx(gamma / (rho_v * energy_v**2), rel=1e-13)
        hr, he = 1e-4 * rho_v, 1e-4 * energy_v
        fd = np.empty((2, 2))
        fd[0, 0] = (
            entropy_tilde(rho_v + hr, energy_v)
            - 2.0 * entropy_tilde(rho_v, energy_v)
            + entropy_tilde(rho_v - hr, energy_v)
        ) / hr**2
        fd[1, 1] = (
            entropy_tilde(rho_v, energy_v + he)
            - 2.0 * entropy_tilde(rho_v, energy_v)
            + entropy_tilde(rho_v, energy_v - he)
        ) / he**2
        fd[0, 1] = fd[1, 0] = (
            entropy_tilde(rho_v + hr, energy_v + he)
            - entropy_tilde(rho_v + hr, energy_v - he)
            - entropy_tilde(rho_v - hr, energy_v + he)
            + entropy_tilde(rho_v - hr, energy_v - he)
        ) / (4.0 * hr * he)
        gap = float(np.max(np.abs(fd - matrix) / (1.0 + np.abs(matrix))))
        hess_gap = max(hess_gap, gap)
        assert gap <= 1e-5

    orders = []
    prev = None
    for n in (32, 64, 128, 256):
        grid = build_grid(n, 1.0)
        x = grid.cell_centers
        state = to_entropic(
            1.0 + 0.3 * np.cos(np.pi * x), 1.0 + 0.2 * np.cos(2.0 * np.pi * x)
        )
        res = max(flux_consistency(grid, state))
        if prev is not None:
            orders.append(math.log2(prev / res))
        prev = res
    assert all(1.7 <= o <= 2.3 for o in orders)

    _report(
        "PASS criterion 1: Onsager min eig {:.1e} >= -1e-12, det identity {:.1e}, "
        "Hessian vs finite differences {:.1e}, flux-consistency orders {}".format(
            min_eig, det_gap, hess_gap, [f"{o:.2f}" for o in orders]
        )
    )


def test_criterion_2_maxwellian_moments():
    worst = 0.0
    for theta in (0.5, 1.0, 2.0):
        report = maxwellian_moments_check(theta)
        assert report.box_adequate
        assert report.max_error <= 1e-8
        worst = max(worst, report.max_error)
        err0, err2 = closure_identity_errors(theta)
        assert err0 <= 1e-8 and err2 <= 1e-8
        worst = max(worst, err0, err2)
    _report(f"PASS criterion 2: Maxwellian moment + closure identities, worst error {worst:.2e}")


def test_criterion_3_exact_budgets(run_matrix):
    grid, results = run_matrix
    worst_mass = worst_energy = worst_cons = 0.0
    n_steps = 0
    for (preset, eps, delta, tau), (params, traj) in results.items():
        for b in traj.reports:
            n_steps += 1
            worst_mass = max(worst_mass, b["mass_error"] / (1.0 + abs(b["mass_lhs"])))
            worst_energy = max(worst_energy, b["energy_error"] / (1.0 + abs(b["energy_lhs"])))
            assert b["mass_error"] <= 1e-10 * (1.0 + abs(b["mass_lhs"]))
            assert b["energy_error"] <= 1e-10 * (1.0 + abs(b["energy_lhs"]))
            if eps == 0.0 and delta == 0.0:
                assert abs(b["mass_lhs"]) <= 1e-10
                assert abs(b["energy_lhs"]) <= 1e-10
                worst_cons = max(worst_cons, abs(b["mass_lhs"]), abs(b["energy_lhs"]))
    _report(
        f"PASS criterion 3: budgets on {n_steps} accepted steps, worst relative "
        f"errors mass {worst_mass:.1e} / energy {worst_energy:.1e}, "
        f"conservation drift {worst_cons:.1e}"
    )


def test_criterion_4_entropy_monotonicity(run_matrix):
    grid, results = run_matrix
    worst = worst_eps0 = -np.inf
    min_edge = np.inf
    for (preset, eps, delta, tau), (params, traj) in results.items():
        for ent in traj.reports:
            rel = ent["entropy_violation"] / (1.0 + abs(ent["entropy_before"]))
            worst = max(worst, rel)
            assert rel <= 1e-8
            if eps == 0.0:
                worst_eps0 = max(worst_eps0, rel)
                assert rel <= 1e-12
            min_edge = min(min_edge, ent["edge_form_min"])
            assert ent["edge_form_min"] >= 0.0
    _report(
        f"PASS criterion 4: entropy never rises past the slack (worst rel. "
        f"violation {worst:.1e}; eps=0 worst {worst_eps0:.1e}; "
        f"per-edge dissipation min {min_edge:.1e})"
    )


def test_criterion_5_positivity(run_matrix):
    grid, results = run_matrix
    min_theta = min_rho = np.inf
    for _, (params, traj) in results.items():
        for state in traj.states:
            mac = to_primitive(state)
            min_theta = min(min_theta, float(np.min(mac.theta)))
            min_rho = min(min_rho, float(np.min(mac.rho)))
    assert min_theta > 0.0
    assert min_rho > 0.0
    _report(
        f"PASS criterion 5: positivity over all trajectories "
        f"(min theta {min_theta:.3e}, min rho {min_rho:.3e})"
    )


def test_criterion_6_delta_drift_scaling():
    grid = build_grid(N_CELLS, 1.0)
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4, t_final=T_FINAL)
    values = [1e-2, 1e-3, 1e-4]
    rows = sweep_study(grid, *initial_condition("gauss-bump", grid), p, {"delta": values})
    drifts = [abs(row.mass_drift) for row in rows]
    slope = fit_loglog_slope(values, drifts)
    assert slope >= 0.5
    _report(
        f"PASS criterion 6: mass-drift log-log slope {slope:.3f} >= 0.5 "
        f"(drifts {['%.3e' % d for d in drifts]})"
    )


def test_criterion_7_discretization_orders():
    ms = default_manufactured(1.0)
    p = SchemeParams(tau=2e-4, eps=0.0, delta=0.0, t_final=0.02)
    result = mms_convergence([16, 32, 64], ms, p)
    spatial_orders = [
        o
        for row in result.spatial.rows
        for o in (row.order_rho, row.order_energy)
        if not math.isnan(o)
    ]
    temporal_orders = [
        o
        for row in result.temporal.rows
        for o in (row.order_rho, row.order_energy)
        if not math.isnan(o)
    ]
    assert all(1.8 <= o <= 2.2 for o in spatial_orders)
    assert all(0.8 <= o <= 1.2 for o in temporal_orders)
    _report(
        "PASS criterion 7: spatial orders {} in 2.0+-0.2, temporal orders {} "
        "in 1.0+-0.2".format(
            [f"{o:.2f}" for o in spatial_orders], [f"{o:.2f}" for o in temporal_orders]
        )
    )


def test_criterion_8_kinetic_conservation():
    grid = build_grid(N_CELLS, 1.0)
    vgrid = build_velocity_grid(8.0, 64)
    rho0, theta0 = initial_condition("gauss-bump", grid)
    state = init_equilibrium(grid, vgrid, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * grid.h / vgrid.v_max
    mass_prev = integrate(grid, moments(state)[0])
    energy_prev = energy_total(grid, state)
    worst_mass = worst_energy = 0.0
    for _ in range(1000):
        state = kinetic_step(state, dt)
        mass = integrate(grid, moments(state)[0])
        energy = energy_total(grid, state)
        worst_mass = max(worst_mass, abs(mass - mass_prev) / (1.0 + abs(mass_prev)))
        worst_energy = max(
            worst_energy, abs(energy - energy_prev) / (1.0 + abs(energy_prev))
        )
        mass_prev, energy_prev = mass, energy
    assert worst_mass <= 1e-12
    assert worst_energy <= 1e-10
    _report(
        f"PASS criterion 8: kinetic per-step conservation over 1000 steps "
        f"(mass {worst_mass:.1e} <= 1e-12, total energy {worst_energy:.1e} <= 1e-10)"
    )


def test_criterion_9_diffusion_limit():
    grid = build_grid(256, 1.0)
    init = make_initial_state(*initial_condition("gauss-bump", grid))
    table = kinetic_limit_study(
        grid, init, [0.4, 0.2, 0.1, 0.05], t_final=T_FINAL, tau_macro=5e-4
    )
    err_rho = [row.err_rho for row in table.rows]
    err_energy = [row.err_energy for row in table.rows]
    assert all(b < a for a, b in zip(err_rho, err_rho[1:]))
    assert all(b < a for a, b in zip(err_energy, err_energy[1:]))
    assert err_rho[0] / err_rho[-1] >= 4.0
    assert err_energy[0] / err_energy[-1] >= 4.0
    _report(
        "PASS criterion 9: L1 errors decrease monotonically over the Knudsen sweep "
        "(reduction factors rho {:.1f}, energy {:.1f} >= 4)".format(
            err_rho[0] / err_rho[-1], err_energy[0] / err_energy[-1]
        )
    )


def test_criterion_10_solver_equivalence(run_matrix):
    grid, results = run_matrix
    worst = 0.0
    n_pairs = 0
    # the runs with eps > 0 and delta > 0; test_scheme covers picard without them
    for preset, params in default_run_matrix(t_final=T_FINAL):
        if params.eps == 0.0 or params.delta == 0.0:
            continue
        _, traj_coupled = results[(preset, params.eps, params.delta, params.tau)]
        init = make_initial_state(*initial_condition(preset, grid))
        traj_picard = run_transient(
            grid, init, replace(params, inner_mode="paper_picard")
        )
        for a, b in zip(traj_coupled.states, traj_picard.states):
            gap = max(
                float(np.max(np.abs(a.phi - b.phi))),
                float(np.max(np.abs(a.w - b.w))),
            )
            worst = max(worst, gap)
            assert gap <= 10.0 * params.fp_tol
        n_pairs += 1
    _report(
        f"PASS criterion 10: fixed points of both inner solvers agree on "
        f"{n_pairs} runs (worst gap {worst:.2e} <= 1e-9)"
    )
