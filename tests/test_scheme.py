import math
from dataclasses import replace

import numpy as np
import pytest

from etlab.grid import build_grid, integrate
from etlab.linalg import BandedCholesky
from etlab.scheme import (
    SchemeParams,
    StepFailureError,
    _BUDGET_GUARD,
    _assemble_blocks,
    _block_matrix,
    _interleave,
    _residual,
    assemble_residual,
    dissipation_terms,
    entropy_audit,
    fixed_point_step,
    lyapunov_functional,
    make_initial_state,
    run_transient,
)
from etlab.thermo import EntropicState, MacroState, to_entropic, to_primitive

GRID = build_grid(16, 1.0)


def _constant_state(phi, w, n=16):
    return EntropicState(phi=np.full(n, float(phi)), w=np.full(n, float(w)))


def _bump_state(grid):
    x = grid.cell_centers
    rho = 0.2 + np.exp(-50.0 * (x - 0.5 * grid.length) ** 2)
    return to_entropic(rho, np.ones(grid.n_cells))


# ---------------------------------------------------------------------------
# params validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": 0.0},
        {"eps": -1.0},
        {"n_exp": 0.0},
        {"n_exp": 5.0},
        {"inner_mode": "newton"},
        {"t_final": 0.0},
        {"fp_tol": 0.0},
        {"fp_max_iter": 0},
        {"tau_backoff_limit": -1},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SchemeParams(**kwargs)


# ---------------------------------------------------------------------------
# residual assembly
# ---------------------------------------------------------------------------


def test_residual_vanishes_at_constant_equilibrium():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.0)
    s = _constant_state(2.5, 0.0)
    r1, r2 = assemble_residual(GRID, s, s, p)
    assert np.max(np.abs(r1)) == 0.0
    assert np.max(np.abs(r2)) == 0.0


def test_residual_constant_state_delta_terms_only():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.02, n_exp=2.0)
    s = _constant_state(1.7, 0.3)
    r1, r2 = assemble_residual(GRID, s, s, p)
    assert np.allclose(r1, 0.02 * 1.7, rtol=1e-13)
    assert np.allclose(r2, 0.02 * math.exp(-2.0 * 0.3) * 0.3, rtol=1e-13)


def test_residual_quadrature_telescopes():
    # integral of the mass residual == (mass(cand)-mass(prev))/tau + delta*integral(phi)
    rng = np.random.default_rng(0)
    p = SchemeParams(tau=0.05, eps=1e-4, delta=1e-3)
    for _ in range(10):
        prev = EntropicState(rng.uniform(1, 3, 16), rng.uniform(-0.5, 0.5, 16))
        cand = EntropicState(rng.uniform(1, 3, 16), rng.uniform(-0.5, 0.5, 16))
        r1, r2 = assemble_residual(GRID, prev, cand, p)
        mass_diff = integrate(GRID, to_primitive(cand).rho) - integrate(
            GRID, to_primitive(prev).rho
        )
        expected = mass_diff / p.tau + p.delta * integrate(GRID, cand.phi)
        assert integrate(GRID, r1) == pytest.approx(expected, rel=1e-10, abs=1e-12)
        energy_diff = integrate(GRID, to_primitive(cand).energy) - integrate(
            GRID, to_primitive(prev).energy
        )
        theta_c = to_primitive(cand).theta
        expected2 = (
            energy_diff / p.tau
            + p.eps * integrate(GRID, (1.0 + theta_c) * cand.w)
            + p.delta * integrate(GRID, np.exp(-p.n_exp * cand.w) * cand.w)
        )
        assert integrate(GRID, r2) == pytest.approx(expected2, rel=1e-10, abs=1e-12)


def test_entropic_state_requires_finite_entries():
    with pytest.raises(ValueError):
        EntropicState(phi=np.array([1.0, np.nan]), w=np.zeros(2))
    with pytest.raises(ValueError):
        EntropicState(phi=np.zeros(2), w=np.array([np.inf, 0.0]))


def test_assembled_blocks_are_spd():
    # factorization oracle: banded Cholesky succeeds and dense eigenvalues > 0
    rng = np.random.default_rng(1)
    p = SchemeParams(tau=0.05, eps=1e-5, delta=1e-3)
    for _ in range(5):
        frozen = EntropicState(rng.uniform(1, 3, 16), rng.uniform(-0.5, 0.5, 16))
        _, _, mac, edges = _residual(GRID, to_primitive(frozen), frozen, p, 0.0)
        a11, a12, a22 = _assemble_blocks(GRID, frozen, mac, edges, p)
        coupled = _interleave(16, a11, a12, a22)
        BandedCholesky(coupled)
        assert np.min(np.linalg.eigvalsh(coupled.to_dense())) > 0.0
        for block in (a11, a22):
            BandedCholesky(_block_matrix(16, block))


# ---------------------------------------------------------------------------
# fixed-point step
# ---------------------------------------------------------------------------


def test_step_equilibrium_is_fixed_point():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.0, inner_mode="coupled_implicit")
    s = _constant_state(2.5, 0.0)
    out, rep = fixed_point_step(GRID, s, p)
    assert rep.iterations == 1
    assert rep.residual == 0.0
    assert np.array_equal(out.phi, s.phi)
    assert np.array_equal(out.w, s.w)


def _newton_2x2_constant_step(tau, delta, n_exp):
    """Independent oracle: solve the constant-state step equations.

    On spatially constant data the step reduces to two coupled scalar
    equations: delta*phi = -(rho(phi,w) - 1)/tau and
    delta*exp(-N w)*w = -(E(phi,w) - 2.5)/tau.
    """

    def residual(z):
        phi, w = z
        rho = math.exp(phi + 1.5 * w - 2.5)
        energy = math.exp(w) * (1.0 + 1.5 * rho)
        return np.array(
            [
                (rho - 1.0) / tau + delta * phi,
                (energy - 2.5) / tau + delta * math.exp(-n_exp * w) * w,
            ]
        )

    z = np.array([2.5, 0.0])
    for _ in range(100):
        r = residual(z)
        if np.max(np.abs(r)) < 1e-14:
            break
        eye = np.eye(2)
        jac = np.column_stack(
            [(residual(z + 1e-7 * eye[:, j]) - r) / 1e-7 for j in range(2)]
        )
        z = z - np.linalg.solve(jac, r)
    return z


def test_step_constant_state_matches_scalar_newton_oracle():
    tau, delta = 0.1, 0.01
    p = SchemeParams(tau=tau, eps=0.0, delta=delta, n_exp=2.0)
    s = _constant_state(2.5, 0.0)
    out, rep = fixed_point_step(GRID, s, p)
    assert np.ptp(out.phi) < 1e-12 and np.ptp(out.w) < 1e-12
    phi_ref, w_ref = _newton_2x2_constant_step(tau, delta, 2.0)
    assert out.phi[0] == pytest.approx(phi_ref, abs=1e-9)
    assert out.w[0] == pytest.approx(w_ref, abs=1e-9)
    # mass identity against the oracle state
    mass_new = integrate(GRID, to_primitive(out).rho)
    assert mass_new - 1.0 == pytest.approx(
        -tau * delta * integrate(GRID, out.phi), rel=1e-10
    )


def test_step_residual_history_monotone_on_bump():
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4)
    s = _bump_state(build_grid(32, 1.0))
    _, rep = fixed_point_step(build_grid(32, 1.0), s, p)
    # monotone decrease down to the tolerance; below it only roundoff noise
    hist = [r for r in rep.residual_history if r > 10.0 * p.fp_tol]
    assert len(hist) >= 2
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(hist, hist[1:]))


def test_step_modes_share_fixed_point():
    grid = build_grid(32, 1.0)
    s = _bump_state(grid)
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4, fp_tol=1e-11)
    out_c, _ = fixed_point_step(grid, s, replace(p, inner_mode="coupled_implicit"))
    out_p, _ = fixed_point_step(grid, s, replace(p, inner_mode="paper_picard"))
    assert np.max(np.abs(out_c.phi - out_p.phi)) < 10.0 * p.fp_tol
    assert np.max(np.abs(out_c.w - out_p.w)) < 10.0 * p.fp_tol


def test_step_paper_picard_requires_regularization():
    with pytest.raises(ValueError, match="paper_picard requires"):
        SchemeParams(tau=0.1, eps=0.0, delta=1e-4, inner_mode="paper_picard")


def test_step_backoff_recovers_with_smaller_tau():
    grid = build_grid(64, 1.0)
    x = grid.cell_centers
    rho0 = 0.05 + 8.0 * np.exp(-400.0 * (x - 0.3) ** 2)
    theta0 = 0.05 + 2.0 * np.exp(-400.0 * (x - 0.7) ** 2)
    s = to_entropic(rho0, theta0)
    p = SchemeParams(tau=0.02, eps=0.0, delta=0.0, fp_max_iter=60, tau_backoff_limit=8)
    out, rep = fixed_point_step(grid, s, p)
    assert rep.tau_used < p.tau
    assert rep.budget.mass_error <= _BUDGET_GUARD
    assert rep.budget.energy_error <= _BUDGET_GUARD
    # audits are evaluated at the accepted tau, so they still hold exactly
    assert rep.budget.mass_pass and rep.budget.energy_pass
    assert np.all(np.isfinite(out.phi)) and np.all(np.isfinite(out.w))


def test_step_source_of_wrong_shape_raises_its_own_error():
    # a defect in the problem setup is not a numerical failure: no tau halving
    def bad_source(x, t):
        return np.zeros(x.size + 1)

    p = SchemeParams(tau=1e-3, source_mass=bad_source)
    with pytest.raises(ValueError, match="broadcast"):
        fixed_point_step(GRID, _bump_state(GRID), p)


def test_step_backoff_exhaustion_raises_with_residual():
    p = SchemeParams(
        tau=1e-2, eps=0.0, delta=0.0, fp_max_iter=1, tau_backoff_limit=2
    )
    with pytest.raises(StepFailureError) as err:
        fixed_point_step(GRID, _bump_state(GRID), p)
    assert err.value.residual > 0.0
    assert err.value.tau_last < 1e-2


# ---------------------------------------------------------------------------
# transient runs
# ---------------------------------------------------------------------------


def test_transient_equilibrium_constant_trajectory():
    p = SchemeParams(tau=0.02, eps=0.0, delta=0.0, t_final=0.1)
    init = MacroState.from_rho_theta(np.ones(16), np.ones(16))
    traj = run_transient(GRID, init, p)
    assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    for s in traj.states:
        assert np.allclose(s.phi, 2.5, atol=1e-12)
        assert np.allclose(s.w, 0.0, atol=1e-12)


def test_transient_times_contract():
    p = SchemeParams(tau=0.01, eps=1e-6, delta=1e-4, t_final=0.05)
    traj = run_transient(GRID, MacroState.from_rho_theta(np.ones(16), np.ones(16)), p)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0.0)
    assert len(traj.states) == len(traj.times)


def test_transient_rejects_non_integer_step_count():
    p = SchemeParams(tau=0.03, t_final=0.1)
    with pytest.raises(ValueError, match="not an integer"):
        run_transient(GRID, MacroState.from_rho_theta(np.ones(16), np.ones(16)), p)


def test_transient_positivity_by_construction():
    grid = build_grid(32, 1.0)
    x = grid.cell_centers
    init = MacroState.from_rho_theta(
        0.2 + np.exp(-50.0 * (x - 0.5) ** 2), np.ones(32)
    )
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4, t_final=0.02)
    traj = run_transient(grid, init, p)
    for s in traj.states:
        mac = to_primitive(s)
        assert np.min(mac.theta) > 0.0
        assert np.min(mac.rho) > 0.0


def test_make_initial_state_clips_with_floor():
    rho0 = np.array([0.0, 1.0, 1.0, 0.5] + [1.0] * 12)
    init = make_initial_state(rho0, np.ones(16), floor=1e-12)
    assert np.min(init.rho) == pytest.approx(1e-12)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def test_budget_conservation_without_regularization():
    p = SchemeParams(tau=1e-2, eps=0.0, delta=0.0, t_final=0.05)
    grid = build_grid(32, 1.0)
    init = MacroState.from_rho_theta(
        0.2 + np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2), np.ones(32)
    )
    traj = run_transient(grid, init, p)
    for rep in traj.reports:
        assert abs(rep.budget.mass_lhs) <= 1e-10
        assert abs(rep.budget.energy_lhs) <= 1e-10


def test_budget_identities_on_accepted_steps():
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-2, t_final=0.01)
    grid = build_grid(32, 1.0)
    init = MacroState.from_rho_theta(
        0.2 + np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2), np.ones(32)
    )
    traj = run_transient(grid, init, p)
    for rep in traj.reports:
        assert rep.budget.mass_pass and rep.budget.energy_pass
        assert rep.budget.mass_error <= 1e-10 * (1.0 + abs(rep.budget.mass_lhs))
        assert rep.budget.energy_error <= 1e-10 * (1.0 + abs(rep.budget.energy_lhs))


def test_budget_constant_state_mass_drop():
    # one step from rho = theta = 1 with delta = 0.01, tau = 0.1:
    # the mass drop equals 0.001 * phi_new on the unit domain
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.01)
    s = _constant_state(2.5, 0.0)
    out, rep = fixed_point_step(GRID, s, p)
    assert rep.budget.mass_lhs == pytest.approx(-0.001 * out.phi[0], rel=1e-10)


def test_entropy_audit_equilibrium_passes():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.0)
    s = _constant_state(2.5, 0.0)
    audit = entropy_audit(GRID, s, s, p)
    assert audit.passed
    assert audit.h_next == audit.h_prev


def test_entropy_decreases_on_relaxation_run():
    grid = build_grid(32, 1.0)
    init = MacroState.from_rho_theta(
        0.2 + np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2), np.ones(32)
    )
    p = SchemeParams(tau=1e-2, eps=0.0, delta=0.0, t_final=0.1)
    traj = run_transient(grid, init, p)
    for rep in traj.reports:
        assert rep.entropy.h_next < rep.entropy.h_prev


def test_edge_dissipation_form_nonnegative_per_edge():
    rng = np.random.default_rng(4)
    p = SchemeParams(tau=0.1, eps=1e-6, delta=1e-4)
    for _ in range(50):
        state = EntropicState(rng.uniform(-1, 4, 16), rng.uniform(-1.5, 1.5, 16))
        _, edge_min = dissipation_terms(GRID, state, p)
        assert edge_min >= 0.0


def test_entropy_audit_slack_value():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.01, n_exp=2.0)
    s = _constant_state(2.5, 0.0)
    audit = entropy_audit(GRID, s, s, p)
    assert audit.slack == pytest.approx(0.1 * 0.01 * math.exp(6.0) * GRID.length)


def test_lyapunov_matches_manual_quadrature():
    s = _bump_state(GRID)
    mac = to_primitive(s)
    from etlab.thermo import entropy_tilde

    manual = integrate(GRID, entropy_tilde(mac.rho, mac.energy) + mac.energy)
    assert lyapunov_functional(GRID, s) == pytest.approx(manual, rel=1e-14)
