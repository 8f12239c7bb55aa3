import numpy as np
import pytest

from etlab.grid import build_grid, integrate
from etlab.kinetic import (
    _RELAX_MAX_ITER,
    _RELAX_TOL,
    KineticState,
    VelocityGrid,
    _gauss_sums,
    _heat_factor,
    build_velocity_grid,
    closure_identity_errors,
    energy_total,
    init_equilibrium,
    kinetic_step,
    limit_compare,
    maxwellian_1d,
    moments,
    run_kinetic,
)

GRID = build_grid(32, 1.0)
VGRID = build_velocity_grid(8.0, 64)


def _bump_fields(grid):
    x = grid.cell_centers
    return 0.2 + np.exp(-50.0 * (x - 0.5) ** 2), np.ones(grid.n_cells)


def test_velocity_grid_symmetry():
    v = VGRID.nodes
    assert np.array_equal(v[::-1], -v)
    assert np.array_equal(VGRID.weights[::-1], VGRID.weights)
    # odd moments of symmetric functions vanish to roundoff
    assert abs(np.sum(VGRID.weights * v * np.exp(-(v**2)))) < 1e-15


@pytest.mark.parametrize(
    "nodes, weights",
    [
        (np.array([-1.0, -0.5, 0.5, 1.01]), np.full(4, 0.5)),
        (np.array([1.0, 0.5, -0.5, -1.0]), np.full(4, 0.5)),
        (np.array([-1.0, -0.5, 0.5, 1.0]), np.array([0.25, 0.5, 0.5, 0.5])),
    ],
    ids=["asymmetric-nodes", "decreasing-nodes", "asymmetric-weights"],
)
def test_velocity_grid_rejects_broken_symmetry(nodes, weights):
    with pytest.raises(ValueError, match="velocity"):
        VelocityGrid(v_max=1.0, n_v=4, nodes=nodes, weights=weights)


def test_init_equilibrium_moments():
    state = init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.1)
    rho, e_kin, flux = moments(state)
    assert np.allclose(rho, 1.0, atol=1e-10)
    assert np.allclose(e_kin, 1.5, atol=1e-10)
    assert np.allclose(flux, 0.0, atol=1e-12)


def test_init_equilibrium_g2_ratio():
    theta0 = np.full(32, 1.7)
    state = init_equilibrium(GRID, VGRID, np.full(32, 0.6), theta0, eps=0.1)
    assert np.allclose(state.g2 / state.g0, 2.0 * 1.7, rtol=1e-13)


def test_init_equilibrium_rejects_bad_input():
    with pytest.raises(ValueError):
        init_equilibrium(GRID, VGRID, np.zeros(32), np.ones(32), eps=0.1)
    with pytest.raises(ValueError):
        init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.0)


def test_moments_linear_in_distribution():
    state = init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.1)
    doubled = state.copy()
    doubled.g0 *= 2.0
    doubled.g2 *= 2.0
    rho1, e1, _ = moments(state)
    rho2, e2, _ = moments(doubled)
    assert np.allclose(rho2, 2.0 * rho1, rtol=1e-14)
    assert np.allclose(e2, 2.0 * e1, rtol=1e-14)


def test_global_equilibrium_is_fixed_point():
    state = init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    new = kinetic_step(state, dt)
    assert np.max(np.abs(new.g0 - state.g0)) < 1e-12
    assert np.max(np.abs(new.g2 - state.g2)) < 1e-12
    assert np.max(np.abs(new.theta_b - state.theta_b)) < 1e-12


def test_step_conserves_mass_and_energy():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    for _ in range(50):
        new = kinetic_step(state, dt)
        mass_old = integrate(GRID, moments(state)[0])
        mass_new = integrate(GRID, moments(new)[0])
        assert abs(mass_new - mass_old) <= 1e-12 * (1.0 + abs(mass_old))
        e_old = energy_total(GRID, state)
        e_new = energy_total(GRID, new)
        assert abs(e_new - e_old) <= 1e-10 * (1.0 + abs(e_old))
        state = new


def test_step_preserves_nonnegativity():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.2)
    dt = 0.9 * 0.2 * GRID.h / VGRID.v_max
    for _ in range(100):
        state = kinetic_step(state, dt)
    assert np.min(state.g0) >= 0.0


def test_step_rejects_cfl_violation():
    state = init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.1)
    dt = 1.5 * 0.1 * GRID.h / VGRID.v_max
    with pytest.raises(ValueError, match="CFL"):
        kinetic_step(state, dt)


def test_energy_total_equilibrium_value():
    state = init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.1)
    assert energy_total(GRID, state) == pytest.approx(2.5, rel=1e-10)


def test_energy_total_additive_over_subintervals():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    _, e_kin, _ = moments(state)
    density = state.theta_b + e_kin
    total = energy_total(GRID, state)
    left = GRID.h * float(np.sum(density[:16]))
    right = GRID.h * float(np.sum(density[16:]))
    assert total == pytest.approx(left + right, rel=1e-14)


def test_run_kinetic_equilibrium_constant_observables():
    run = run_kinetic(GRID, VGRID, np.ones(32), np.ones(32), eps=0.2, t_final=0.01)
    for rho in run.rho:
        assert np.allclose(rho, run.rho[0], atol=1e-11)
    for th in run.theta_b:
        assert np.allclose(th, 1.0, atol=1e-11)


def test_run_kinetic_dt_refinement_stability():
    rho0, theta0 = _bump_fields(GRID)
    run_a = run_kinetic(GRID, VGRID, rho0, theta0, eps=0.2, t_final=0.02, cfl=0.9)
    run_b = run_kinetic(GRID, VGRID, rho0, theta0, eps=0.2, t_final=0.02, cfl=0.45)
    gap = integrate(GRID, np.abs(run_a.rho[-1] - run_b.rho[-1]))
    assert gap < 5e-3  # first-order in dt, halving changes little


def test_limit_compare_identical_fields_zero_error():
    rho0, theta0 = _bump_fields(GRID)
    run = run_kinetic(GRID, VGRID, rho0, theta0, eps=0.2, t_final=0.01)
    rows = limit_compare(
        [run], run.rho[-1], run.total_energy_density(), GRID
    )
    assert rows[0]["err_rho_l1"] == 0.0
    assert rows[0]["err_energy_l1"] == 0.0


def test_limit_compare_rejects_mismatched_grids():
    rho0, theta0 = _bump_fields(GRID)
    run = run_kinetic(GRID, VGRID, rho0, theta0, eps=0.2, t_final=0.01)
    other = build_grid(16, 1.0)
    with pytest.raises(ValueError):
        limit_compare([run], np.ones(16), np.ones(16), other)


def test_limit_compare_sorts_by_decreasing_eps():
    rho0, theta0 = _bump_fields(GRID)
    runs = [
        run_kinetic(GRID, VGRID, rho0, theta0, eps=e, t_final=0.005)
        for e in (0.2, 0.4)
    ]
    rows = limit_compare(runs, rho0, theta0 * (1.0 + 1.5 * rho0), GRID)
    assert rows[0]["eps"] == 0.4
    assert rows[1]["eps"] == 0.2


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_closure_identities(theta):
    err0, err2 = closure_identity_errors(theta)
    assert err0 < 1e-8
    assert err2 < 1e-8


def test_maxwellian_1d_normalization_on_grid():
    m = maxwellian_1d(1.0, VGRID.nodes)
    assert float(np.sum(VGRID.weights * m)) == pytest.approx(1.0, abs=1e-12)


# Reference for the byte-identity tests: the mask-based transport and the
# full-grid relaxation that kinetic_step was rewritten from. The rewrite only
# drops repeated work, so it must agree with this bit for bit.


def _ref_transport(g, v, courant):
    n_x = g.shape[0]
    pos = v > 0.0
    neg = v < 0.0
    flux = np.zeros((n_x + 1, g.shape[1]))
    flux[1:n_x, pos] = g[:-1, pos]
    flux[1:n_x, neg] = g[1:, neg]
    g_left_refl = g[0, ::-1]
    g_right_refl = g[-1, ::-1]
    flux[0, pos] = g_left_refl[pos]
    flux[0, neg] = g[0, neg]
    flux[n_x, pos] = g[-1, pos]
    flux[n_x, neg] = g_right_refl[neg]
    return g - courant * (flux[1:] - flux[:-1])


def _ref_gauss_sums(theta, v, wq):
    m1 = maxwellian_1d(theta[:, None], v[None, :])
    s0 = m1 @ wq
    s2 = (m1 * v**2) @ wq
    s4 = (m1 * v**4) @ wq
    return m1, s0, s2, s4


def _ref_relax_temperature(theta_b, rho, e_kin, mu, v, wq):
    rhs = theta_b + mu * e_kin
    lo = np.full_like(rhs, 1e-12)
    hi = rhs.copy()
    theta = np.clip(theta_b, lo, hi)
    for _ in range(_RELAX_MAX_ITER):
        m1, s0, s2, s4 = _ref_gauss_sums(theta, v, wq)
        e_m = 0.5 * (s2 / s0 + 2.0 * theta)
        f = theta + mu * rho * e_m - rhs
        if np.all(np.abs(f) <= _RELAX_TOL * (1.0 + rhs)):
            return theta
        s0p = (s2 - theta * s0) / (2.0 * theta**2)
        s2p = (s4 - theta * s2) / (2.0 * theta**2)
        de_m = 0.5 * ((s2p * s0 - s2 * s0p) / s0**2 + 2.0)
        fp = 1.0 + mu * rho * de_m
        hi = np.where(f > 0.0, np.minimum(hi, theta), hi)
        lo = np.where(f < 0.0, np.maximum(lo, theta), lo)
        theta_new = theta - f / fp
        outside = (theta_new <= lo) | (theta_new >= hi)
        theta = np.where(outside, 0.5 * (lo + hi), theta_new)
    raise RuntimeError("reference relaxation did not converge")


def _ref_kinetic_step(state, dt):
    grid, vgrid, eps = state.grid, state.vgrid, state.eps
    v, wq = vgrid.nodes, vgrid.weights
    courant = dt * v / (eps * grid.h)
    g0 = _ref_transport(state.g0, v, courant)
    g2 = _ref_transport(state.g2, v, courant)
    theta_b = _heat_factor(grid.n_cells, grid.h, dt).solve(state.theta_b)
    lam = dt / eps**2
    mu = lam / (1.0 + lam)
    rho = g0 @ wq
    e_kin = 0.5 * ((g0 * v**2) @ wq + g2 @ wq)
    theta_star = _ref_relax_temperature(theta_b, rho, e_kin, mu, v, wq)
    m1, s0, _, _ = _ref_gauss_sums(theta_star, v, wq)
    target0 = rho[:, None] * m1 / s0[:, None]
    g0 = (g0 + lam * target0) / (1.0 + lam)
    g2 = (g2 + lam * 2.0 * theta_star[:, None] * target0) / (1.0 + lam)
    e_kin_new = 0.5 * ((g0 * v**2) @ wq + g2 @ wq)
    theta_b = theta_b + (e_kin - e_kin_new)
    return KineticState(g0=g0, g2=g2, theta_b=theta_b, eps=eps, grid=grid, vgrid=vgrid)


@pytest.mark.parametrize("n_v", [64, 5])
def test_step_matches_reference_bit_for_bit(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps=0.1)
    ref = state.copy()
    dt = 0.9 * 0.1 * GRID.h / vgrid.v_max
    for _ in range(50):
        state = kinetic_step(state, dt)
        ref = _ref_kinetic_step(ref, dt)
    assert np.array_equal(state.g0, ref.g0)
    assert np.array_equal(state.g2, ref.g2)
    assert np.array_equal(state.theta_b, ref.theta_b)


@pytest.mark.parametrize("n_v", [64, 5])
def test_mirrored_maxwellian_equals_full_grid(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    theta = np.linspace(0.05, 5.0, 17)
    v = vgrid.nodes
    m1 = np.empty((theta.shape[0], n_v))
    v2 = np.tile(v**2, (theta.shape[0], 1))
    _gauss_sums(theta, v, vgrid.weights, v2, m1, np.empty_like(m1))
    assert np.array_equal(m1, maxwellian_1d(theta[:, None], vgrid.nodes[None, :]))


def test_step_leaves_input_state_unchanged():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    for _ in range(3):  # inputs made by kinetic_step itself, as in a run
        before = state.copy()
        new = kinetic_step(state, dt)
        assert np.array_equal(state.g0, before.g0)
        assert np.array_equal(state.g2, before.g2)
        assert np.array_equal(state.theta_b, before.theta_b)
        state = new


@pytest.mark.parametrize("n_v", [64, 5])
def test_run_kinetic_equals_independent_steps_bit_for_bit(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    rho0, theta0 = _bump_fields(GRID)
    eps, t_final, n_records = 0.1, 0.02, 20
    run = run_kinetic(GRID, vgrid, rho0, theta0, eps, t_final, n_records=n_records)
    # run_kinetic's step size and record schedule
    n_steps = int(np.ceil(t_final / (0.9 * eps * GRID.h / vgrid.v_max)))
    dt = t_final / n_steps
    record_every = max(1, n_steps // n_records)
    assert n_steps >= 50

    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps)
    records = [moments(state) + (state.theta_b.copy(),)]
    for k in range(1, n_steps + 1):
        state = kinetic_step(state.copy(), dt)
        if k % record_every == 0 or k == n_steps:
            records.append(moments(state) + (state.theta_b.copy(),))
    assert len(records) == len(run.rho)
    for i, (rho, e_kin, flux, theta_b) in enumerate(records):
        assert np.array_equal(run.rho[i], rho)
        assert np.array_equal(run.kinetic_energy[i], e_kin)
        assert np.array_equal(run.mass_flux[i], flux)
        assert np.array_equal(run.theta_b[i], theta_b)
    assert np.array_equal(run.final_state.g0, state.g0)
    assert np.array_equal(run.final_state.g2, state.g2)
    assert np.array_equal(run.final_state.theta_b, state.theta_b)
