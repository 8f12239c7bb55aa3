import dataclasses

import numpy as np
import pytest

from etlab import kinetic
from etlab.grid import build_grid, integrate
from etlab.kinetic import (
    _CFL,
    _N_RECORDS,
    _RELAX_MAX_ITER,
    _RELAX_TOL,
    MAX_KINETIC_STEPS,
    KineticState,
    VelocityGrid,
    _gaussian,
    _heat_factor,
    _step_block,
    _StepConstants,
    _transport,
    build_velocity_grid,
    closure_identity_errors,
    energy_total,
    init_equilibrium,
    kinetic_step,
    kinetic_step_count,
    maxwellian_1d,
    moments,
    run_kinetic,
)

GRID = build_grid(32, 1.0)
VGRID = build_velocity_grid(8.0, 64)


def _copy(state):
    """A KineticState with its own copies of the arrays."""
    arrays = ("g", "theta_b", "delta")
    return dataclasses.replace(state, **{a: getattr(state, a).copy() for a in arrays})


def _fold(g):
    """The velocity ring of (..., n_x, n_v) distributions: shape (..., 2 n_x, n_h)."""
    half = g.shape[-1] // 2
    return np.concatenate((g[..., half:], g[..., ::-1, ::-1][..., half:]), axis=-2)


def _unfold(ring, n_v):
    """The (..., n_x, n_v) distributions whose _fold is ``ring``; a zero
    node's column comes from the top rows."""
    n_x = ring.shape[-2] // 2
    g = np.empty(ring.shape[:-2] + (n_x, n_v))
    g[..., ::-1, ::-1][..., n_v // 2 :] = ring[..., n_x:, :]
    g[..., n_v // 2 :] = ring[..., :n_x, :]
    return g


def _unfolded(state):
    """A copy of a ring state with g0 and g2 in plain (n_x, n_v) form."""
    return dataclasses.replace(_copy(state), g=_unfold(state.g, state.vgrid.n_v))


def _bump_fields(grid):
    x = grid.cell_centers
    return 0.2 + np.exp(-50.0 * (x - 0.5) ** 2), np.ones(grid.n_cells)


def _hot_bump_fields(grid, theta_scale):
    """Density bump and a temperature bump spanning [0.3, 1] * theta_scale."""
    bump = np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2)
    return 0.2 + bump, theta_scale * (0.3 + 0.7 * bump)


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
    assert np.allclose(state.g[1] / state.g[0], 2.0 * 1.7, rtol=1e-13)


def test_init_equilibrium_rejects_bad_input():
    with pytest.raises(ValueError):
        init_equilibrium(GRID, VGRID, np.zeros(32), np.ones(32), eps=0.1)
    with pytest.raises(ValueError):
        init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.0)


def test_init_equilibrium_energy_defect():
    # The coldest cells underflow on the grid (S0 = 0): their defect is 0,
    # the continuum law, and no warning is raised.
    theta0 = np.geomspace(1e-8, 4.0, 32)
    state = init_equilibrium(GRID, VGRID, np.ones(32), theta0, eps=0.1)
    _, s0, s2, _ = _ref_gauss_sums(theta0, VGRID.nodes, VGRID.weights)
    resolved = s0 > 0.0
    assert 0 < np.count_nonzero(resolved) < 32
    assert np.all(state.delta[~resolved] == 0.0)
    expected = s2[resolved] / s0[resolved] - theta0[resolved]
    assert np.array_equal(state.delta[resolved], expected)
    assert abs(state.delta[-1]) > 1e-6  # v_max = 8 truncates M1(4)


def test_copy_carries_energy_defect():
    rho0, theta0 = _hot_bump_fields(GRID, 4.0)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    state = kinetic_step(state, 0.9 * 0.1 * GRID.h / VGRID.v_max)
    copied = _copy(state)
    assert np.any(state.delta != 0.0)
    assert np.array_equal(copied.delta, state.delta)
    assert not np.shares_memory(copied.delta, state.delta)


def test_moments_linear_in_distribution():
    state = init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.1)
    doubled = _copy(state)
    doubled.g *= 2.0
    rho1, e1, _ = moments(state)
    rho2, e2, _ = moments(doubled)
    assert np.allclose(rho2, 2.0 * rho1, rtol=1e-14)
    assert np.allclose(e2, 2.0 * e1, rtol=1e-14)


def test_global_equilibrium_is_fixed_point():
    state = init_equilibrium(GRID, VGRID, np.ones(32), np.ones(32), eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    new = kinetic_step(state, dt)
    assert np.max(np.abs(new.g[0] - state.g[0])) < 1e-12
    assert np.max(np.abs(new.g[1] - state.g[1])) < 1e-12
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


def test_resolved_step_evaluates_the_maxwellian_once(monkeypatch):
    # On a velocity grid that resolves theta in [0.3, 1], the relaxation
    # start with the carried energy defect already meets the tolerance.
    calls = []

    def counting(*args):
        calls.append(1)
        return _gaussian(*args)

    monkeypatch.setattr(kinetic, "_gaussian", counting)
    rho0, theta0 = _hot_bump_fields(GRID, 1.0)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    for _ in range(50):
        calls.clear()
        state = kinetic_step(state, dt)
        assert len(calls) == 1


def _assert_steps_conserve(grid, vgrid, rho0, theta0, eps):
    """The initial state holds the mass of rho0, and steps to t_final = 0.01
    each converge within criterion 8's per-step bounds and keep g >= 0 and
    theta_b > 0."""
    state = init_equilibrium(grid, vgrid, rho0, theta0, eps)
    n_steps = int(kinetic_step_count(0.01, eps, grid.h, vgrid.v_max))
    dt = 0.01 / n_steps
    mass_prev = integrate(grid, moments(state)[0])
    assert mass_prev == pytest.approx(integrate(grid, rho0), rel=1e-14, abs=0.0)
    energy_prev = energy_total(grid, state)
    for _ in range(n_steps):
        state = kinetic_step(state, dt)
        mass = integrate(grid, moments(state)[0])
        energy = energy_total(grid, state)
        assert abs(mass - mass_prev) <= 1e-12 * (1.0 + abs(mass_prev))
        assert abs(energy - energy_prev) <= 1e-10 * (1.0 + abs(energy_prev))
        mass_prev, energy_prev = mass, energy
    assert np.min(state.g) >= 0.0
    assert np.min(state.theta_b) > 0.0


@pytest.mark.parametrize("eps", [0.4, 0.1])
@pytest.mark.parametrize("theta_scale", [0.02, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("n_v", [5, 17, 64])
def test_relaxation_conserves_across_velocity_grids(n_v, theta_scale, eps):
    # Velocity grids from far too coarse to resolved, temperatures from
    # unresolved to truncated at v_max.
    grid = build_grid(64, 1.0)
    vgrid = build_velocity_grid(8.0, n_v)
    _assert_steps_conserve(grid, vgrid, *_hot_bump_fields(grid, theta_scale), eps)


@pytest.mark.parametrize("floor", [1e-5, 1e-12])
@pytest.mark.parametrize("stepped", ["rho", "theta", "both"])
@pytest.mark.parametrize("n_v", [64, 33])
def test_relaxation_runs_on_vacuum_and_cold_step_data(n_v, stepped, floor):
    # Fields 1 on |x - 1/2| < 0.2 and the floor outside it. On a grid with
    # no v = 0 node (n_v = 64), exp(-v^2 / (2 theta)) underflows at every
    # node in the cold cells; the shifted Gaussian keeps S0 > 0 there.
    grid = build_grid(64, 1.0)
    outside = np.abs(grid.cell_centers - 0.5) >= 0.2
    rho0, theta0 = (
        np.where(outside & (stepped in (field, "both")), floor, 1.0)
        for field in ("rho", "theta")
    )
    vgrid = build_velocity_grid(8.0, n_v)
    _assert_steps_conserve(grid, vgrid, rho0, theta0, 0.1)


def test_step_preserves_nonnegativity():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.2)
    dt = 0.9 * 0.2 * GRID.h / VGRID.v_max
    for _ in range(100):
        state = kinetic_step(state, dt)
    assert np.min(state.g[0]) >= 0.0


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


def test_run_kinetic_rejects_eps_with_underflowing_square():
    # eps**2 underflows to zero: the relaxation rate dt / eps**2 has no value
    with pytest.raises(ValueError, match=r"^eps = 1e-300 must lie in \["):
        run_kinetic(GRID, VGRID, np.ones(32), np.ones(32), eps=1e-300, t_final=1.0)


def test_run_kinetic_rejects_eps_needing_too_many_steps():
    # About 3e152 CFL steps: rejected before any step or allocation.
    message = f"^eps = 1e-150 needs .* more than {MAX_KINETIC_STEPS}"
    with pytest.raises(ValueError, match=message):
        run_kinetic(GRID, VGRID, np.ones(32), np.ones(32), eps=1e-150, t_final=1.0)


def test_run_kinetic_equilibrium_constant_observables():
    run = run_kinetic(GRID, VGRID, np.ones(32), np.ones(32), eps=0.2, t_final=0.01)
    for rho in run.rho:
        assert np.allclose(rho, run.rho[0], atol=1e-11)
    for th in run.theta_b:
        assert np.allclose(th, 1.0, atol=1e-11)


def test_run_kinetic_dt_refinement_stability():
    rho0, theta0 = _bump_fields(GRID)
    eps, t_final = 0.2, 0.02
    n_steps = kinetic_step_count(t_final, eps, GRID.h, VGRID.v_max)
    final_rho = []
    for n in (n_steps, 2 * n_steps):  # run_kinetic's dt, then half of it
        state = init_equilibrium(GRID, VGRID, rho0, theta0, eps)
        for _ in range(n):
            state = kinetic_step(state, t_final / n)
        final_rho.append(moments(state)[0])
    gap = integrate(GRID, np.abs(final_rho[0] - final_rho[1]))
    assert gap < 5e-3  # first-order in dt, halving changes little


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_closure_identities(theta):
    err0, err2 = closure_identity_errors(theta)
    assert err0 < 1e-8
    assert err2 < 1e-8


def test_maxwellian_1d_normalization_on_grid():
    m = maxwellian_1d(1.0, VGRID.nodes)
    assert float(np.sum(VGRID.weights * m)) == pytest.approx(1.0, abs=1e-12)


# References for the step tests, on (n_x, n_v) distributions; the tests
# compare through _unfold. _ref_transport is the mask-based two-sided upwind
# transport; the ring transport must agree with it bit for bit.
# _ref_kinetic_step is the step in kinetic_step's arithmetic (each moment as
# the sum of two half-grid products with weight vectors, one over the
# nonnegative nodes and one over the nonpositive ones in mirrored order, a
# zero node weighted half in each; S_k of the shifted Gaussian G of
# _gaussian with the weights folded onto the nonnegative nodes;
# g <- g / (1 + lam) + c G; the background takes the relaxation temperature
# theta*) in plain full-grid form, without buffers or a ring, and must agree
# bit for bit.
# _full_grid_kinetic_step is the plain formulation (products with v^2 and
# v^4, full-grid sums, the normalized Maxwellian, divisions in the update,
# the background absorbing the kinetic energy the gas released), which the
# step must follow to roundoff.


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


def _ref_folded_weights(v, wq):
    half = v.shape[0] // 2
    fold = np.where(v[half:] == 0.0, 1.0, 2.0) * wq[half:]
    return [fold * v[half:] ** k for k in (0, 2, 4)]


def _ref_gauss_sums(theta, v, wq):
    """M1 on the full grid and S_k = sum w v^k M1, k = 0, 2, 4, by folded weights."""
    m1 = maxwellian_1d(theta[:, None], v[None, :])
    upper = np.ascontiguousarray(m1[:, v.shape[0] // 2 :])
    s0, s2, s4 = (upper @ w for w in _ref_folded_weights(v, wq))
    return m1, s0, s2, s4


def _ref_gaussian_sums(theta, v, wq):
    """G = exp((v^2 - v_h[0]^2) (-1 / (2 theta))) on the full grid, v_h[0] the
    smallest nonnegative node, and S_k = sum wq v^k G, k = 0, 2, 4, by
    folded weights."""
    gauss = np.exp((v**2 - v[v.shape[0] // 2] ** 2) * (-1.0 / (2.0 * theta))[:, None])
    upper = np.ascontiguousarray(gauss[:, v.shape[0] // 2 :])
    s0, s2, s4 = (upper @ w for w in _ref_folded_weights(v, wq))
    return gauss, s0, s2, s4


def _ref_half_sums(g, weights):
    """Per cell, sum weights g over the nonnegative nodes and over the
    nonpositive nodes in mirrored order; returns the two sums."""
    half = g.shape[1] // 2
    parts = (g[:, half:], g[:, ::-1][:, half:])
    return [np.ascontiguousarray(p) @ weights for p in parts]


def _ref_kinetic_energy(g0, g2, w, wv2):
    (a_pos, a_neg), (b_pos, b_neg) = _ref_half_sums(g0, wv2), _ref_half_sums(g2, w)
    return 0.5 * ((a_pos + b_pos) + (a_neg + b_neg))


def _ref_relax_temperature(theta_b, rho, e_kin, delta, mu, v, wq, gauss_sums):
    rhs = theta_b + mu * e_kin
    lo = np.full_like(rhs, 1e-12)
    hi = rhs.copy()
    # the solution with the energy defect S2/S0 - theta frozen at delta
    theta = np.clip((rhs - 0.5 * mu * rho * delta) / (1.0 + 1.5 * mu * rho), lo, hi)
    for _ in range(_RELAX_MAX_ITER):
        m1, s0, s2, s4 = gauss_sums(theta, v, wq)
        e_m = 0.5 * (s2 / s0 + 2.0 * theta)
        f = theta + mu * rho * e_m - rhs
        if np.all(np.abs(f) <= _RELAX_TOL * (1.0 + rhs)):
            return theta, m1, s0, s2 / s0 - theta
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
    v_h = v[v.shape[0] // 2 :]
    w = np.where(v_h == 0.0, 0.5, 1.0) * wq[v.shape[0] // 2 :]
    wv2 = w * v_h**2
    courant = dt * v / (eps * grid.h)
    g0 = _ref_transport(state.g[0], v, courant)
    g2 = _ref_transport(state.g[1], v, courant)
    theta_b = _heat_factor(grid.n_cells, grid.h, dt).solve(state.theta_b)
    lam = dt / eps**2
    mu = lam / (1.0 + lam)
    rho_pos, rho_neg = _ref_half_sums(g0, w)
    rho = rho_pos + rho_neg
    e_kin = _ref_kinetic_energy(g0, g2, w, wv2)
    theta_star, gauss, s0, delta = _ref_relax_temperature(
        theta_b, rho, e_kin, state.delta, mu, v, wq, _ref_gaussian_sums
    )
    c0 = mu * rho / s0
    c2 = 2.0 * theta_star * c0
    g0 = g0 * (1.0 / (1.0 + lam)) + c0[:, None] * gauss
    g2 = g2 * (1.0 / (1.0 + lam)) + c2[:, None] * gauss
    g = np.stack((g0, g2))
    return KineticState(
        g=g, theta_b=theta_star, eps=eps, grid=grid, vgrid=vgrid, delta=delta
    )


def _full_grid_gauss_sums(theta, v, wq):
    m1 = maxwellian_1d(theta[:, None], v[None, :])
    s0 = m1 @ wq
    s2 = (m1 * v**2) @ wq
    s4 = (m1 * v**4) @ wq
    return m1, s0, s2, s4


def _full_grid_kinetic_step(state, dt):
    grid, vgrid, eps = state.grid, state.vgrid, state.eps
    v, wq = vgrid.nodes, vgrid.weights
    courant = dt * v / (eps * grid.h)
    g0 = _ref_transport(state.g[0], v, courant)
    g2 = _ref_transport(state.g[1], v, courant)
    theta_b = _heat_factor(grid.n_cells, grid.h, dt).solve(state.theta_b)
    lam = dt / eps**2
    mu = lam / (1.0 + lam)
    rho = g0 @ wq
    e_kin = 0.5 * ((g0 * v**2) @ wq + g2 @ wq)
    theta_star, m1, s0, delta = _ref_relax_temperature(
        theta_b, rho, e_kin, state.delta, mu, v, wq, _full_grid_gauss_sums
    )
    target0 = rho[:, None] * m1 / s0[:, None]
    g0 = (g0 + lam * target0) / (1.0 + lam)
    g2 = (g2 + lam * 2.0 * theta_star[:, None] * target0) / (1.0 + lam)
    e_kin_new = 0.5 * ((g0 * v**2) @ wq + g2 @ wq)
    theta_b = theta_b + (e_kin - e_kin_new)
    g = np.stack((g0, g2))
    return KineticState(
        g=g, theta_b=theta_b, eps=eps, grid=grid, vgrid=vgrid, delta=delta
    )


@pytest.mark.parametrize("n_v", [64, 5, 4, 33])
def test_transport_matches_mask_reference_bit_for_bit(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    v = vgrid.nodes
    dt = 0.9 * 0.1 * GRID.h / vgrid.v_max
    courant = _StepConstants(GRID, vgrid, 0.1, dt).courant
    rng = np.random.default_rng(n_v)
    g = rng.random((2, GRID.n_cells, n_v))  # a pair, as a state's g0 and g2
    ring = _fold(g)
    stale = np.full_like(ring, np.nan)  # stale contents must not leak
    out = _transport(ring, courant, stale)
    for layer in range(2):
        ref = _ref_transport(g[layer], v, dt * v / (0.1 * GRID.h))
        assert np.array_equal(_unfold(out[layer], n_v), ref)
        assert np.array_equal(_fold(ref), out[layer])  # and a zero node's two copies


@pytest.mark.parametrize("n_v", [64, 5, 4, 33])
def test_unfold_inverts_fold(n_v):
    g = np.random.default_rng(n_v).random((GRID.n_cells, n_v))
    ring = _fold(g)
    assert ring.shape == (2 * GRID.n_cells, n_v - n_v // 2)
    assert np.array_equal(ring[: GRID.n_cells], g[:, n_v // 2 :])
    assert np.array_equal(_unfold(ring, n_v), g)


@pytest.mark.parametrize("n_v", [5, 33])
def test_zero_velocity_copies_stay_bit_identical(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    assert vgrid.nodes[n_v // 2] == 0.0
    rho0, theta0 = _hot_bump_fields(GRID, 1.0)
    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / vgrid.v_max
    n = GRID.n_cells
    for _ in range(50):
        state = kinetic_step(state, dt)
        for g in state.g:
            assert np.array_equal(g[:n, 0], g[n:, 0][::-1])


@pytest.mark.parametrize("n_v", [64, 5])
def test_ring_moments_match_full_grid_products(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    v, wq = vgrid.nodes, vgrid.weights
    rho0, theta0 = _hot_bump_fields(GRID, 1.0)
    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / vgrid.v_max
    for _ in range(20):
        state = kinetic_step(state, dt)
    full = _unfolded(state)
    rho, e_kin, flux = moments(state)
    # the flux cancels between velocity signs: compare it on the scale of its terms
    for got, want, scale in (
        (rho, full.g[0] @ wq, full.g[0] @ wq),
        (e_kin, 0.5 * (full.g[0] @ (wq * v**2) + full.g[1] @ wq), e_kin),
        (flux, full.g[0] @ (wq * v) / 0.1, full.g[0] @ (wq * np.abs(v)) / 0.1),
    ):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(scale))


@pytest.mark.parametrize("n_v", [64, 5, 4, 33])
def test_step_matches_reference_bit_for_bit(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps=0.1)
    ref = _unfolded(state)
    dt = 0.9 * 0.1 * GRID.h / vgrid.v_max
    for _ in range(50):
        state = kinetic_step(state, dt)
        ref = _ref_kinetic_step(ref, dt)
    assert np.array_equal(_unfold(state.g, n_v), ref.g)
    assert np.array_equal(state.theta_b, ref.theta_b)
    assert np.array_equal(state.delta, ref.delta)


@pytest.mark.parametrize("n_v", [64, 5])
def test_step_follows_full_grid_arithmetic_to_roundoff(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    rho0, theta0 = _hot_bump_fields(GRID, 1.0)
    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps=0.1)
    full = _unfolded(state)
    dt = 0.9 * 0.1 * GRID.h / vgrid.v_max
    for _ in range(50):
        state = kinetic_step(state, dt)
        full = _full_grid_kinetic_step(full, dt)
    new_state = _unfolded(state)
    for name, new, old in (
        ("g0", new_state.g[0], full.g[0]),
        ("g2", new_state.g[1], full.g[1]),
        ("theta_b", new_state.theta_b, full.theta_b),
    ):
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old)), name


@pytest.mark.parametrize("n_v", [64, 5])
def test_mirrored_gaussian_equals_full_grid(n_v):
    # The relaxation evaluates G on the nonnegative nodes and adds it to both
    # halves of the ring: that must be the full-grid G, folded, bit for bit.
    vgrid = build_velocity_grid(8.0, n_v)
    theta = np.linspace(0.05, 5.0, 17)
    v_h = vgrid.nodes[n_v // 2 :]
    upper = _gaussian(theta, v_h**2 - v_h[0] ** 2, np.empty((17, n_v - n_v // 2)))
    full, *_ = _ref_gaussian_sums(theta, vgrid.nodes, vgrid.weights)
    assert np.array_equal(np.concatenate((upper, upper[::-1])), _fold(full))


def test_step_leaves_input_state_unchanged():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    for _ in range(3):  # inputs made by kinetic_step itself, as in a run
        before = _copy(state)
        new = kinetic_step(state, dt)
        assert np.array_equal(state.g, before.g)
        assert np.array_equal(state.theta_b, before.theta_b)
        state = new


def test_step_rejects_a_block_that_overlaps_its_input():
    # The transport writes into the block before it has read all of the
    # input: a step into its own input's block would corrupt it.
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    block = _step_block(state)
    state = kinetic_step(state, dt, out=block)
    before = _copy(state)
    for out in (block, block[::-1]):
        with pytest.raises(ValueError, match="overlap"):
            kinetic_step(state, dt, out=out)
    assert np.array_equal(state.g, before.g)
    assert np.array_equal(state.theta_b, before.theta_b)


def test_step_into_given_block_matches_fresh_step_bit_for_bit():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    block = np.full(_step_block(state).shape, np.nan)  # stale contents must not leak
    fresh = kinetic_step(state, dt)
    given = kinetic_step(state, dt, out=block)
    assert np.shares_memory(given.g, block)
    assert np.array_equal(given.g, fresh.g)
    assert np.array_equal(given.theta_b, fresh.theta_b)


def test_run_owned_buffers_start_on_cache_lines():
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, VGRID, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / VGRID.v_max
    courant = _StepConstants(GRID, VGRID, 0.1, dt).courant
    run = run_kinetic(GRID, VGRID, rho0, theta0, 0.1, 0.002)
    final = run.final_state
    for a in (_step_block(state), courant, final.g):
        assert a.ctypes.data % 64 == 0


@pytest.mark.parametrize("n_v", [64, 5])
def test_step_into_misaligned_block_matches_aligned_bit_for_bit(n_v):
    vgrid = build_velocity_grid(8.0, n_v)
    rho0, theta0 = _bump_fields(GRID)
    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps=0.1)
    dt = 0.9 * 0.1 * GRID.h / vgrid.v_max
    aligned = _step_block(state)
    raw = np.empty(aligned.size + 8)
    start = (-raw.ctypes.data % 64) // 8 + 1  # one double past a cache line
    shifted = raw[start : start + aligned.size].reshape(aligned.shape)
    assert shifted.ctypes.data % 64 == 8
    a, b = kinetic_step(state, dt, out=aligned), kinetic_step(state, dt, out=shifted)
    for name in ("g", "theta_b", "delta"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("n_v", [64, 5, 33])
def test_run_kinetic_equals_independent_steps_bit_for_bit(n_v):
    # The run alternates two step blocks; its records and last state must
    # be those of fresh steps, and of the reference step, bit for bit.
    vgrid = build_velocity_grid(8.0, n_v)
    rho0, theta0 = _bump_fields(GRID)
    eps, t_final = 0.1, 0.02
    run = run_kinetic(GRID, vgrid, rho0, theta0, eps, t_final)
    # run_kinetic's step size and record schedule
    n_steps = int(np.ceil(t_final / (_CFL * eps * GRID.h / vgrid.v_max)))
    dt = t_final / n_steps
    record_every = max(1, n_steps // _N_RECORDS)
    assert n_steps >= 50

    state = init_equilibrium(GRID, vgrid, rho0, theta0, eps)
    ref = _unfolded(state)
    records = [moments(state) + (state.theta_b.copy(),)]
    for k in range(1, n_steps + 1):
        state = kinetic_step(_copy(state), dt)
        ref = _ref_kinetic_step(ref, dt)
        if k % record_every == 0 or k == n_steps:
            records.append(moments(state) + (state.theta_b.copy(),))
    assert len(records) == len(run.rho)
    for i, (rho, e_kin, flux, theta_b) in enumerate(records):
        assert np.array_equal(run.rho[i], rho)
        assert np.array_equal(run.kinetic_energy[i], e_kin)
        assert np.array_equal(run.mass_flux[i], flux)
        assert np.array_equal(run.theta_b[i], theta_b)
    final = run.final_state
    assert np.array_equal(final.g, state.g)
    assert np.array_equal(final.theta_b, state.theta_b)
    assert np.array_equal(_unfold(final.g, n_v), ref.g)
    assert np.array_equal(final.theta_b, ref.theta_b)
    assert np.array_equal(final.delta, ref.delta)
