import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from etlab import scheme
from etlab.cli import parse_config
from etlab.experiments import initial_condition
from etlab.grid import build_grid, grad_edge, integrate, second_diff
from etlab.linalg import BandedCholesky, BandedLU, BandedSymmetricMatrix
from etlab.scheme import (
    SchemeParams,
    StepFailureError,
    _BANDS,
    _BUDGET_GUARD,
    _assemble_blocks,
    _jacobian,
    _NotConverged,
    _residual,
    budget_audit,
    dissipation_terms,
    entropy_audit,
    fixed_point_step,
    lyapunov_functional,
    make_initial_state,
    run_transient,
    step_count,
)
from etlab.thermo import (
    BlowupError,
    EntropicState,
    MacroState,
    entropy_tilde,
    grid_memo,
    onsager_edge,
    to_entropic,
    to_primitive,
)

GRID = build_grid(16, 1.0)


def _dense(m):
    """Dense oracle of a BandedSymmetricMatrix."""
    a = np.diag(m.bands[0])
    for k in range(1, m.bandwidth + 1):
        a += np.diag(m.bands[k, : m.n - k], -k) + np.diag(m.bands[k, : m.n - k], k)
    return a


def _dense_jacobian(ab, n_cells):
    """Dense oracle of _jacobian's general band storage."""
    size = 2 * n_cells
    a = np.zeros((size, size))
    for i in range(size):
        for j in range(max(0, i - _BANDS), min(size, i + _BANDS + 1)):
            a[i, j] = ab[2 * _BANDS + i - j, j]
    return a


def _exact_jacobian(grid, prev, x, p):
    """_jacobian at x, dense, in the interleaved unknowns."""
    _, _, mac, edges = _residual(grid, to_primitive(prev), x, p, p.tau)
    return _dense_jacobian(_jacobian(grid, x, mac, edges, p), grid.n_cells)


def _colored_fd_jacobian(grid, prev, x, p, eta=1e-6):
    """Central-difference Jacobian of _residual, one pair of residuals per
    color and field: cells five apart share a color, since a residual
    reaches at most two cells either side."""
    n = grid.n_cells
    prev_mac = to_primitive(prev)

    def residual(phi, w):
        r1, r2 = _residual(grid, prev_mac, EntropicState(phi, w), p, p.tau)[:2]
        out = np.empty(2 * n)
        out[0::2], out[1::2] = r1, r2
        return out

    jac = np.zeros((2 * n, 2 * n))
    for color in range(5):
        cells = np.arange(color, n, 5)
        bump = np.zeros(n)
        bump[cells] = eta
        for field in range(2):
            plus = (x.phi + bump, x.w) if field == 0 else (x.phi, x.w + bump)
            minus = (x.phi - bump, x.w) if field == 0 else (x.phi, x.w - bump)
            column = (residual(*plus) - residual(*minus)) / (2.0 * eta)
            for j in cells:
                rows = slice(2 * max(0, j - 2), 2 * min(n, j + 3))
                jac[rows, 2 * j + field] = column[rows]
    return jac


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
    r1, r2 = _residual(GRID, to_primitive(s), s, p, 0.0)[:2]
    assert np.max(np.abs(r1)) == 0.0
    assert np.max(np.abs(r2)) == 0.0


def test_residual_constant_state_delta_terms_only():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.02, n_exp=2.0)
    s = _constant_state(1.7, 0.3)
    r1, r2 = _residual(GRID, to_primitive(s), s, p, 0.0)[:2]
    assert np.allclose(r1, 0.02 * 1.7, rtol=1e-13)
    assert np.allclose(r2, 0.02 * math.exp(-2.0 * 0.3) * 0.3, rtol=1e-13)


def test_residual_quadrature_telescopes():
    # integral of the mass residual == (mass(cand)-mass(prev))/tau + delta*integral(phi)
    rng = np.random.default_rng(0)
    p = SchemeParams(tau=0.05, eps=1e-4, delta=1e-3)
    for _ in range(10):
        prev = EntropicState(rng.uniform(1, 3, 16), rng.uniform(-0.5, 0.5, 16))
        cand = EntropicState(rng.uniform(1, 3, 16), rng.uniform(-0.5, 0.5, 16))
        r1, r2 = _residual(GRID, to_primitive(prev), cand, p, 0.0)[:2]
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
    # factorization oracle: paper_picard's blocks have a banded Cholesky
    # factor and positive dense eigenvalues; the coupled mode's exact
    # Jacobian is not symmetric, and its banded LU solves like a dense solve
    rng = np.random.default_rng(1)
    p = SchemeParams(tau=0.05, eps=1e-5, delta=1e-3)
    for _ in range(5):
        frozen = EntropicState(rng.uniform(1, 3, 16), rng.uniform(-0.5, 0.5, 16))
        _, _, mac, edges = _residual(GRID, to_primitive(frozen), frozen, p, 0.0)
        for block in _assemble_blocks(GRID, frozen, mac, edges, p):
            m = BandedSymmetricMatrix(n=16, bandwidth=2, bands=block)
            BandedCholesky(m)
            assert np.min(np.linalg.eigvalsh(_dense(m))) > 0.0
        ab = _jacobian(GRID, frozen, mac, edges, p)
        dense = _dense_jacobian(ab, 16)
        assert np.max(np.abs(dense - dense.T)) > 0.0
        rhs = rng.normal(size=32)
        x = BandedLU(ab, _BANDS, _BANDS).solve(rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-10, atol=0)


def _cold_state(grid, field, minimum, rng):
    """The cold data of test_cli's cold-data runs, perturbed by 10%."""
    x = grid.cell_centers
    fields = {"rho": np.ones(grid.n_cells), "theta": np.ones(grid.n_cells)}
    fields[field] = minimum + np.exp(-200.0 * (x - 0.5) ** 2)
    wobble = [1.0 + 0.1 * rng.uniform(-1.0, 1.0, grid.n_cells) for _ in range(2)]
    return to_entropic(fields["rho"] * wobble[0], fields["theta"] * wobble[1])


@pytest.mark.parametrize(
    "params",
    [
        SchemeParams(),
        SchemeParams(tau=1.0, eps=1e-2, delta=1e-1, n_exp=4.0),
        SchemeParams(eps=0.0, delta=0.0),
    ],
    ids=["defaults", "strong-eps-delta", "no-regularization"],
)
@pytest.mark.parametrize(
    "field, minimum",
    [("theta", 1.0), ("theta", 1e-8), ("rho", 1e-6)],
    ids=["warm", "theta-1e-08", "rho-1e-06"],
)
def test_jacobian_matches_colored_finite_differences(field, minimum, params):
    # Every entry, relative to the largest entry of its row, to 1e-6: the
    # flux, time, eps and delta terms of both residuals, off-band zeros too.
    # The strong eps and delta weights make their terms visible at this
    # tolerance; n_exp = 4 puts 1 - N w on both sides of zero.
    rng = np.random.default_rng(7)
    grid = build_grid(24, 1.0)
    prev = _cold_state(grid, field, minimum, rng)
    x = _cold_state(grid, field, minimum, rng)
    exact = _exact_jacobian(grid, prev, x, params)
    fd = _colored_fd_jacobian(grid, prev, x, params)
    row_scale = np.max(np.abs(fd), axis=1, keepdims=True)
    assert np.max(np.abs(exact - fd) / row_scale) <= 1e-6


def test_delta_entry_is_the_derivative_of_the_scaled_delta_term():
    # The delta term of the energy residual is delta e^(-N w) w; the energy
    # rows are scaled by h e^(-w), frozen at the state. Where 1 - N w >= 1
    # the diagonal entry must be the exact derivative, down to theta = 1e-4.
    p = SchemeParams(delta=1.0)
    w = np.linspace(-9.2, 1.0, 16)
    frozen = EntropicState(np.ones(16), w)
    _, _, mac, edges = _residual(GRID, to_primitive(frozen), frozen, p, 0.0)
    edges = edges[:-1] + (np.zeros(15),)  # theta_e = 0: no delta stiffness
    a22_on = _assemble_blocks(GRID, frozen, mac, edges, p)[1]
    a22_off = _assemble_blocks(GRID, frozen, mac, edges, replace(p, delta=0.0))[1]
    entry = a22_on[0] - a22_off[0]

    def scaled_term(shift):
        w_shifted = w + shift
        return GRID.h * np.exp(-w) * p.delta * np.exp(-p.n_exp * w_shifted) * w_shifted

    eta = 1e-6
    fd = (scaled_term(eta) - scaled_term(-eta)) / (2.0 * eta)
    exact = 1.0 - p.n_exp * w >= 1.0
    assert 0 < np.count_nonzero(exact) < 16
    np.testing.assert_allclose(entry[exact], fd[exact], rtol=1e-7)
    # elsewhere the factor is floored at 1, which keeps the entry positive
    floored = GRID.h * p.delta * np.exp(-(p.n_exp + 1.0) * w[~exact])
    np.testing.assert_allclose(entry[~exact], floored, rtol=1e-9)


# ---------------------------------------------------------------------------
# fixed-point step
# ---------------------------------------------------------------------------


def test_step_equilibrium_is_fixed_point():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.0, inner_mode="coupled_implicit")
    s = _constant_state(2.5, 0.0)
    out, history = fixed_point_step(GRID, s, s, p, p.tau)
    assert history == [0.0]
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
    out, _ = fixed_point_step(GRID, s, s, p, p.tau)
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
    _, history = fixed_point_step(build_grid(32, 1.0), s, s, p, p.tau)
    # monotone decrease down to the tolerance; below it only roundoff noise
    hist = [r for r in history if r > 10.0 * p.fp_tol]
    assert len(hist) >= 2
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(hist, hist[1:]))


def test_step_modes_share_fixed_point():
    grid = build_grid(32, 1.0)
    s = _bump_state(grid)
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4, fp_tol=1e-11)
    out_c, _ = fixed_point_step(grid, s, s, replace(p, inner_mode="coupled_implicit"), p.tau)
    out_p, _ = fixed_point_step(grid, s, s, replace(p, inner_mode="paper_picard"), p.tau)
    assert np.max(np.abs(out_c.phi - out_p.phi)) < 10.0 * p.fp_tol
    assert np.max(np.abs(out_c.w - out_p.w)) < 10.0 * p.fp_tol


def test_step_backoff_recovers_with_smaller_tau():
    # the coupled iteration needs 9 residual evaluations on these data at
    # tau = 0.02; allowed 8, both attempts fail and tau is halved once
    grid = build_grid(64, 1.0)
    x = grid.cell_centers
    rho0 = 0.05 + 8.0 * np.exp(-400.0 * (x - 0.3) ** 2)
    theta0 = 0.05 + 2.0 * np.exp(-400.0 * (x - 0.7) ** 2)
    p = SchemeParams(
        tau=0.02, eps=0.0, delta=0.0, t_final=0.02, fp_max_iter=8, tau_backoff_limit=8
    )
    traj = run_transient(grid, MacroState(rho0, theta0), p)
    assert traj.reports[0].tau_used < p.tau
    assert sum(rep.tau_used for rep in traj.reports) == pytest.approx(p.tau)
    for rep in traj.reports:
        assert rep.budget["mass_error"] <= _BUDGET_GUARD
        assert rep.budget["energy_error"] <= _BUDGET_GUARD
        # audits are evaluated at the accepted tau, so they still hold exactly
        assert rep.budget["mass_pass"] and rep.budget["energy_pass"]
    out = traj.states[-1]
    assert np.all(np.isfinite(out.phi)) and np.all(np.isfinite(out.w))


def test_step_source_of_wrong_shape_raises_its_own_error():
    # a defect in the problem setup is not a numerical failure: it is not
    # reported as _NotConverged, so run_transient does not halve tau
    def bad_source(x, t):
        return np.zeros(x.size + 1)

    p = SchemeParams(tau=1e-3, source_mass=bad_source)
    s = _bump_state(GRID)
    with pytest.raises(ValueError, match="broadcast"):
        fixed_point_step(GRID, s, s, p, p.tau)


def _bump_init(grid):
    return to_primitive(_bump_state(grid))


def _failure_residual(err):
    """The last residual that a StepFailureError's message reports."""
    return float(str(err.value).rsplit("last residual ", 1)[1].rstrip(")"))


def test_step_backoff_exhaustion_raises_with_residual():
    p = SchemeParams(
        tau=1e-2, eps=0.0, delta=0.0, t_final=1e-2, fp_max_iter=1, tau_backoff_limit=2
    )
    with pytest.raises(
        StepFailureError,
        match=r"^step 1 \(t in \[0, 0.01\]\): fixed point failed after 2 tau halvings ",
    ) as err:
        run_transient(GRID, _bump_init(GRID), p)
    assert _failure_residual(err) > 0.0


@pytest.mark.parametrize("bad", ["residual", "correction"])
def test_non_finite_iterate_fails_the_step_without_backoff(monkeypatch, bad):
    # _converge gives up on a non-finite residual before factoring, and on a
    # non-finite correction before the next residual: one residual per
    # attempt (chord, then Newton). With no tau halvings allowed, both
    # attempts failing ends the run.
    residual, calls = scheme._residual, []

    def evaluated(*args, **kwargs):
        r1, r2, mac, edges = residual(*args, **kwargs)
        calls.append(bad)
        if bad == "residual":
            r1 = np.full_like(r1, np.inf)
        return r1, r2, mac, edges

    def factored(*args, **kwargs):
        assert bad == "correction", "factored at a non-finite residual"
        return lambda r1, r2: (np.full_like(r1, np.nan), r2)

    monkeypatch.setattr(scheme, "_residual", evaluated)
    monkeypatch.setattr(scheme, "_factor", factored)
    p = SchemeParams(tau=1e-3, t_final=1e-3, tau_backoff_limit=0)
    with pytest.raises(StepFailureError) as err:
        run_transient(GRID, _bump_init(GRID), p)
    assert len(calls) == 2
    if bad == "residual":
        assert _failure_residual(err) == math.inf
    else:
        assert 0.0 < _failure_residual(err) < math.inf


def _max_gap(a, b):
    return max(float(np.max(np.abs(a.phi - b.phi))), float(np.max(np.abs(a.w - b.w))))


def _cold_fields(grid, theta_min):
    # rho = 1 and theta down to theta_min away from a hot bump: near the
    # degeneracy of the system, where ellipticity is lost as theta vanishes
    x = grid.cell_centers
    return np.ones(grid.n_cells), theta_min + np.exp(-200.0 * (x - 0.5) ** 2)


@pytest.mark.parametrize(
    "data, n_cells, tau, t_final, eps, delta",
    [
        ("gauss-bump", 64, 1e-2, 0.1, 0.0, 0.0),
        ("gauss-bump", 64, 1e-2, 0.1, 0.0, 1e-2),
        ("gauss-bump", 64, 1e-2, 0.1, 1e-6, 0.0),
        ("cold", 64, 1e-3, 0.02, 0.0, 0.0),
    ],
    ids=["bump-0-0", "bump-0-1e-2", "bump-1e-6-0", "cold-1e-8-0-0"],
)
def test_paper_picard_solves_the_unregularized_system(
    data, n_cells, tau, t_final, eps, delta
):
    # Both picard blocks stay SPD without eps or delta: their diagonals carry
    # h / tau * rho and h / tau * (1 + 15 rho / 4). The cold data have
    # theta_min = 1e-8.
    grid = build_grid(n_cells, 1.0)
    if data == "cold":
        init = make_initial_state(*_cold_fields(grid, 1e-8))
    else:
        init = make_initial_state(*initial_condition(data, grid))
    p = SchemeParams(tau=tau, eps=eps, delta=delta, t_final=t_final)
    coupled = run_transient(grid, init, p)
    picard = run_transient(grid, init, replace(p, inner_mode="paper_picard"))
    assert len(picard.reports) == step_count(t_final, tau)  # no substeps
    for rep in picard.reports:
        assert rep.budget["mass_pass"] and rep.budget["energy_pass"]
        assert rep.entropy["entropy_pass"]
    for a, b in zip(coupled.states, picard.states):
        assert _max_gap(a, b) <= 10.0 * p.fp_tol


def test_run_transient_failure_names_the_steps_own_interval(monkeypatch):
    # step 3 fails at its whole tau, accepts half a step, then fails: the
    # message still names the step's interval on the time grid, not one
    # shifted by the substep
    step = scheme.fixed_point_step

    def half_then_fail(grid, prev, start, p, t_new):
        if t_new < 0.02 + 1e-12 or (p.tau == 5e-3 and abs(t_new - 0.025) < 1e-12):
            return step(grid, prev, start, p, t_new)
        raise _NotConverged(1.0)

    monkeypatch.setattr(scheme, "fixed_point_step", half_then_fail)
    p = SchemeParams(tau=1e-2, t_final=0.05)
    with pytest.raises(StepFailureError) as err:
        run_transient(GRID, make_initial_state(*initial_condition("gauss-bump", GRID)), p)
    assert str(err.value).startswith("step 3 (t in [0.02, 0.03]): fixed point failed")


def test_run_transient_halvings_restart_after_each_accepted_attempt(monkeypatch):
    # With tau_backoff_limit = 3, the attempts of step 1 fail three times
    # and are accepted at tau / 8, fail three times more and are accepted at
    # 7 tau / 64, then fail for good: the last failure follows three
    # halvings since the last acceptance, not six. Each failure reports its
    # call number as residual but the last, which reports none.
    schedule = "FFFA" "FFFA" "FFFF"
    taus = []

    def scheduled(grid, prev, start, p, t_new):
        taus.append(p.tau)
        if schedule[len(taus) - 1] == "A":
            return prev, [0.0]
        raise _NotConverged(None if len(taus) == len(schedule) else float(len(taus)))

    monkeypatch.setattr(scheme, "fixed_point_step", scheduled)
    p = SchemeParams(tau=1.0, t_final=1.0, tau_backoff_limit=3)
    with pytest.raises(StepFailureError) as err:
        run_transient(GRID, MacroState(np.ones(16), np.ones(16)), p)
    assert str(err.value) == (
        "step 1 (t in [0, 1]): fixed point failed after 3 tau halvings "
        "(last residual 1.100e+01)"
    )
    remaining = 1.0 - 1.0 / 8.0 - 7.0 / 64.0
    assert taus == [
        *(1.0 / 2**i for i in range(4)),
        *(7.0 / 8.0 / 2**i for i in range(4)),
        *(remaining / 2**i for i in range(4)),
    ]


@pytest.mark.parametrize("inner_mode", ["coupled_implicit", "paper_picard"])
@pytest.mark.parametrize(
    "preset, n_cells, tau",
    [("temp-step", 64, 1e-3), ("gauss-bump", 256, 1e-3), ("cold", 64, 3e-4)],
    ids=["temp-step-64", "gauss-bump-256", "cold-64"],
)
def test_step_accepted_iterate_within_fp_tol(preset, n_cells, tau, inner_mode):
    # The contraction estimate may accept early, but never farther than
    # fp_tol from the fixed point, with or without an extrapolated start.
    # On the cold data (theta_min = 1e-2) the extrapolated coupled chord
    # iteration contracts at a rate of about 0.35-0.4 near acceptance, where
    # the estimate's factor 1 / (1 - theta) keeps the accepted iterate within
    # fp_tol.
    grid = build_grid(n_cells, 1.0)
    if preset == "cold":
        init = make_initial_state(*_cold_fields(grid, 1e-2))
    else:
        init = make_initial_state(*initial_condition(preset, grid))
    x0 = to_entropic(init.rho, init.theta)
    p = SchemeParams(tau=tau, inner_mode=inner_mode)
    x1, _ = fixed_point_step(grid, x0, x0, p, p.tau)
    t2 = p.tau + p.tau
    exact, _ = fixed_point_step(grid, x1, x1, replace(p, fp_tol=1e-14), t2)
    extrapolated = EntropicState(phi=x1.phi + (x1.phi - x0.phi), w=x1.w + (x1.w - x0.w))
    for start in (x1, extrapolated):
        out, _ = fixed_point_step(grid, x1, start, p, t2)
        assert _max_gap(out, exact) <= p.fp_tol


def test_step_first_correction_is_judged_by_its_size():
    # Near equilibrium the first iterate already passes the budget guard, but
    # its correction (about 1e-5) has no contraction rate to discount it and
    # exceeds fp_tol, so the iterate after the second correction is accepted.
    s = to_entropic(1.0 + 1e-5 * np.cos(np.pi * GRID.cell_centers), np.ones(16))
    _, history = fixed_point_step(GRID, s, s, SchemeParams(tau=1e-2, eps=0.0, delta=0.0), 1e-2)
    assert len(history) == 3


@pytest.mark.parametrize(
    "w_shift, tau_prev",
    [
        # ratio (1e-3 - tau_prev) / tau_prev = 3: the extrapolated w is
        # prev's plus 400, beyond the chart cap, and the chord attempt blows up
        pytest.param(400.0 / 3.0, 2.5e-4, id="extrapolated-w-beyond-cap"),
        (1e-3, 5e-324),  # the ratio tau / tau_prev overflows: no extrapolation
    ],
)
def test_step_falls_back_to_prev_when_extrapolation_fails(monkeypatch, w_shift, tau_prev):
    # Step 1 fails down to tau_prev, then accepts prev (the initial state is
    # older). Either way what remains of the step is solved at the tau that
    # remains, from prev.
    grid = build_grid(32, 1.0)
    prev = _bump_state(grid)
    older = EntropicState(phi=prev.phi, w=prev.w - w_shift)
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4, t_final=1e-3, tau_backoff_limit=1100)
    step, solved = scheme.fixed_point_step, []

    def reach_prev_in_tau_prev(grid, state, start, p_try, t_new):
        if solved:
            out = step(grid, state, start, p_try, t_new)
            solved.append((state, start, p_try, t_new, out[0]))
            return out
        if p_try.tau > tau_prev:
            raise _NotConverged(1.0)
        solved.append(None)
        return prev, [0.0]

    monkeypatch.setattr(scheme, "fixed_point_step", reach_prev_in_tau_prev)
    traj = run_transient(grid, to_primitive(older), p)
    (state, start, p_try, t_new, out), = solved[1:]
    assert state is prev and p_try.tau == 1e-3 - tau_prev
    assert (start is prev) == (tau_prev == 5e-324)
    cold, _ = step(grid, prev, prev, p_try, t_new)
    assert _max_gap(out, cold) <= p.fp_tol
    rep = traj.reports[-1]
    assert rep.tau_used == p_try.tau
    assert rep.budget["mass_pass"] and rep.budget["energy_pass"]


def test_last_rung_caps_the_newton_corrections(monkeypatch):
    # Near-vacuum density (rho = 1e-6 away from a bump), first step: Newton
    # from prev, its corrections capped at _LAST_RUNG_UPDATE as in the last
    # attempt before tau is halved, converges at the full tau. Uncapped, the
    # first correction overshoots the chart by about 80 and the iteration
    # blows up.
    grid = build_grid(64, 1.0)
    rho0 = 1e-6 + np.exp(-200.0 * (grid.cell_centers - 0.5) ** 2)
    prev = to_entropic(rho0, np.ones(64))
    p = SchemeParams(tau=1e-3)
    x, history = scheme._converge(grid, prev, prev, p, p.tau, newton=True)
    assert history[-1] <= 1e-6
    out, _ = fixed_point_step(grid, prev, prev, p, p.tau)
    assert _max_gap(out, x) <= p.fp_tol
    budget = budget_audit(grid, prev, out, p, p.tau)
    assert budget["mass_pass"] and budget["energy_pass"]
    monkeypatch.setattr(scheme, "_LAST_RUNG_UPDATE", math.inf)
    with pytest.raises(BlowupError):
        scheme._converge(grid, prev, prev, p, p.tau, newton=True)


def _cold_run(theta_min):
    """The cold-data transient of test_cli's cold-data runs at n = 64."""
    grid = build_grid(64, 1.0)
    init = make_initial_state(*_cold_fields(grid, theta_min))
    p = SchemeParams(tau=1e-3, t_final=0.02)
    return run_transient(grid, init, p)


def test_cold_step_falls_back_to_newton_from_prev(monkeypatch):
    # theta_min = 1e-8: after step 1 moves the chart far, step 2's chord
    # iteration from the extrapolated start fails, and the next attempt, at
    # the same tau, is Newton from prev, which converges.
    attempts = []
    converge = scheme._converge

    def traced(grid, prev, start, p, t_new, *args, **kwargs):
        attempts.append([prev, start, p.tau, kwargs.get("newton", False), False])
        out = converge(grid, prev, start, p, t_new, *args, **kwargs)
        attempts[-1][-1] = True
        return out

    monkeypatch.setattr(scheme, "_converge", traced)
    traj = _cold_run(1e-8)
    step2 = [a for a in attempts if a[0] is traj.states[1]]
    prev, start, tau, newton, converged = step2[0]
    assert start is not prev and not newton and not converged
    prev, start, retry_tau, newton, converged = step2[1]
    assert start is prev and retry_tau == tau and newton and converged


def test_cold_run_residual_evaluations(monkeypatch):
    # theta_min = 1e-8: 224 residual evaluations and no substeps
    residuals = _Counted(monkeypatch, scheme, "_residual")
    traj = _cold_run(1e-8)
    assert all(rep.tau_used == 1e-3 for rep in traj.reports)
    assert len(residuals.calls) <= 224


class _Counted:
    """Counts the calls of a module function while the test runs."""

    def __init__(self, monkeypatch, module, name):
        self.calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_step_chord_corrections_reuse_the_start_factor(monkeypatch):
    # bump, n = 32, tau = 1e-3: the iteration contracts fast enough that one
    # factor, the exact Jacobian at the start iterate, serves every
    # correction: the first is Newton's, the later ones solve with it too.
    grid = build_grid(32, 1.0)
    prev = _bump_state(grid)
    p = SchemeParams(tau=1e-3)
    residuals = _Counted(monkeypatch, scheme, "_residual")
    factors = _Counted(monkeypatch, scheme, "BandedLU")
    _, history = fixed_point_step(grid, prev, prev, p, p.tau)
    assert len(factors.calls) == 1 < len(history) == len(residuals.calls)
    iterates = [args[2] for args in residuals.calls]
    dense = _exact_jacobian(grid, prev, iterates[0], p)
    for x, nxt in zip(iterates[0:3], iterates[1:4]):
        r1, r2 = _residual(grid, to_primitive(prev), x, p, p.tau)[:2]
        rhs = np.empty(64)
        rhs[0::2], rhs[1::2] = -r1, -r2
        expected = np.linalg.solve(dense, rhs)
        step = np.empty(64)
        step[0::2], step[1::2] = nxt.phi - x.phi, nxt.w - x.w
        assert np.max(np.abs(step - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_step_chord_refactors_when_contraction_is_slow(monkeypatch):
    # bump, n = 32, tau = 0.1: the start factor alone contracts too slowly to
    # converge within fp_max_iter; refactoring once the rate reaches 1/2
    # lets the first attempt converge with a few factors.
    grid = build_grid(32, 1.0)
    p = SchemeParams(tau=0.1)
    residuals = _Counted(monkeypatch, scheme, "_residual")
    factors = _Counted(monkeypatch, scheme, "BandedLU")
    prev = _bump_state(grid)
    _, history = fixed_point_step(grid, prev, prev, p, p.tau)
    assert len(history) == len(residuals.calls)  # no retry
    assert 1 < len(factors.calls) < len(history) - 1


# ---------------------------------------------------------------------------
# transient runs
# ---------------------------------------------------------------------------


def _benchmark_config(monkeypatch, workload: str, seed: int):
    """The config that perfbench/run.py generates for a workload and seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    doc = module.WORKLOADS[workload].config(seed)
    return parse_config(json.dumps(doc), mode="macro")


def test_transient_extrapolated_starts_save_iterations(monkeypatch):
    # temp-step, n = 64, 200 steps: the warm-started run needs at most 90%
    # of the residual evaluations of the same steps started from prev.
    cfg = _benchmark_config(monkeypatch, "macro-n64-replay", 1)
    grid, init = cfg.initial_state()
    p = cfg.scheme
    warm = sum(rep.iterations for rep in run_transient(grid, init, p).reports)
    state = to_entropic(init.rho, init.theta)
    cold = 0
    for k in range(step_count(p.t_final, p.tau)):
        state, history = fixed_point_step(grid, state, state, p, k * p.tau + p.tau)
        cold += len(history)
    assert warm <= 0.9 * cold


def test_transient_factors_once_per_step(monkeypatch):
    # macro-n64-replay, seed 1: every step's iteration reuses the exact
    # Jacobian of its start iterate, so the run factors once per step, with
    # 639 residual evaluations (907 with the frozen symmetric Jacobian).
    cfg = _benchmark_config(monkeypatch, "macro-n64-replay", 1)
    grid, init = cfg.initial_state()
    residuals = _Counted(monkeypatch, scheme, "_residual")
    factors = _Counted(monkeypatch, scheme, "BandedLU")
    traj = run_transient(grid, init, cfg.scheme)
    assert len(traj.reports) == step_count(cfg.scheme.t_final, cfg.scheme.tau) == 200
    assert len(factors.calls) == 200
    assert abs(len(residuals.calls) - 639) <= 0.01 * 639


def test_transient_equilibrium_constant_trajectory():
    p = SchemeParams(tau=0.02, eps=0.0, delta=0.0, t_final=0.1)
    init = MacroState(np.ones(16), np.ones(16))
    traj = run_transient(GRID, init, p)
    assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    for s in traj.states:
        assert np.allclose(s.phi, 2.5, atol=1e-12)
        assert np.allclose(s.w, 0.0, atol=1e-12)


def test_transient_times_contract():
    p = SchemeParams(tau=0.01, eps=1e-6, delta=1e-4, t_final=0.05)
    traj = run_transient(GRID, MacroState(np.ones(16), np.ones(16)), p)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0.0)
    assert len(traj.states) == len(traj.times)


def test_transient_rejects_non_integer_step_count():
    p = SchemeParams(tau=0.03, t_final=0.1)
    with pytest.raises(ValueError, match="not an integer"):
        run_transient(GRID, MacroState(np.ones(16), np.ones(16)), p)


def test_transient_positivity_by_construction():
    grid = build_grid(32, 1.0)
    x = grid.cell_centers
    init = MacroState(0.2 + np.exp(-50.0 * (x - 0.5) ** 2), np.ones(32))
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
    init = MacroState(0.2 + np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2), np.ones(32))
    traj = run_transient(grid, init, p)
    for rep in traj.reports:
        assert abs(rep.budget["mass_lhs"]) <= 1e-10
        assert abs(rep.budget["energy_lhs"]) <= 1e-10


def test_budget_identities_on_accepted_steps():
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-2, t_final=0.01)
    grid = build_grid(32, 1.0)
    init = MacroState(0.2 + np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2), np.ones(32))
    traj = run_transient(grid, init, p)
    for rep in traj.reports:
        b = rep.budget
        assert b["mass_pass"] and b["energy_pass"]
        assert b["mass_error"] <= 1e-10 * (1.0 + abs(b["mass_lhs"]))
        assert b["energy_error"] <= 1e-10 * (1.0 + abs(b["energy_lhs"]))


def test_budget_constant_state_mass_drop():
    # one step from rho = theta = 1 with delta = 0.01, tau = 0.1:
    # the mass drop equals 0.001 * phi_new on the unit domain
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.01)
    s = _constant_state(2.5, 0.0)
    out, _ = fixed_point_step(GRID, s, s, p, p.tau)
    budget = budget_audit(GRID, s, out, p, p.tau)
    assert budget["mass_lhs"] == pytest.approx(-0.001 * out.phi[0], rel=1e-10)


def test_entropy_audit_equilibrium_passes():
    p = SchemeParams(tau=0.1, eps=0.0, delta=0.0)
    s = _constant_state(2.5, 0.0)
    audit = entropy_audit(GRID, s, s, p)
    assert audit["entropy_pass"]
    assert audit["entropy_after"] == audit["entropy_before"]


def test_entropy_decreases_on_relaxation_run():
    grid = build_grid(32, 1.0)
    init = MacroState(0.2 + np.exp(-50.0 * (grid.cell_centers - 0.5) ** 2), np.ones(32))
    p = SchemeParams(tau=1e-2, eps=0.0, delta=0.0, t_final=0.1)
    traj = run_transient(grid, init, p)
    for rep in traj.reports:
        assert rep.entropy["entropy_after"] < rep.entropy["entropy_before"]


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
    assert audit["entropy_slack"] == pytest.approx(0.1 * 0.01 * math.exp(6.0) * GRID.length)


def test_lyapunov_matches_manual_quadrature():
    s = _bump_state(GRID)
    mac = to_primitive(s)
    from etlab.thermo import entropy_tilde

    manual = integrate(GRID, entropy_tilde(mac.rho, mac.energy) + mac.energy)
    assert lyapunov_functional(GRID, s) == pytest.approx(manual, rel=1e-14)


# ---------------------------------------------------------------------------
# per-state memos
# ---------------------------------------------------------------------------


def _varied_state(grid):
    """A state whose fields vary in every cell, so no edge datum is trivial."""
    x = grid.cell_centers / grid.length
    base = _bump_state(grid)
    return EntropicState(phi=base.phi + 0.1 * np.sin(7.0 * x), w=0.3 * np.cos(3.0 * x))


def _fresh_edges(grid, state):
    """_edge_data's tuple, evaluated directly through thermo and grid."""
    mac = to_primitive(EntropicState(phi=state.phi, w=state.w))
    m11, m12, m22, eneg, rho_e, theta_e = onsager_edge(mac.rho, mac.theta, state.w)
    dphi, dw = grad_edge(grid, state.phi), grad_edge(grid, state.w)
    return m11, m12, m22, eneg, dphi, dw, rho_e, theta_e


def test_memoized_entropy_and_edge_data_equal_fresh_evaluations():
    s = _varied_state(GRID)
    mac = to_primitive(s)
    fresh_h = integrate(GRID, entropy_tilde(mac.rho, mac.energy) + mac.energy)
    assert lyapunov_functional(GRID, s) == fresh_h
    assert lyapunov_functional(GRID, s) == fresh_h  # from the memo
    edges = scheme._edge_data(GRID, s)
    assert scheme._edge_data(GRID, s) is edges
    want = _fresh_edges(GRID, s)
    assert len(edges) == len(want)
    for got, expected in zip(edges, want):
        assert np.array_equal(got, expected)
    assert np.array_equal(scheme._second_diff(GRID, s, "phi"), second_diff(GRID, s.phi))
    assert np.array_equal(scheme._second_diff(GRID, s, "w"), second_diff(GRID, s.w))


def test_memo_made_on_one_grid_is_never_returned_for_another():
    # Same cells, other lengths, and an equal grid that is another object:
    # each gets its own evaluation, and going back recomputes rather than
    # returning the other grid's values.
    s = _varied_state(GRID)
    grids = [GRID, build_grid(16, 3.0), build_grid(16, 1.0), GRID]
    for grid in grids:
        mac = to_primitive(s)
        fresh_h = integrate(grid, entropy_tilde(mac.rho, mac.energy) + mac.energy)
        assert lyapunov_functional(grid, s) == fresh_h
        for got, expected in zip(scheme._edge_data(grid, s), _fresh_edges(grid, s)):
            assert np.array_equal(got, expected)
    assert lyapunov_functional(grids[1], s) != lyapunov_functional(GRID, s)
    assert scheme._edge_data(grids[2], s) is not scheme._edge_data(GRID, s)


def test_dissipation_does_not_read_the_residuals_flux_assembly(monkeypatch):
    # The residual's fluxes go through div_edge; a 10% wrong divergence there
    # changes the residual but must leave the dissipation of the same state,
    # whose edge data the residual memoized, bit for bit as it was.
    p = SchemeParams(tau=1e-3, eps=1e-6, delta=1e-4)
    s = _varied_state(GRID)
    reference = dissipation_terms(GRID, EntropicState(phi=s.phi, w=s.w), p)
    prev_mac = to_primitive(_bump_state(GRID))
    r_mass = _residual(GRID, prev_mac, EntropicState(phi=s.phi, w=s.w), p, p.tau)[0]
    div_edge = scheme.div_edge
    monkeypatch.setattr(scheme, "div_edge", lambda grid, flux: 1.1 * div_edge(grid, flux))
    assert not np.array_equal(_residual(GRID, prev_mac, s, p, p.tau)[0], r_mass)
    assert dissipation_terms(GRID, s, p) == reference


def test_audited_states_keep_no_edge_data():
    # The entropy audit is the last reader of a state's arrays: the states
    # of a trajectory, and the states etlab audit replays, keep their
    # primitives and H, nothing else.
    grid = build_grid(32, 1.0)
    p = SchemeParams(tau=1e-3, t_final=5e-3)
    traj = run_transient(grid, _bump_init(grid), p)
    for state in traj.states:
        assert set(grid_memo(state, grid)) <= {"H"}
    replayed = [EntropicState(phi=s.phi, w=s.w) for s in traj.states]
    for prev, nxt in zip(replayed, replayed[1:]):
        entropy_audit(grid, prev, nxt, p)
        assert set(grid_memo(nxt, grid)) == {"H"}
