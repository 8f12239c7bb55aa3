import dataclasses
import math

import numpy as np
import pytest

from etlab.grid import build_grid
from etlab.thermo import (
    EXP_CAP,
    BlowupError,
    EntropicState,
    MacroState,
    edge_mean,
    entropy_tilde,
    flux_consistency,
    hessian_htilde,
    onsager,
    onsager_edge,
    to_entropic,
    to_primitive,
)
from etlab.kinetic import maxwellian_1d, maxwellian_moments_check


def _central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def entropy_density(rho, theta):
    """Oracle: the entropy rho * log(rho / theta^{3/2}) - log theta in (rho, theta)."""
    log_theta = np.log(theta)
    return rho * (np.log(rho) - 1.5 * log_theta) - log_theta


# ---------------------------------------------------------------------------
# state conversions
# ---------------------------------------------------------------------------


def test_to_primitive_reference_point():
    mac = to_primitive(EntropicState(phi=np.array([2.5]), w=np.array([0.0])))
    assert mac.rho[0] == pytest.approx(1.0)
    assert mac.theta[0] == pytest.approx(1.0)
    assert mac.energy[0] == pytest.approx(2.5)


def test_to_primitive_shifted_w_round_trip():
    c = 0.37
    mac = to_primitive(EntropicState(phi=np.array([2.5]), w=np.array([c])))
    back = to_entropic(mac.rho, mac.theta)
    assert back.phi[0] == pytest.approx(2.5, rel=1e-12)
    assert back.w[0] == pytest.approx(c, rel=1e-12)


def test_to_primitive_half_density():
    mac = to_primitive(
        EntropicState(phi=np.array([2.5 - math.log(2.0)]), w=np.array([0.0]))
    )
    assert mac.rho[0] == pytest.approx(0.5, rel=1e-14)
    assert mac.energy[0] == pytest.approx(1.75, rel=1e-14)


def test_to_primitive_overflow_names_cell():
    state = EntropicState(phi=np.array([0.0, 299.0, 0.0]), w=np.array([0.0, 250.0, 0.0]))
    # phi + 1.5 w exceeds the float64 exp range at cell 1
    with pytest.raises(BlowupError, match="cell 1"):
        to_primitive(state)


def test_to_primitive_underflow_names_cell():
    state = EntropicState(phi=np.array([0.0, 0.0, -300.0]), w=np.array([0.0, 0.0, -300.0]))
    # phi + 1.5 w is below the float64 exp range at cell 2: rho would be 0
    with pytest.raises(BlowupError, match="cell 2"):
        to_primitive(state)


def test_to_primitive_rejects_chart_values_beyond_the_cap():
    # exp(301 - 2.5) is finite, but |phi| > 300 signals a blown-up iterate
    state = EntropicState(phi=np.array([0.0, 301.0]), w=np.array([0.0, 0.0]))
    with pytest.raises(BlowupError, match=r"cell 1: phi=301, w=0 \(cap 300\)"):
        to_primitive(state)


def _per_cell_failure(phi, w):
    """The failing check and the cell it names, by the per-cell form of
    to_primitive's checks; None when the state converts."""
    bad = (np.abs(phi) > EXP_CAP) | (np.abs(w) > EXP_CAP)
    if bad.any():
        return "out of range", int(np.argmax(bad))
    expo = phi + 1.5 * w - 2.5
    largest = np.maximum(expo, np.maximum(w, expo + w + 1.0))
    if (largest > 700.0).any():
        return "overflows", int(np.argmax(largest))
    if (expo < -700.0).any():
        return "underflows", int(np.argmin(expo))
    return None


def test_to_primitive_checks_agree_with_their_per_cell_form():
    # to_primitive reduces first and builds the per-cell arrays only to name
    # the cell: on states at and around every threshold (the cap, and
    # exponents of +-700 by rho, by the energy product and by both) it must
    # fail exactly where the per-cell form fails, naming the same cell.
    rng = np.random.default_rng(11)
    # (phi, w) per cell: inside, at the energy product's threshold, at
    # rho's underflow threshold, at and near the cap, beyond the threshold
    phi_edges = [0.0, 0.0, -247.5, 299.0, 300.0, -300.0, 3.0]
    w_edges = [0.0, 280.6, -300.0, 0.0, 300.0, 0.0, 280.0]
    outcomes = set()
    for _ in range(3000):
        k = rng.integers(len(phi_edges), size=4)
        ulps = rng.integers(-3, 4, size=(2, 4))
        phi = np.array(phi_edges)[k] + ulps[0] * 1e-13
        w = np.array(w_edges)[k] + ulps[1] * 1e-13
        want = _per_cell_failure(phi, w)
        outcomes.add(want and want[0])
        state = EntropicState(phi=phi, w=w)
        if want is None:
            to_primitive(state)
        else:
            with pytest.raises(BlowupError, match=f"{want[0]} at cell {want[1]}:"):
                to_primitive(state)
    assert outcomes == {None, "out of range", "overflows", "underflows"}


def test_state_arrays_are_read_only_copies():
    phi, w = np.array([1.0, 2.0]), np.array([0.0, 0.5])
    state = EntropicState(phi=phi, w=w)
    phi[0] = 5.0  # the caller's array stays writable and is not shared
    assert state.phi[0] == 1.0
    mac = to_primitive(state)
    for arr in (state.phi, state.w, mac.rho, mac.theta, mac.energy):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.phi = np.zeros(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mac.rho = np.ones(2)


def test_to_primitive_memo_matches_fresh_state_bit_for_bit():
    rng = np.random.default_rng(3)
    phi, w = rng.uniform(-3.0, 3.0, 50), rng.uniform(-2.0, 2.0, 50)
    state = EntropicState(phi=phi, w=w)
    first = to_primitive(state)
    second = to_primitive(state)
    fresh = to_primitive(EntropicState(phi=phi, w=w))
    assert second is first
    for name in ("rho", "theta", "energy"):
        assert np.array_equal(getattr(second, name), getattr(fresh, name))


def test_to_entropic_examples():
    s = to_entropic(np.array([1.0]), np.array([1.0]))
    assert s.phi[0] == pytest.approx(2.5)
    assert s.w[0] == pytest.approx(0.0)
    s = to_entropic(np.array([math.e]), np.array([1.0]))
    assert s.phi[0] == pytest.approx(3.5, rel=1e-14)


def test_to_entropic_rejects_nonpositive():
    with pytest.raises(ValueError):
        to_entropic(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        to_entropic(np.array([-1.0]), np.array([1.0]))


def test_round_trip_random_states():
    rng = np.random.default_rng(0)
    phi = rng.uniform(-3.0, 3.0, size=500)
    w = rng.uniform(-2.0, 2.0, size=500)
    mac = to_primitive(EntropicState(phi=phi, w=w))
    back = to_entropic(mac.rho, mac.theta)
    assert np.max(np.abs(back.phi - phi)) < 1e-12
    assert np.max(np.abs(back.w - w)) < 1e-12


def test_macro_state_rejects_inconsistent_energy():
    # The energy is derived from the closure, so no other value can be given.
    mac = MacroState(rho=np.array([1.0, 2.0]), theta=np.array([1.0, 0.5]))
    assert mac.energy.tolist() == [2.5, 2.0]
    assert not mac.energy.flags.writeable
    with pytest.raises(TypeError):
        MacroState(rho=np.array([1.0]), theta=np.array([1.0]), energy=np.array([2.0]))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


def test_entropy_density_examples():
    assert entropy_density(1.0, 1.0) == pytest.approx(0.0)
    assert entropy_density(math.e, 1.0) == pytest.approx(math.e, rel=1e-14)
    assert entropy_density(1.0, math.e) == pytest.approx(-2.5, rel=1e-14)


def test_entropy_tilde_reference_points():
    assert entropy_tilde(1.0, 2.5) == pytest.approx(0.0, abs=1e-14)
    # change-of-variables oracle: htilde(rho, E) == h(rho, E / (1 + 1.5 rho))
    assert entropy_tilde(1.0, 1.0) == pytest.approx(
        entropy_density(1.0, 1.0 / 2.5), rel=1e-14
    )
    assert entropy_tilde(1.0, 1.0) == pytest.approx(2.5 * math.log(2.5), rel=1e-13)


def test_entropy_tilde_matches_entropy_density_randomly():
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.05, 5.0, size=1000)
    theta = rng.uniform(0.05, 5.0, size=1000)
    energy = theta * (1.0 + 1.5 * rho)
    gap = np.abs(entropy_tilde(rho, energy) - entropy_density(rho, theta))
    assert np.max(gap) < 1e-12 * (1.0 + np.max(np.abs(entropy_density(rho, theta))))


def test_entropic_chart_is_the_entropy_gradient():
    # (phi, -1/theta) = (d htilde / d rho, d htilde / d E): the scheme's
    # unknowns are the entropy variables of the (rho, E) system
    for rho, theta in [(1.0, 1.0), (0.7, 1.8), (2.2, 0.6)]:
        energy = theta * (1.0 + 1.5 * rho)
        chart = to_entropic(rho, theta)
        d_rho = _central_diff(lambda r: entropy_tilde(r, energy), rho, h=1e-6 * rho)
        d_e = _central_diff(lambda e: entropy_tilde(rho, e), energy, h=1e-6 * energy)
        assert d_rho == pytest.approx(chart.phi[0], rel=1e-7)
        assert d_e == pytest.approx(-math.exp(-chart.w[0]), rel=1e-7)


# ---------------------------------------------------------------------------
# Onsager matrix
# ---------------------------------------------------------------------------


def test_onsager_reference_point():
    m = onsager(1.0, 1.0)
    assert m.m11 == pytest.approx(1.0)
    assert m.m12 == pytest.approx(2.5)
    assert m.m22 == pytest.approx(9.75)
    assert m.determinant() == pytest.approx(3.5)


def test_onsager_degenerate_edges():
    m = onsager(0.0, 3.0)
    assert m.m11 == 0.0 and m.m12 == 0.0
    assert m.min_eigenvalue() >= 0.0
    m = onsager(2.0, 0.0)
    assert m.m11 == 0.0 and m.m12 == 0.0 and m.m22 == 0.0


def test_onsager_rejects_negative():
    with pytest.raises(ValueError):
        onsager(-0.1, 1.0)


def test_onsager_psd_on_positive_quadrant():
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.0, 10.0, size=10_000)
    theta = rng.uniform(0.0, 10.0, size=10_000)
    assert float(np.min(onsager(rho, theta).min_eigenvalue())) >= -1e-12


def test_onsager_determinant_identity():
    rng = np.random.default_rng(4)
    rho = rng.uniform(0.0, 10.0, size=5000)
    theta = rng.uniform(0.0, 10.0, size=5000)
    det = onsager(rho, theta).determinant()
    exact = rho * theta**3 + 2.5 * rho**2 * theta**4
    assert np.max(np.abs(det - exact)) <= 1e-12 * (1.0 + np.max(np.abs(exact)))


def test_onsager_edge_entries_are_onsager_at_edge_means():
    # The scheme's edge mobility is the checked onsager() at the edge means,
    # bit for bit, so criterion 1 covers what the solver runs.
    rng = np.random.default_rng(5)
    rho = rng.uniform(1e-3, 10.0, size=65)
    theta = rng.uniform(1e-3, 10.0, size=65)
    w = np.log(theta)
    m11, m12, m22, eneg, rho_e, theta_e = onsager_edge(rho, theta, w)
    m = onsager(edge_mean(rho), edge_mean(theta))
    for got, want in ((m11, m.m11), (m12, m.m12), (m22, m.m22)):
        assert np.array_equal(got, want)
    assert np.array_equal(eneg, np.exp(-edge_mean(w)))
    assert np.array_equal(rho_e, edge_mean(rho))
    assert np.array_equal(theta_e, edge_mean(theta))


# ---------------------------------------------------------------------------
# Hessian of the (rho, E) entropy
# ---------------------------------------------------------------------------


def test_hessian_reference_point():
    matrix, det = hessian_htilde(1.0, 1.0)
    assert det == pytest.approx(2.5, rel=1e-14)
    assert matrix[0, 0] == pytest.approx(1.0 + 2.25 / 2.5, rel=1e-14)
    assert matrix[0, 1] == pytest.approx(-1.5)
    assert matrix[1, 1] == pytest.approx(2.5)


def test_hessian_determinant_positive_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        rho = rng.uniform(0.01, 10.0)
        energy = rng.uniform(0.01, 10.0)
        _, det = hessian_htilde(rho, energy)
        assert det > 0.0


def test_hessian_matches_finite_differences():
    for rho, energy in [(1.0, 1.0), (0.5, 2.0), (2.0, 3.0), (1.3, 0.8)]:
        matrix, det = hessian_htilde(rho, energy)
        hr = 1e-4 * rho
        he = 1e-4 * energy
        d2r = (
            entropy_tilde(rho + hr, energy)
            - 2.0 * entropy_tilde(rho, energy)
            + entropy_tilde(rho - hr, energy)
        ) / hr**2
        d2e = (
            entropy_tilde(rho, energy + he)
            - 2.0 * entropy_tilde(rho, energy)
            + entropy_tilde(rho, energy - he)
        ) / he**2
        dre = (
            entropy_tilde(rho + hr, energy + he)
            - entropy_tilde(rho + hr, energy - he)
            - entropy_tilde(rho - hr, energy + he)
            + entropy_tilde(rho - hr, energy - he)
        ) / (4.0 * hr * he)
        assert matrix[0, 0] == pytest.approx(d2r, rel=1e-5)
        assert matrix[1, 1] == pytest.approx(d2e, rel=1e-5)
        assert matrix[0, 1] == pytest.approx(dre, rel=1e-5)
        assert det == pytest.approx(d2r * d2e - dre**2, rel=1e-4)


# ---------------------------------------------------------------------------
# Maxwellian
# ---------------------------------------------------------------------------


def _maxwellian_3d(theta, v):
    """The 3D Maxwellian as the product of its 1D marginals, as the reduced
    kinetic model factors it."""
    return float(np.prod(maxwellian_1d(theta, np.asarray(v, dtype=float))))


def test_maxwellian_peak_value():
    assert _maxwellian_3d(1.0, [0.0, 0.0, 0.0]) == pytest.approx(
        (2.0 * math.pi) ** -1.5, rel=1e-13
    )


def test_maxwellian_radial_symmetry():
    v = np.array([0.3, -1.2, 0.7])
    r = np.linalg.norm(v)
    assert _maxwellian_3d(1.7, v) == pytest.approx(
        _maxwellian_3d(1.7, [r, 0.0, 0.0]), rel=1e-13
    )


def test_maxwellian_normalization_by_quadrature():
    report = maxwellian_moments_check(1.0)
    assert report.errors["m0"] < 1e-10


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_maxwellian_moment_identities(theta):
    report = maxwellian_moments_check(theta)
    assert report.box_adequate
    assert report.errors["m2_diag"] < 1e-8
    assert report.errors["m4_diag"] < 1e-8
    assert report.errors["m1"] < 1e-10
    assert report.errors["m3_odd"] < 1e-10
    assert report.max_error < 1e-8


def test_maxwellian_fourth_moment_scaling():
    # the diagonal fourth moment is 5 theta^2: 20 at theta = 2
    v = np.linspace(-8.0 * math.sqrt(2.0), 8.0 * math.sqrt(2.0), 96)
    w = np.full(96, v[1] - v[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    m1 = (2.0 * math.pi * 2.0) ** -0.5 * np.exp(-(v**2) / 4.0)
    s0 = np.sum(w * m1)
    s2 = np.sum(w * v**2 * m1)
    s4 = np.sum(w * v**4 * m1)
    assert s4 * s0**2 + 2.0 * s2**2 * s0 == pytest.approx(20.0, abs=1e-8)


def test_maxwellian_small_box_flagged():
    report = maxwellian_moments_check(1.0, half_width=3.0)
    assert not report.box_adequate
    assert report.max_error > 1e-8


# ---------------------------------------------------------------------------
# flux reformulation consistency
# ---------------------------------------------------------------------------


def test_flux_consistency_constant_state():
    grid = build_grid(16, 1.0)
    state = to_entropic(np.full(16, 0.8), np.full(16, 1.3))
    res_mass, res_energy = flux_consistency(grid, state)
    assert res_mass == pytest.approx(0.0, abs=1e-14)
    assert res_energy == pytest.approx(0.0, abs=1e-14)


def test_flux_consistency_second_order_refinement():
    def residuals(n):
        grid = build_grid(n, 1.0)
        x = grid.cell_centers
        rho = 1.0 + 0.3 * np.cos(np.pi * x)
        theta = 1.0 + 0.2 * np.cos(2.0 * np.pi * x)
        return flux_consistency(grid, to_entropic(rho, theta))

    r32 = residuals(32)
    r64 = residuals(64)
    r128 = residuals(128)
    for coarse, fine in ((r32, r64), (r64, r128)):
        for a, b in zip(coarse, fine):
            order = math.log2(a / b)
            assert 1.8 < order < 2.2


def test_flux_consistency_is_diagnostic_not_fatal():
    grid = build_grid(8, 1.0)
    rng = np.random.default_rng(6)
    state = to_entropic(rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8))
    res_mass, res_energy = flux_consistency(grid, state)
    assert np.isfinite(res_mass) and np.isfinite(res_energy)
