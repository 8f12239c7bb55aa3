"""Kinetic BGK solver with diffusive scaling and a heat-conducting background.

Instead of a 3D velocity grid, the solver evolves the two reduced
distributions that close exactly under BGK relaxation toward an isotropic
Maxwellian:

    g0(x, v1) = integral of f over the two transverse velocities,
    g2(x, v1) = integral of |v_perp|^2 f over the transverse velocities,

using that the transverse marginals of M(theta; v) are M1(theta; v1) and
2 theta M1(theta; v1). This preserves the 3D moment structure (kinetic
energy 3 rho theta / 2, energy flux with the 5/2 factor) at 1D cost.

One step splits into: upwind transport at speed v1/eps with specular wall
reflection, an implicit heat solve for the background temperature with
Neumann walls, and pointwise implicit relaxation over dt/eps^2. The
relaxation temperature theta* solves each cell's balance of background and
kinetic energy, and the background takes theta*: total energy is conserved
to the relaxation tolerance, and theta_b stays positive at any density.

g0 and g2 are stored on a velocity ring (see KineticState), along which
specular reflection at both walls is periodicity, so transport is one-way
upwind with one contiguous pass per operation. The Maxwellian is even in
v: the relaxation evaluates it on the (n_x, n_h) half grid of nonnegative
nodes and adds the target to both halves of the ring. Every velocity
moment is a product with a weight vector built once per run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .grid import Grid1D, integrate
from .linalg import BandedCholesky, BandedSymmetricMatrix
from .scheme import StepFailureError

_RELAX_TOL = 1e-14
_RELAX_MAX_ITER = 60

# Most explicit steps a kinetic run may take; run_kinetic and ``etlab``
# (exit 3) reject a run that needs more. About 440 times the 2276 steps of
# an n = 256, eps = 0.1, t_final = 0.1 run (about 0.23 ms each), and a run
# of about four minutes at n = 256.
MAX_KINETIC_STEPS = 10**6

_CFL = 0.9  # a run's step is at most _CFL times the CFL bound eps h / v_max
_N_RECORDS = 20  # a run records every (n_steps // _N_RECORDS)-th state

# The eps whose squares are normal finite doubles: the relaxation rate
# dt / eps**2 needs eps**2, which underflows to zero below about 1.6e-162
# and overflows above the largest.
MIN_EPS = math.sqrt(sys.float_info.min)
MAX_EPS = math.sqrt(sys.float_info.max)
EPS_RANGE = f"[{MIN_EPS:.3g}, {MAX_EPS:.3g}]"


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform symmetric velocity nodes on [-v_max, v_max] with trapezoid weights."""

    v_max: float
    n_v: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # The velocity ring pairs each node with its mirror, which must be
        # its exact negative with the same weight.
        if self.nodes.shape != (self.n_v,) or self.weights.shape != (self.n_v,):
            raise ValueError("velocity nodes and weights must have n_v entries each")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("velocity nodes must be strictly increasing")
        if not np.array_equal(self.nodes[::-1], -self.nodes):
            raise ValueError("velocity nodes must be exactly antisymmetric")
        if not np.array_equal(self.weights[::-1], self.weights):
            raise ValueError("velocity weights must be symmetric")


def build_velocity_grid(v_max: float = 8.0, n_v: int = 64) -> VelocityGrid:
    if v_max <= 0.0 or n_v < 4:
        raise ValueError("need v_max > 0 and n_v >= 4")
    nodes = np.linspace(-v_max, v_max, n_v)
    # Exact antisymmetry nodes[n-1-j] == -nodes[j] makes specular wall
    # fluxes cancel pairwise to roundoff.
    nodes = 0.5 * (nodes - nodes[::-1])
    dv = nodes[1] - nodes[0]
    weights = np.full(n_v, dv)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return VelocityGrid(v_max=float(v_max), n_v=int(n_v), nodes=nodes, weights=weights)


def maxwellian_1d(theta, v):
    """1D marginal (2 pi theta)^{-1/2} exp(-v^2 / (2 theta))."""
    return (2.0 * np.pi * theta) ** -0.5 * np.exp(-(v**2) / (2.0 * theta))


def _gaussian(theta: np.ndarray, v2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(v2 (-1 / (2 theta))) per cell (rows) and node (columns), into ``out``.

    With ``v2`` = v^2 - v_h[0]^2, v_h[0] the smallest nonnegative node, this
    is the Maxwellian times (2 pi theta)^{1/2} exp(v_h[0]^2 / (2 theta)),
    factors that cancel in the mass-normalized target, and G = 1 at v_h[0].
    Unshifted, G underflows at every node of an even-n_v grid once theta <
    v_h[0]^2 / 1490 (about 1e-5 at n_v = 64, v_max = 8), and S0 = 0.
    """
    np.multiply(v2, (-1.0 / (2.0 * theta))[:, None], out=out)
    return np.exp(out, out=out)


def _shifted_v2(v: np.ndarray) -> np.ndarray:
    """v^2 - v[0]^2 on the nonnegative nodes ``v``: _gaussian's ``v2``."""
    return v**2 - v[0] ** 2  # v[0] = 0 for odd n_v: exactly v**2


@dataclass
class KineticState:
    """Reduced distributions, background temperature, and scaled Knudsen number.

    ``g`` holds g0 and g2 as its two layers, each on the velocity ring: row
    k < n_x is cell k at the n_h nonnegative nodes, row n_x + k is cell
    n_x - 1 - k at their negatives, in the same node order. A zero node
    (odd n_v) is in both halves. ``delta`` is the per-cell energy defect
    S2/S0 - theta of the discrete Maxwellian at the last relaxation
    temperature (see _relax_temperature).
    """

    g: np.ndarray  # (2, 2 n_x, n_h): g0 and g2, nonnegative
    theta_b: np.ndarray  # (n_x,), positive
    eps: float
    grid: Grid1D
    vgrid: VelocityGrid
    delta: np.ndarray  # (n_x,)


def _cell_sums(per_row: np.ndarray) -> np.ndarray:
    """Per-cell totals of a per-ring-row quantity: its two halves added."""
    n_x = per_row.shape[0] // 2
    return per_row[:n_x] + per_row[n_x:][::-1]


def _moment_weights(vgrid: VelocityGrid):
    """Weights on the nonnegative nodes: w, w v^2, w v for ring rows, and 2 w v^k.

    w is wq with a zero node's weight halved, as that node sits on both
    halves of the ring, so a moment of a ring is the _cell_sums of its
    product with w v^k. S_k = sum wq v^k G of an even G given on the
    nonnegative nodes is its product with 2 w v^k, k = 0, 2, 4.
    """
    half = vgrid.n_v // 2
    v = vgrid.nodes[half:]
    w = np.where(v == 0.0, 0.5, 1.0) * vgrid.weights[half:]
    folded = tuple(2.0 * w * v**k for k in (0, 2, 4))
    return w, w * v**2, w * v, folded


def _density_energy(g: np.ndarray, w: np.ndarray, wv2: np.ndarray):
    """Per-cell density and kinetic energy density of a ring pair ``g``; one
    product of both layers with w gives sum w g0 and sum w g2 bit for bit."""
    n_ring = g.shape[1]
    sums = g.reshape(2 * n_ring, -1) @ w
    rho = _cell_sums(sums[:n_ring])
    return rho, 0.5 * _cell_sums(g[0] @ wv2 + sums[n_ring:])


def init_equilibrium(
    grid: Grid1D, vgrid: VelocityGrid, rho0, theta0, eps: float
) -> KineticState:
    """Local-equilibrium data: g0 = rho0 G / S0, g2 = 2 theta0 g0, theta_b = theta0.

    G is the relaxation's shifted Gaussian at theta0 (see _gaussian), so each
    cell holds its mass rho0 on the velocity grid, also where the grid does
    not resolve theta0: G is 1 at the smallest nonnegative node and may
    underflow at every other. The state's energy defect is S2/S0 - theta of
    the normalized Maxwellian at theta0, and 0, the continuum law, in a cell
    where it underflows at every node (S0 = 0).
    """
    rho0 = np.asarray(rho0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if np.any(rho0 <= 0.0) or np.any(theta0 <= 0.0):
        raise ValueError("equilibrium data must be strictly positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    v = vgrid.nodes[vgrid.n_v // 2 :]
    w0, w2, _ = _moment_weights(vgrid)[3]
    m1 = maxwellian_1d(theta0[:, None], v[None, :])
    s0, s2 = m1 @ w0, m1 @ w2
    delta = np.divide(s2, s0, out=theta0.copy(), where=s0 > 0.0) - theta0
    gauss = _gaussian(theta0, _shifted_v2(v), np.empty_like(m1))
    n = rho0.shape[0]
    g = np.empty((2, 2 * n, v.shape[0]))
    np.multiply((rho0 / (gauss @ w0))[:, None], gauss, out=g[0, :n])
    np.multiply((2.0 * theta0)[:, None], g[0, :n], out=g[1, :n])
    g[:, n:] = g[:, n - 1 :: -1]  # even in v: the bottom half mirrors the top
    return KineticState(g, theta0.copy(), float(eps), grid, vgrid, delta)


def moments(state: KineticState) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell density, kinetic energy density, and scaled mass flux."""
    w, wv2, wv, _ = _moment_weights(state.vgrid)
    rho, e_kin = _density_energy(state.g, w, wv2)
    flux_rows = state.g[0] @ wv
    n_x = flux_rows.shape[0] // 2
    mass_flux = (flux_rows[:n_x] - flux_rows[n_x:][::-1]) / state.eps
    return rho, e_kin, mass_flux


def energy_total(grid: Grid1D, state: KineticState) -> float:
    """Integral of background plus kinetic energy; kinetic_step conserves it."""
    _, kinetic_energy, _ = moments(state)
    return integrate(grid, state.theta_b + kinetic_energy)


def _transport(q: np.ndarray, courant: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Upwind transport round the velocity ring of each layer of ``q``, into ``out``.

    ``out`` first receives D[k] = q[k] - q[k - 1 mod 2 n_x], then becomes
    q - courant D in place, with courant = dt |v| / (eps h) <= 1. At the
    wrap and the middle of the ring D pairs a cell with its mirrored
    velocity: specular reflection, whose wall fluxes of mass and energy
    cancel exactly. Each half is the upwind update of its velocity sign bit
    for bit, as -a b = a (-b) exactly.
    """
    np.subtract(q[:, 1:], q[:, :-1], out=out[:, 1:])
    np.subtract(q[:, 0], q[:, -1], out=out[:, 0])
    np.multiply(courant, out, out=out)
    return np.subtract(q, out, out=out)


def _heat_factor(n: int, h: float, dt: float) -> BandedCholesky:
    """Factor I - dt * Laplacian (Neumann); conserves the quadrature exactly."""
    bands = np.zeros((2, n))
    bands[0] = 1.0 + 2.0 * dt / h**2
    bands[0, 0] = bands[0, -1] = 1.0 + dt / h**2
    bands[1, : n - 1] = -dt / h**2
    return BandedCholesky(BandedSymmetricMatrix(n=n, bandwidth=1, bands=bands))


def _aligned_empty(shape: Tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array starting on a 64-byte boundary.

    numpy's allocator returns large arrays 16, 32 or 48 bytes past a cache
    line, and its AVX-512 loops then split every 64-byte store across two
    lines. Over-allocating by 8 doubles and slicing to the boundary costs
    nothing in arithmetic: the values written are the same bit for bit.
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // raw.itemsize
    return raw[start : start + size].reshape(shape)


class _StepConstants:
    """What the steps of a run share, built once: the Courant numbers tiled to
    the ring's shape and v_h^2 - v_h[0]^2 (see _gaussian) to the half grid's
    (both 64-byte aligned), the moment weights, mu and keep = 1 / (1 + lam)
    for lam = dt / eps^2, and the heat factor."""

    def __init__(self, grid: Grid1D, vgrid: VelocityGrid, eps: float, dt: float):
        v = vgrid.nodes[vgrid.n_v // 2 :]
        self.courant = _aligned_empty((2 * grid.n_cells, v.shape[0]))
        self.courant[:] = dt * v / (eps * grid.h)
        self.v2 = _aligned_empty((grid.n_cells, v.shape[0]))
        self.v2[:] = _shifted_v2(v)
        self.w, self.wv2, _, self.folded = _moment_weights(vgrid)
        lam = dt / eps**2
        self.mu = lam / (1.0 + lam)
        self.keep = 1.0 / (1.0 + lam)
        self.heat = _heat_factor(grid.n_cells, grid.h, dt)


def _relax_temperature(
    theta_b: np.ndarray,
    rho: np.ndarray,
    e_kin: np.ndarray,
    delta: np.ndarray,
    k: _StepConstants,
    gauss: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve theta + mu rho e_M(theta) = theta_b + mu e_kin per cell.

    e_M(theta) = (S2/S0 + 2 theta) / 2 is the kinetic energy of the
    discrete, mass-normalized Maxwellian target; the left side is strictly
    increasing in theta, so safeguarded Newton with a bracket converges.
    Each iterate evaluates the shifted Gaussian G of _gaussian into
    ``gauss`` on the nonnegative nodes, and S_k = sum wq v^k G is its
    product with the folded weights of ``k`` (see _moment_weights); S2/S0
    does not depend on G's normalization, and S0 > 0.

    Newton starts from the solution of the same equation with the energy
    defect S2/S0 - theta frozen at ``delta``, its value at the previous
    step's temperature: e_M is then 3 theta / 2 + delta / 2 and the equation
    is linear. On a velocity grid that resolves the Maxwellian, the defect
    is roundoff-small and barely moves between steps, so this start already
    meets the tolerance and a step evaluates the Gaussian once. The
    stopping rule, the bracket and the iteration cap are those of any start.

    Returns theta and S0 of the converged iterate, whose G ``gauss`` then
    holds, and its defect S2/S0 - theta for the next step.
    """
    w0, w2, w4 = k.folded
    mu = k.mu
    rhs = theta_b + mu * e_kin
    mu_rho = mu * rho
    tol = _RELAX_TOL * (1.0 + rhs)
    lo, hi = 1e-12, rhs  # np.where below makes new bounds, never writes these
    start = (rhs - 0.5 * mu * rho * delta) / (1.0 + 1.5 * mu * rho)
    theta = np.minimum(np.maximum(start, lo), hi)
    for _ in range(_RELAX_MAX_ITER):
        _gaussian(theta, k.v2, gauss)
        s0 = gauss @ w0
        s2 = gauss @ w2
        ratio = s2 / s0
        e_m = 0.5 * (ratio + 2.0 * theta)
        f = theta + mu_rho * e_m - rhs
        if (np.abs(f) <= tol).all():
            return theta, s0, ratio - theta
        if not np.isfinite(f).all():
            break  # no Newton update can repair non-finite moments
        s4 = gauss @ w4
        # d(S2/S0)/dtheta does not depend on G's normalization either; take
        # it through the normalized dM1/dtheta = M1 (v^2 - theta)/(2 theta^2)
        s0p = (s2 - theta * s0) / (2.0 * theta**2)
        s2p = (s4 - theta * s2) / (2.0 * theta**2)
        de_m = 0.5 * ((s2p * s0 - s2 * s0p) / s0**2 + 2.0)
        fp = 1.0 + mu_rho * de_m
        hi = np.where(f > 0.0, np.minimum(hi, theta), hi)
        lo = np.where(f < 0.0, np.maximum(lo, theta), lo)
        theta_new = theta - f / fp
        outside = (theta_new <= lo) | (theta_new >= hi)
        theta = np.where(outside, 0.5 * (lo + hi), theta_new)
    bad = int(np.argmax(np.abs(f)))
    raise StepFailureError(
        f"relaxation temperature solve failed at cell {bad}: residual {f[bad]:.3e}"
    )


def _step_block(state: KineticState) -> np.ndarray:
    """An uninitialized, 64-byte aligned block for kinetic_step's ``out``."""
    return _aligned_empty((3,) + state.g.shape[1:])


def kinetic_step(
    state: KineticState,
    dt: float,
    out: Optional[np.ndarray] = None,
    constants: Optional[_StepConstants] = None,
) -> KineticState:
    """One split step: transport, background heat diffusion, implicit relaxation.

    The step works in one block of shape (3, 2 n_x, n_h): ``out`` when
    given, else a new one; ValueError if ``out`` may overlap the input
    state's ``g``. Layers 0 and 1 take the new g0 and g2, which the
    returned state's ``g`` views; layer 2 takes the Gaussian G (top half),
    then the targets c0 G (top half, over G) and c2 G (bottom half).
    ``constants`` are the _StepConstants of the state's grids, eps and dt,
    built when not given. Each operation runs once over both layers.

    Transport is the upwind update bit for bit. The relaxation is
    g <- g / (1 + lam) + c G with per-cell c0 = mu rho / S0 for g0 and
    c2 = 2 theta* c0 for g2, c G added to the top rows and row-reversed to
    the bottom rows. Moments and target reorder the sums and divisions of
    the plain full-grid formulation, so they agree with it to roundoff.
    Mass is conserved by construction: the target is normalized by its
    discrete mass. The new background is theta*, the root of theta +
    mu rho e_M(theta) = theta_b + mu e_kin (see _relax_temperature): as the
    relaxed gas holds (1 - mu) e_kin + mu rho e_M(theta*), total energy is
    conserved to the solve's tolerance, 1e-14 (1 + theta_b + mu e_kin) per
    cell, and theta* >= 1e-12 at any density.
    """
    grid, vgrid, eps = state.grid, state.vgrid, state.eps
    cfl_bound = eps * grid.h / vgrid.v_max
    if dt > cfl_bound * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt:.3e} violates the CFL bound {cfl_bound:.3e}")
    if out is not None and np.may_share_memory(out, state.g):
        raise ValueError("out must not overlap the input state's distributions")
    k = _StepConstants(grid, vgrid, eps, dt) if constants is None else constants
    n = grid.n_cells

    block = _step_block(state) if out is None else out
    g, scratch = block[:2], block[2]
    _transport(state.g, k.courant, g)

    theta_b = k.heat.solve(state.theta_b)

    rho, e_kin = _density_energy(g, k.w, k.wv2)
    gauss = scratch[:n]
    theta_star, s0, delta = _relax_temperature(
        theta_b, rho, e_kin, state.delta, k, gauss
    )
    # Normalizing the target by its discrete mass makes relaxation conserve
    # the density exactly on this quadrature.
    c0 = k.mu * rho / s0
    c2 = 2.0 * theta_star * c0
    targets = scratch.reshape(2, n, -1)  # a view: it only splits the rows
    np.multiply(c2[:, None], gauss, out=targets[1])
    np.multiply(c0[:, None], gauss, out=targets[0])
    g *= k.keep
    g[:, :n] += targets
    g[:, n:] += targets[:, ::-1]
    return KineticState(g, theta_star, eps, grid, vgrid, delta)


@dataclass
class KineticTrajectory:
    """Macroscopic observables of one kinetic run."""

    times: np.ndarray
    rho: List[np.ndarray]
    kinetic_energy: List[np.ndarray]
    theta_b: List[np.ndarray]
    mass_flux: List[np.ndarray]
    final_state: KineticState


def kinetic_step_count(t_final: float, eps: float, h: float, v_max: float) -> int:
    """Steps of at most _CFL * eps * h / v_max that reach t_final, at least 1;
    ValueError naming eps when eps lies outside EPS_RANGE or the run needs
    more than MAX_KINETIC_STEPS steps."""
    if not MIN_EPS <= eps <= MAX_EPS:
        raise ValueError(f"eps = {eps:.3g} must lie in {EPS_RANGE}")
    dt_max = _CFL * eps * h / v_max
    steps = max(1.0, float(np.ceil(t_final / dt_max))) if dt_max > 0.0 else math.inf
    if steps > MAX_KINETIC_STEPS:
        raise ValueError(
            f"eps = {eps:.3g} needs {steps:.3g} kinetic steps to reach t_final, "
            f"more than {MAX_KINETIC_STEPS}"
        )
    return int(steps)


def run_kinetic(
    grid: Grid1D,
    vgrid: VelocityGrid,
    rho0,
    theta0,
    eps: float,
    t_final: float,
) -> KineticTrajectory:
    """March equilibrium initial data to t_final with a CFL-consistent dt.

    Raises ValueError as kinetic_step_count does. The step constants are
    built once, and the steps write into two step blocks in turn (see
    kinetic_step), so a run allocates its distributions once.
    """
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    n_steps = kinetic_step_count(t_final, eps, grid.h, vgrid.v_max)
    state = init_equilibrium(grid, vgrid, rho0, theta0, eps)
    dt = t_final / n_steps
    record_every = max(1, n_steps // _N_RECORDS)
    constants = _StepConstants(grid, vgrid, eps, dt)

    times = [0.0]
    rho, e_kin, flux = moments(state)
    rhos, e_kins, theta_bs, fluxes = [rho], [e_kin], [state.theta_b.copy()], [flux]
    # Two arrays, not one: there each step's source and destination layers
    # would lie exactly a block apart, which measured slower.
    blocks = [_step_block(state) for _ in range(2)]
    for k in range(1, n_steps + 1):
        state = kinetic_step(state, dt, out=blocks[k % 2], constants=constants)
        if k % record_every == 0 or k == n_steps:
            rho, e_kin, flux = moments(state)
            times.append(k * dt)
            rhos.append(rho)
            e_kins.append(e_kin)
            theta_bs.append(state.theta_b.copy())
            fluxes.append(flux)
    return KineticTrajectory(np.array(times), rhos, e_kins, theta_bs, fluxes, state)


# Trapezoid nodes per axis of the Maxwellian moment and closure checks.
_MOMENT_NODES = 64
_CLOSURE_NODES = 201


def _adequate_width(theta: float) -> float:
    """8 sqrt(theta): the per-axis half width of a box that resolves M1(theta)."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    return 8.0 * math.sqrt(theta)


@dataclass
class MomentCheckReport:
    """Quadrature errors of the Maxwellian moment identities up to order 4."""

    errors: Dict[str, float]
    max_error: float
    box_adequate: bool


def maxwellian_moments_check(
    theta: float, half_width: Optional[float] = None
) -> MomentCheckReport:
    """Verify the Maxwellian moment identities on a tensor trapezoid box.

    Checks integral M = 1, odd moments = 0, second moments theta * delta_ij,
    and fourth moments 5 theta^2 * delta_ij of the product of three
    maxwellian_1d marginals, with build_velocity_grid's nodes and weights
    along each axis; the tensor quadrature factorizes into the 1D sums
    evaluated. A box narrower than 8 sqrt(theta) per axis is inadequate.
    """
    adequate_width = _adequate_width(theta)
    if half_width is None:
        half_width = adequate_width
    box = build_velocity_grid(half_width, _MOMENT_NODES)
    m1 = maxwellian_1d(theta, box.nodes)
    s = [float(np.sum(box.weights * box.nodes**k * m1)) for k in range(5)]

    errors = {
        "m0": abs(s[0] ** 3 - 1.0),
        "m1": abs(s[1] * s[0] ** 2),
        "m2_diag": abs(s[2] * s[0] ** 2 - theta),
        "m2_offdiag": abs(s[1] ** 2 * s[0]),
        "m3_odd": abs(s[3] * s[0] ** 2 + 2.0 * s[1] * s[2] * s[0]),
        "m4_diag": abs(s[4] * s[0] ** 2 + 2.0 * s[2] ** 2 * s[0] - 5.0 * theta**2),
        "m4_offdiag": abs(2.0 * s[3] * s[1] * s[0] + s[1] ** 2 * s[2]),
    }
    return MomentCheckReport(
        errors=errors,
        max_error=max(errors.values()),
        box_adequate=half_width >= adequate_width * (1.0 - 1e-12),
    )


def closure_identity_errors(theta: float) -> Tuple[float, float]:
    """Verify the reduced-closure identities by 2D transverse quadrature.

    Over the transverse plane, the 3D Maxwellian M1(v1) M1(v2) M1(v3) must
    integrate to M1(theta; v1), and weighted by |v_perp|^2 to
    2 theta M1(theta; v1). On the velocity grid on [-8 sqrt(theta),
    8 sqrt(theta)] per axis the integrals are M1(v1) S0 and M1(v1) S2, so
    the two max errors over all v1, returned, are M1(0) |S0 - 1| and
    M1(0) |S2 - 2 theta|.
    """
    box = build_velocity_grid(_adequate_width(theta), _CLOSURE_NODES)
    wm = box.weights * maxwellian_1d(theta, box.nodes)
    w2 = np.outer(wm, wm)
    s0 = float(np.sum(w2))
    s2 = float(np.sum(w2 * np.add.outer(box.nodes**2, box.nodes**2)))
    peak = maxwellian_1d(theta, 0.0)
    return abs(s0 - 1.0) * peak, abs(s2 - 2.0 * theta) * peak
