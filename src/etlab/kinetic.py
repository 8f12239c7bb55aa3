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
Neumann walls, and pointwise implicit relaxation over dt/eps^2 whose target
temperature is chosen per cell so the sum of background and kinetic energy
is invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .grid import Grid1D, integrate
from .linalg import BandedCholesky, BandedSymmetricMatrix
from .scheme import StepFailureError

_RELAX_TOL = 1e-14
_RELAX_MAX_ITER = 60


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform symmetric velocity nodes on [-v_max, v_max] with trapezoid weights."""

    v_max: float
    n_v: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # Transport's slices and wall reflection and the mirrored Maxwellian
        # in _gauss_sums read the negative nodes as the exact mirror of the
        # positive ones.
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


@dataclass
class KineticState:
    """Reduced distributions, background temperature, and scaled Knudsen number."""

    g0: np.ndarray  # (n_x, n_v), nonnegative
    g2: np.ndarray  # (n_x, n_v), nonnegative
    theta_b: np.ndarray  # (n_x,), positive
    eps: float
    grid: Grid1D
    vgrid: VelocityGrid

    def copy(self) -> "KineticState":
        return KineticState(
            g0=self.g0.copy(),
            g2=self.g2.copy(),
            theta_b=self.theta_b.copy(),
            eps=self.eps,
            grid=self.grid,
            vgrid=self.vgrid,
        )


def init_equilibrium(
    grid: Grid1D, vgrid: VelocityGrid, rho0, theta0, eps: float
) -> KineticState:
    """Local-equilibrium data: g0 = rho M1(theta), g2 = 2 theta g0, theta_b = theta."""
    rho0 = np.asarray(rho0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if np.any(rho0 <= 0.0) or np.any(theta0 <= 0.0):
        raise ValueError("equilibrium data must be strictly positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    m1 = maxwellian_1d(theta0[:, None], vgrid.nodes[None, :])
    g0 = rho0[:, None] * m1
    g2 = 2.0 * theta0[:, None] * g0
    return KineticState(
        g0=g0, g2=g2, theta_b=theta0.copy(), eps=float(eps), grid=grid, vgrid=vgrid
    )


def moments(state: KineticState) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell density, kinetic energy density, and scaled mass flux."""
    v = state.vgrid.nodes
    wq = state.vgrid.weights
    rho = state.g0 @ wq
    kinetic_energy = 0.5 * ((state.g0 * v**2) @ wq + state.g2 @ wq)
    mass_flux = (state.g0 * v) @ wq / state.eps
    return rho, kinetic_energy, mass_flux


def energy_total(grid: Grid1D, state: KineticState) -> float:
    """Integral of background plus kinetic energy; invariant under kinetic_step."""
    _, kinetic_energy, _ = moments(state)
    return integrate(grid, state.theta_b + kinetic_energy)


def _transport(g: np.ndarray, courant: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Flux-form upwind transport with specular reflection at both walls.

    courant = dt * v / (eps h), |courant| <= 1, tiled to g's shape. Wall
    fluxes use the reflected distribution as ghost value, so the
    velocity-summed mass and energy fluxes through each wall cancel exactly
    on a symmetric grid. The sorted nodes put the negative and positive
    velocities in two contiguous column slices; a zero node (odd n_v) has no
    flux. The flux differences are formed in ``out``, which is returned.
    """
    n_v = g.shape[1]
    neg = slice(0, n_v // 2)
    pos = slice((n_v + 1) // 2, n_v)
    # flux difference F[i+1] - F[i], F[i] being the upwind value at face i
    np.subtract(g[1:, pos], g[:-1, pos], out=out[1:, pos])
    np.subtract(g[0, pos], g[0, ::-1][pos], out=out[0, pos])
    np.subtract(g[1:, neg], g[:-1, neg], out=out[:-1, neg])
    np.subtract(g[-1, ::-1][neg], g[-1, neg], out=out[-1, neg])
    out[:, neg.stop : pos.start] = 0.0
    np.multiply(courant, out, out=out)
    return np.subtract(g, out, out=out)


@lru_cache(maxsize=32)
def _heat_factor(n: int, h: float, dt: float) -> BandedCholesky:
    """Factor I - dt * Laplacian (Neumann); conserves the quadrature exactly."""
    bands = np.zeros((2, n))
    bands[0] = 1.0 + 2.0 * dt / h**2
    bands[0, 0] = bands[0, -1] = 1.0 + dt / h**2
    bands[1, : n - 1] = -dt / h**2
    return BandedCholesky(BandedSymmetricMatrix(n=n, bandwidth=1, bands=bands))


@lru_cache(maxsize=4)
def _step_constants(n: int, h: float, dt: float, eps: float, nodes: bytes):
    """Courant numbers dt v / (eps h), v^2 and v^4, each tiled to (n, n_v).

    Keyed like _heat_factor, plus eps and the velocity nodes' bytes. Tiled,
    the per-step products with the distributions run on contiguous arrays.
    A run uses one entry; the small cache bounds the memory the tiles hold.
    """
    v = np.frombuffer(nodes)
    tiled = tuple(np.tile(row, (n, 1)) for row in (dt * v / (eps * h), v**2, v**4))
    for a in tiled:
        a.setflags(write=False)
    return tiled


def _gauss_sums(
    theta: np.ndarray,
    v: np.ndarray,
    wq: np.ndarray,
    v2: np.ndarray,
    m1: np.ndarray,
    work: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Write M1(theta) on the grid into m1; return S_k = sum w v^k M1, k = 0, 2.

    M1 is even in v and the nodes are exactly antisymmetric, so it is
    evaluated on the nonnegative half of the grid and mirrored. ``v2`` is
    v^2 tiled to m1's shape; ``work`` is scratch of the same shape.
    """
    half = v.shape[0] // 2
    upper = maxwellian_1d(theta[:, None], v[None, half:])
    m1[:, half:] = upper
    m1[:, :half] = upper[:, ::-1][:, :half]
    s0 = m1 @ wq
    s2 = np.multiply(m1, v2, out=work) @ wq
    return s0, s2


def _relax_temperature(
    theta_b: np.ndarray,
    rho: np.ndarray,
    e_kin: np.ndarray,
    mu: float,
    v: np.ndarray,
    wq: np.ndarray,
    v2: np.ndarray,
    v4: np.ndarray,
    m1: np.ndarray,
    work: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve theta + mu rho e_M(theta) = theta_b + mu e_kin per cell.

    e_M(theta) = (S2/S0 + 2 theta) / 2 is the kinetic energy of the
    discrete, mass-normalized Maxwellian target; the left side is strictly
    increasing in theta, so safeguarded Newton with a bracket converges.
    Returns theta and S0 of the converged iterate, whose M1 is left in m1;
    ``work`` is scratch, and v2, v4 are v^2, v^4 tiled to m1's shape.
    """
    rhs = theta_b + mu * e_kin
    lo = np.full_like(rhs, 1e-12)
    hi = rhs.copy()
    theta = np.clip(theta_b, lo, hi)
    for _ in range(_RELAX_MAX_ITER):
        s0, s2 = _gauss_sums(theta, v, wq, v2, m1, work)
        with np.errstate(divide="ignore", invalid="ignore"):  # S0 = 0 if M1 underflows
            e_m = 0.5 * (s2 / s0 + 2.0 * theta)
        f = theta + mu * rho * e_m - rhs
        if np.all(np.abs(f) <= _RELAX_TOL * (1.0 + rhs)):
            return theta, s0
        if not np.isfinite(f).all():
            break  # no Newton update can repair non-finite moments
        s4 = np.multiply(m1, v4, out=work) @ wq
        # analytic d/dtheta of S_k through dM1/dtheta = M1 (v^2 - theta)/(2 theta^2)
        s0p = (s2 - theta * s0) / (2.0 * theta**2)
        s2p = (s4 - theta * s2) / (2.0 * theta**2)
        de_m = 0.5 * ((s2p * s0 - s2 * s0p) / s0**2 + 2.0)
        fp = 1.0 + mu * rho * de_m
        hi = np.where(f > 0.0, np.minimum(hi, theta), hi)
        lo = np.where(f < 0.0, np.maximum(lo, theta), lo)
        theta_new = theta - f / fp
        outside = (theta_new <= lo) | (theta_new >= hi)
        theta = np.where(outside, 0.5 * (lo + hi), theta_new)
    bad = int(np.argmax(np.abs(f)))
    raise StepFailureError(
        f"relaxation temperature solve failed at cell {bad}: residual {f[bad]:.3e}",
        residual=float(f[bad]),
    )


def kinetic_step(state: KineticState, dt: float) -> KineticState:
    """One split step: transport, background heat diffusion, implicit relaxation.

    The transport writes the new distributions, which the relaxation then
    updates in place. They and the two scratch arrays m1 and work share one
    allocation, so a step makes no other distribution-sized array, and the
    allocator sees one request and one release of the same size per step
    and keeps the pages instead of returning them to the OS between steps.
    """
    grid, vgrid, eps = state.grid, state.vgrid, state.eps
    cfl_bound = eps * grid.h / vgrid.v_max
    if dt > cfl_bound * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt:.3e} violates the CFL bound {cfl_bound:.3e}")
    v, wq = vgrid.nodes, vgrid.weights
    courant, v2, v4 = _step_constants(grid.n_cells, grid.h, dt, eps, v.tobytes())

    g0, g2, m1, work = np.empty((4,) + state.g0.shape)
    _transport(state.g0, courant, g0)
    _transport(state.g2, courant, g2)

    theta_b = _heat_factor(grid.n_cells, grid.h, dt).solve(state.theta_b)

    lam = dt / eps**2
    mu = lam / (1.0 + lam)
    rho = g0 @ wq
    e_kin = 0.5 * (np.multiply(g0, v2, out=work) @ wq + g2 @ wq)
    theta_star, s0 = _relax_temperature(theta_b, rho, e_kin, mu, v, wq, v2, v4, m1, work)
    # Normalizing the target by its discrete mass makes relaxation conserve
    # the density exactly on this quadrature.
    target0 = np.multiply(rho[:, None], m1, out=m1)
    target0 /= s0[:, None]
    g0 += np.multiply(lam, target0, out=work)
    g0 /= 1.0 + lam
    g2 += np.multiply(lam * 2.0 * theta_star[:, None], target0, out=work)
    g2 /= 1.0 + lam
    e_kin_new = 0.5 * (np.multiply(g0, v2, out=work) @ wq + g2 @ wq)
    # The background absorbs exactly what the gas released.
    theta_b = theta_b + (e_kin - e_kin_new)

    return KineticState(
        g0=g0, g2=g2, theta_b=theta_b, eps=eps, grid=grid, vgrid=vgrid
    )


@dataclass
class KineticTrajectory:
    """Macroscopic observables of one kinetic run."""

    eps: float
    times: np.ndarray
    rho: List[np.ndarray]
    kinetic_energy: List[np.ndarray]
    theta_b: List[np.ndarray]
    mass_flux: List[np.ndarray]
    final_state: KineticState

    def total_energy_density(self, index: int = -1) -> np.ndarray:
        return self.theta_b[index] + self.kinetic_energy[index]


def run_kinetic(
    grid: Grid1D,
    vgrid: VelocityGrid,
    rho0,
    theta0,
    eps: float,
    t_final: float,
    cfl: float = 0.9,
    n_records: int = 20,
) -> KineticTrajectory:
    """March equilibrium initial data to t_final with a CFL-consistent dt."""
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    state = init_equilibrium(grid, vgrid, rho0, theta0, eps)
    dt_max = cfl * eps * grid.h / vgrid.v_max
    n_steps = max(1, int(np.ceil(t_final / dt_max)))
    dt = t_final / n_steps
    record_every = max(1, n_steps // max(1, n_records))

    times = [0.0]
    rho, e_kin, flux = moments(state)
    rhos, e_kins, theta_bs, fluxes = [rho], [e_kin], [state.theta_b.copy()], [flux]
    for k in range(1, n_steps + 1):
        state = kinetic_step(state, dt)
        if k % record_every == 0 or k == n_steps:
            rho, e_kin, flux = moments(state)
            times.append(k * dt)
            rhos.append(rho)
            e_kins.append(e_kin)
            theta_bs.append(state.theta_b.copy())
            fluxes.append(flux)
    return KineticTrajectory(
        eps=eps,
        times=np.array(times),
        rho=rhos,
        kinetic_energy=e_kins,
        theta_b=theta_bs,
        mass_flux=fluxes,
        final_state=state,
    )


def limit_compare(
    kinetic_runs: List[KineticTrajectory],
    macro_rho: np.ndarray,
    macro_energy: np.ndarray,
    grid: Grid1D,
) -> List[dict]:
    """L1 gaps at the final time between kinetic moments and macroscopic fields.

    Rows come back sorted by decreasing eps; the macroscopic fields must
    live on the same grid.
    """
    macro_rho = np.asarray(macro_rho, dtype=float)
    macro_energy = np.asarray(macro_energy, dtype=float)
    if macro_rho.shape != (grid.n_cells,) or macro_energy.shape != (grid.n_cells,):
        raise ValueError("macroscopic fields do not match the grid")
    rows = []
    for run in sorted(kinetic_runs, key=lambda r: -r.eps):
        if run.rho[-1].shape != (grid.n_cells,):
            raise ValueError("kinetic run does not match the comparison grid")
        err_rho = integrate(grid, np.abs(run.rho[-1] - macro_rho))
        err_energy = integrate(
            grid, np.abs(run.total_energy_density() - macro_energy)
        )
        rows.append({"eps": run.eps, "err_rho_l1": err_rho, "err_energy_l1": err_energy})
    return rows


def closure_identity_errors(
    theta: float, half_width: float | None = None, n_perp: int = 201, n_samples: int = 9
) -> Tuple[float, float]:
    """Verify the reduced-closure identities by 2D transverse quadrature.

    Checks, at sample longitudinal velocities, that integrating the full 3D
    Maxwellian over the transverse plane gives M1(theta; v1), and weighting
    by |v_perp|^2 gives 2 theta M1(theta; v1). Returns the two max errors.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if half_width is None:
        half_width = 8.0 * np.sqrt(theta)
    vp = np.linspace(-half_width, half_width, n_perp)
    wq = np.full(n_perp, vp[1] - vp[0])
    wq[0] *= 0.5
    wq[-1] *= 0.5
    v2, v3 = np.meshgrid(vp, vp, indexing="ij")
    w2 = np.outer(wq, wq)
    perp_sq = v2**2 + v3**2
    v1_samples = np.linspace(0.0, 3.0 * np.sqrt(theta), n_samples)
    err0 = 0.0
    err2 = 0.0
    for v1 in v1_samples:
        m3 = (2.0 * np.pi * theta) ** -1.5 * np.exp(
            -(v1**2 + perp_sq) / (2.0 * theta)
        )
        m1 = maxwellian_1d(theta, v1)
        err0 = max(err0, abs(float(np.sum(w2 * m3)) - m1))
        err2 = max(err2, abs(float(np.sum(w2 * perp_sq * m3)) - 2.0 * theta * m1))
    return err0, err2
