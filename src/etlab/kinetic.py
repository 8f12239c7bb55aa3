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

A step makes few passes over the (n_x, n_v) distributions. Transport forms
all face differences with one contiguous subtract into a face buffer owned
by the run, then applies the Courant numbers of each velocity sign. Every
velocity moment is a product with a cached weight vector wq v^k; the
Maxwellian is even in v, so it is evaluated, and its sums S_k taken, on the
nonnegative nodes only. The step blocks and Courant tiles a run owns start
on 64-byte boundaries, so numpy's vector stores into them do not split
across cache lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .grid import Grid1D, integrate
from .linalg import BandedCholesky, BandedSymmetricMatrix
from .scheme import StepFailureError

_RELAX_TOL = 1e-14
_RELAX_MAX_ITER = 60

# Most explicit steps a kinetic run may take; ``etlab`` rejects a config that
# needs more (exit 3). About 440 times the 2276 steps of an n = 256,
# eps = 0.1, t_final = 0.1 run, and a run of minutes at n = 256.
MAX_KINETIC_STEPS = 10**6


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
    """Reduced distributions, background temperature, and scaled Knudsen number.

    ``delta`` is the per-cell energy defect S2/S0 - theta of the discrete
    Maxwellian at the last relaxation temperature (see _relax_temperature).
    """

    g0: np.ndarray  # (n_x, n_v), nonnegative
    g2: np.ndarray  # (n_x, n_v), nonnegative
    theta_b: np.ndarray  # (n_x,), positive
    eps: float
    grid: Grid1D
    vgrid: VelocityGrid
    delta: np.ndarray  # (n_x,)


def init_equilibrium(
    grid: Grid1D, vgrid: VelocityGrid, rho0, theta0, eps: float
) -> KineticState:
    """Local-equilibrium data: g0 = rho M1(theta), g2 = 2 theta g0, theta_b = theta.

    The state's energy defect is S2/S0 - theta at theta0, and 0, the
    continuum law, in a cell whose Maxwellian underflows on the grid (S0 = 0).
    """
    rho0 = np.asarray(rho0, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if np.any(rho0 <= 0.0) or np.any(theta0 <= 0.0):
        raise ValueError("equilibrium data must be strictly positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    v = vgrid.nodes
    m1 = maxwellian_1d(theta0[:, None], v[None, :])
    _, (w0, w2, _) = _moment_weights(v.tobytes(), vgrid.weights.tobytes())
    upper = m1[:, v.shape[0] // 2 :]
    s0, s2 = upper @ w0, upper @ w2
    delta = np.divide(s2, s0, out=theta0.copy(), where=s0 > 0.0) - theta0
    g0 = rho0[:, None] * m1
    g2 = 2.0 * theta0[:, None] * g0
    return KineticState(
        g0=g0,
        g2=g2,
        theta_b=theta0.copy(),
        eps=float(eps),
        grid=grid,
        vgrid=vgrid,
        delta=delta,
    )


def moments(state: KineticState) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell density, kinetic energy density, and scaled mass flux."""
    v = state.vgrid.nodes
    wq = state.vgrid.weights
    rho = state.g0 @ wq
    kinetic_energy = 0.5 * (state.g0 @ (wq * v**2) + state.g2 @ wq)
    mass_flux = state.g0 @ (wq * v) / state.eps
    return rho, kinetic_energy, mass_flux


def energy_total(grid: Grid1D, state: KineticState) -> float:
    """Integral of background plus kinetic energy; invariant under kinetic_step."""
    _, kinetic_energy, _ = moments(state)
    return integrate(grid, state.theta_b + kinetic_energy)


def _transport(
    g: np.ndarray,
    c_pos: np.ndarray,
    c_neg: np.ndarray,
    faces: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Flux-form upwind transport with specular reflection at both walls.

    ``c_pos``/``c_neg`` hold the Courant numbers dt v / (eps h), |.| <= 1, of
    the positive/negative velocities and 0 elsewhere, tiled to g's shape.
    ``faces`` (n_x + 1 rows) receives the face differences D[i] = g[i] - g[i-1],
    with the reflected distribution as ghost value beyond each wall, so the
    velocity-summed mass and energy fluxes through a wall cancel exactly on
    a symmetric grid. Then out = g - c_pos D[:-1] - c_neg D[1:], which is
    returned; each column subtracts one exact zero, so this equals the
    upwind update of each velocity sign bit for bit. ``faces`` is left as
    scratch.
    """
    np.subtract(g[1:], g[:-1], out=faces[1:-1])
    np.subtract(g[0], g[0, ::-1], out=faces[0])
    np.subtract(g[-1, ::-1], g[-1], out=faces[-1])
    np.multiply(c_pos, faces[:-1], out=out)
    np.subtract(g, out, out=out)
    np.multiply(c_neg, faces[1:], out=faces[1:])
    return np.subtract(out, faces[1:], out=out)


@lru_cache(maxsize=32)
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


@lru_cache(maxsize=4)
def _step_constants(n: int, h: float, dt: float, eps: float, nodes: bytes):
    """c_pos and c_neg (see _transport), each tiled to (n, n_v), 64-byte aligned.

    Keyed like _heat_factor, plus eps and the velocity nodes' bytes. Tiled,
    the per-step products with the distributions run on contiguous arrays.
    A run uses one entry; the small cache bounds the memory the tiles hold.
    """
    v = np.frombuffer(nodes)
    courant = dt * v / (eps * h)
    tiled = []
    for sign in (v > 0.0, v < 0.0):
        tile = _aligned_empty((n, v.shape[0]))
        tile[:] = np.where(sign, courant, 0.0)
        tile.setflags(write=False)
        tiled.append(tile)
    return tuple(tiled)


@lru_cache(maxsize=4)
def _moment_weights(nodes: bytes, weights: bytes):
    """wq v^2, and wq v^k for k = 0, 2, 4 folded onto the nonnegative nodes.

    Folded weights are doubled, except a zero node's, so S_k = sum wq v^k M1
    of an even M1 is the product of M1 on the nonnegative nodes with them.
    """
    v = np.frombuffer(nodes)
    wq = np.frombuffer(weights)
    half = v.shape[0] // 2
    fold = np.where(v[half:] == 0.0, 1.0, 2.0) * wq[half:]
    folded = tuple(fold * v[half:] ** k for k in (0, 2, 4))
    wv2 = wq * v**2
    for a in (wv2,) + folded:
        a.setflags(write=False)
    return wv2, folded


def _mirror_even(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out with the even extension of ``half``, given on the nonnegative nodes.

    The nodes are exactly antisymmetric, so node j mirrors node n_v - 1 - j.
    """
    n_half = out.shape[1] // 2
    out[:, n_half:] = half
    out[:, :n_half] = half[:, ::-1][:, :n_half]
    return out


def _relax_temperature(
    theta_b: np.ndarray,
    rho: np.ndarray,
    e_kin: np.ndarray,
    delta: np.ndarray,
    mu: float,
    v_half: np.ndarray,
    folded: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve theta + mu rho e_M(theta) = theta_b + mu e_kin per cell.

    e_M(theta) = (S2/S0 + 2 theta) / 2 is the kinetic energy of the
    discrete, mass-normalized Maxwellian target; the left side is strictly
    increasing in theta, so safeguarded Newton with a bracket converges.
    M1 is even in v, so each iterate evaluates it on the nonnegative nodes
    ``v_half`` only, and S_k is its product with the folded weights
    ``folded`` (see _moment_weights).

    Newton starts from the solution of the same equation with the energy
    defect S2/S0 - theta frozen at ``delta``, its value at the previous
    step's temperature: e_M is then 3 theta / 2 + delta / 2 and the equation
    is linear. On a velocity grid that resolves the Maxwellian, the defect
    is roundoff-small and barely moves between steps, so this start already
    meets the tolerance and a step evaluates the Maxwellian once. The
    stopping rule, the bracket and the iteration cap are those of any start.

    Returns theta, S0 and M1 on ``v_half`` of the converged iterate, and its
    defect S2/S0 - theta for the next step.
    """
    w0, w2, w4 = folded
    rhs = theta_b + mu * e_kin
    lo = np.full_like(rhs, 1e-12)
    hi = rhs.copy()
    theta = np.clip((rhs - 0.5 * mu * rho * delta) / (1.0 + 1.5 * mu * rho), lo, hi)
    for _ in range(_RELAX_MAX_ITER):
        m1 = maxwellian_1d(theta[:, None], v_half)
        s0 = m1 @ w0
        s2 = m1 @ w2
        with np.errstate(divide="ignore", invalid="ignore"):  # S0 = 0 if M1 underflows
            ratio = s2 / s0
        e_m = 0.5 * (ratio + 2.0 * theta)
        f = theta + mu * rho * e_m - rhs
        if np.all(np.abs(f) <= _RELAX_TOL * (1.0 + rhs)):
            return theta, s0, m1, ratio - theta
        if not np.isfinite(f).all():
            break  # no Newton update can repair non-finite moments
        s4 = m1 @ w4
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


def _step_block(state: KineticState) -> np.ndarray:
    """An uninitialized step block for kinetic_step's ``out``: (4, n_x + 1, n_v).

    The block starts on a 64-byte boundary (see _aligned_empty). When n_v
    is a multiple of 8, as the default 64 is, so does every layer and the
    ``faces[1:]`` work view of kinetic_step.
    """
    n_x, n_v = state.g0.shape
    return _aligned_empty((4, n_x + 1, n_v))


def kinetic_step(
    state: KineticState, dt: float, out: Optional[np.ndarray] = None
) -> KineticState:
    """One split step: transport, background heat diffusion, implicit relaxation.

    The step works in one block of shape (4, n_x + 1, n_v) (see _step_block):
    ``out`` when given, which must not hold the input state's distributions,
    else a new array. Its layers 0 and 1 take the new g0 and g2 in their
    first n_x rows, layer 2 the Maxwellian M1 of the relaxation, and layer 3
    the face differences of the transport, then the relaxation's products.
    A step makes no other distribution-sized array; the returned state's g0
    and g2 are views into the block.

    Transport takes one contiguous pass per operation and is the upwind
    update bit for bit. Every velocity moment is a product with a cached
    weight vector wq v^k, and the relaxation is g <- g / (1 + lam) + c M1
    with per-cell c0 = mu rho / S0 for g0 and c2 = 2 theta* c0 for g2; these
    reorder the full-grid sums and divisions of the plain formulation, so
    they agree with it to roundoff. Mass and total energy are conserved by
    construction: the target is normalized by its discrete mass, and the
    background absorbs exactly the kinetic energy the gas released.
    """
    grid, vgrid, eps = state.grid, state.vgrid, state.eps
    cfl_bound = eps * grid.h / vgrid.v_max
    if dt > cfl_bound * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt:.3e} violates the CFL bound {cfl_bound:.3e}")
    v, wq = vgrid.nodes, vgrid.weights
    n = grid.n_cells
    c_pos, c_neg = _step_constants(n, grid.h, dt, eps, v.tobytes())
    wv2, folded = _moment_weights(v.tobytes(), wq.tobytes())

    block = _step_block(state) if out is None else out
    g0, g2, m1, faces = block[0, :n], block[1, :n], block[2, :n], block[3]
    _transport(state.g0, c_pos, c_neg, faces, g0)
    _transport(state.g2, c_pos, c_neg, faces, g2)

    theta_b = _heat_factor(n, grid.h, dt).solve(state.theta_b)

    lam = dt / eps**2
    mu = lam / (1.0 + lam)
    rho = g0 @ wq
    e_kin = 0.5 * (g0 @ wv2 + g2 @ wq)
    theta_star, s0, m1_half, delta = _relax_temperature(
        theta_b, rho, e_kin, state.delta, mu, v[None, v.shape[0] // 2 :], folded
    )
    _mirror_even(m1_half, m1)
    # Normalizing the target by its discrete mass makes relaxation conserve
    # the density exactly on this quadrature.
    c0 = mu * rho / s0
    c2 = 2.0 * theta_star * c0
    work = faces[1:]
    keep = 1.0 / (1.0 + lam)
    g0 *= keep
    g0 += np.multiply(c0[:, None], m1, out=work)
    g2 *= keep
    g2 += np.multiply(c2[:, None], m1, out=work)
    e_kin_new = 0.5 * (g0 @ wv2 + g2 @ wq)
    # The background absorbs exactly what the gas released.
    theta_b = theta_b + (e_kin - e_kin_new)

    return KineticState(
        g0=g0, g2=g2, theta_b=theta_b, eps=eps, grid=grid, vgrid=vgrid, delta=delta
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


def kinetic_step_count(
    t_final: float, eps: float, h: float, v_max: float, cfl: float = 0.9
) -> float:
    """Steps of at most the CFL bound cfl * eps * h / v_max that reach t_final:
    at least 1, and inf when the bound underflows to zero."""
    dt_max = cfl * eps * h / v_max
    return max(1.0, float(np.ceil(t_final / dt_max))) if dt_max > 0.0 else math.inf


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
    """March equilibrium initial data to t_final with a CFL-consistent dt.

    The steps write into two step blocks in turn (see kinetic_step), so a
    run allocates its distributions once, whatever the allocator's
    thresholds; the final state's distributions are views into one block.
    """
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    state = init_equilibrium(grid, vgrid, rho0, theta0, eps)
    n_steps = int(kinetic_step_count(t_final, eps, grid.h, vgrid.v_max, cfl))
    dt = t_final / n_steps
    record_every = max(1, n_steps // max(1, n_records))

    times = [0.0]
    rho, e_kin, flux = moments(state)
    rhos, e_kins, theta_bs, fluxes = [rho], [e_kin], [state.theta_b.copy()], [flux]
    # Two arrays, not one of shape (2, 4, n_x + 1, n_v): in one array each
    # step's source and destination layers lie exactly a block apart, and a
    # run at n_x = 256, n_v = 64 measured about 7% slower that way.
    blocks = [_step_block(state) for _ in range(2)]
    for k in range(1, n_steps + 1):
        state = kinetic_step(state, dt, out=blocks[k % 2])
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
