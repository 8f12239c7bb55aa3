"""Implicit time stepper for the density/temperature cross-diffusion system.

One step solves the doubly regularized nonlinear system in the entropic
variables (phi, w): implicit Euler in time, edge fluxes driven by the
Onsager matrix with edge-averaged coefficients, a higher-order
second-difference regularization weighted by eps, and a zero-order
stabilization weighted by delta. Because the unknowns are chart variables,
rho and theta stay positive for any finite iterate.

The nonlinear step is solved by quasi-Newton iterations on the exact
residual until the update of the chart variables, O(1) logarithms, is at
most ``fp_tol`` (see ``_converge``). Two interchangeable inner
linearizations are provided:

* ``coupled_implicit`` (default): one symmetric positive definite system in
  the interleaved (phi, w) unknowns per iteration, with frozen coefficients.
* ``paper_picard``: two decoupled SPD solves per iteration (the phi and w
  fields separately), cross-coupling fluxes explicit.

Both linearizations vanish at the same fixed point, so they produce the
same step solution; only robustness and iteration counts differ.

Every accepted step carries audits: the exact discrete mass/energy budget
identities (telescopes of the weak form with a constant test function) and
the entropy monotonicity check with its explicit delta-level slack.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .grid import Grid1D, div_edge, grad_edge, integrate, second_diff
from .linalg import BandedCholesky, BandedSymmetricMatrix, NotSPDError
from .thermo import (
    BlowupError,
    EntropicState,
    MacroState,
    edge_mean,
    entropy_tilde,
    onsager_edge,
    to_entropic,
    to_primitive,
)

logger = logging.getLogger(__name__)

INNER_MODES = ("paper_picard", "coupled_implicit")

# Largest budget-identity error tau * h * |sum r| (mass and energy) that an
# accepted iterate may carry; well below budget_audit's tolerance of 1e-10.
_BUDGET_GUARD = 1e-12


class StepFailureError(RuntimeError):
    """Tau backoff exhausted, or kinetic relaxation failed (``tau_last`` None)."""

    def __init__(self, message: str, residual: float, tau_last: Optional[float] = None):
        super().__init__(message)
        self.residual = residual
        self.tau_last = tau_last


class _NotConverged(Exception):
    def __init__(self, residual: float):
        self.residual = residual


@dataclass
class SchemeParams:
    """Time step, regularization weights, and fixed-point controls."""

    tau: float = 1e-3
    eps: float = 1e-6
    delta: float = 1e-4
    n_exp: float = 2.0
    t_final: float = 0.1
    fp_tol: float = 1e-10
    fp_max_iter: int = 200
    tau_backoff_limit: int = 10
    inner_mode: str = "coupled_implicit"
    init_floor: float = 1e-12
    source_mass: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    source_energy: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.eps < 0.0 or self.delta < 0.0:
            raise ValueError("eps and delta must be nonnegative")
        if not 0.0 < self.n_exp < 5.0:
            raise ValueError("n_exp must lie in (0, 5)")
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if self.fp_tol <= 0.0:
            raise ValueError("fp_tol must be positive")
        if self.fp_max_iter < 1:
            raise ValueError("fp_max_iter must be at least 1")
        if self.tau_backoff_limit < 0:
            raise ValueError("tau_backoff_limit must be nonnegative")
        if self.inner_mode not in INNER_MODES:
            raise ValueError(f"inner_mode must be one of {INNER_MODES}")
        if self.inner_mode == "paper_picard" and (self.eps <= 0.0 or self.delta <= 0.0):
            raise ValueError("paper_picard requires eps > 0 and delta > 0")


@dataclass
class BudgetAudit:
    """Exact discrete mass/energy identities for one accepted step."""

    mass_lhs: float
    mass_rhs: float
    mass_error: float
    mass_pass: bool
    energy_lhs: float
    energy_rhs: float
    energy_error: float
    energy_pass: bool


@dataclass
class EntropyAudit:
    """Entropy monotonicity record: H may rise at most by the delta slack."""

    h_prev: float
    h_next: float
    slack: float
    violation: float
    passed: bool
    edge_form_min: float
    dissipation: Dict[str, float]


@dataclass
class StepReport:
    """One step: how the nonlinear solve converged and the step's audits.

    ``residual`` is None for a step that was audited but not solved here
    (``etlab audit`` re-checks stored states).
    """

    iterations: int
    residual: Optional[float]
    tau_used: float
    budget: BudgetAudit
    entropy: EntropyAudit
    residual_history: List[float] = field(default_factory=list)


@dataclass
class Trajectory:
    times: np.ndarray
    states: List[EntropicState]
    reports: List[StepReport]


# ---------------------------------------------------------------------------
# residual assembly
# ---------------------------------------------------------------------------


def _residual(
    grid: Grid1D,
    prev_mac: MacroState,
    cand: EntropicState,
    p: SchemeParams,
    t_new: float,
):
    """Nodal residuals, the candidate's primitive fields, and its edge data
    (m11, m12, m22, exp(-w_e), dw, theta_e), which _assemble_blocks reuses."""
    mac = to_primitive(cand)
    rho, theta, w, phi = mac.rho, mac.theta, cand.w, cand.phi

    m11, m12, m22, eneg = onsager_edge(rho, theta, w)
    dphi = grad_edge(grid, phi)
    dw = grad_edge(grid, w)
    theta_e = edge_mean(theta)
    flux_mass = m11 * dphi + m12 * eneg * dw
    flux_energy = m12 * dphi + m22 * eneg * dw

    dyn_mass = (rho - prev_mac.rho) / p.tau - div_edge(grid, flux_mass)
    dyn_energy = (mac.energy - prev_mac.energy) / p.tau - div_edge(grid, flux_energy)
    if p.source_mass is not None:
        dyn_mass = dyn_mass - p.source_mass(grid.cell_centers, t_new)
    if p.source_energy is not None:
        dyn_energy = dyn_energy - p.source_energy(grid.cell_centers, t_new)

    reg_mass = np.zeros(grid.n_cells)
    reg_energy = np.zeros(grid.n_cells)
    if p.eps > 0.0:
        reg_mass += p.eps * second_diff(grid, second_diff(grid, phi))
        lw = second_diff(grid, w)
        reg_energy += p.eps * (
            second_diff(grid, theta * lw)
            - div_edge(grid, theta_e * dw**3)
            + (1.0 + theta) * w
        )
    if p.delta > 0.0:
        reg_mass += p.delta * (phi - second_diff(grid, phi))
        reg_energy += p.delta * (
            -div_edge(grid, theta_e**3 * dw) + np.exp(-p.n_exp * w) * w
        )
    edges = (m11, m12, m22, eneg, dw, theta_e)
    return dyn_mass + reg_mass, dyn_energy + reg_energy, mac, edges


def assemble_residual(
    grid: Grid1D,
    prev: EntropicState,
    cand: EntropicState,
    p: SchemeParams,
    t_new: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nodal residuals of the discrete weak forms at the candidate state.

    The quadrature of the mass residual telescopes to
    (mass(cand) - mass(prev)) / tau + delta * integrate(phi) exactly; the
    energy residual analogously. The budget audits rest on this.
    """
    r_mass, r_energy, _, _ = _residual(grid, to_primitive(prev), cand, p, t_new)
    return r_mass, r_energy


# ---------------------------------------------------------------------------
# banded operator builders
# ---------------------------------------------------------------------------


def _stiffness_bands(n: int, h: float, coeff_e: np.ndarray) -> np.ndarray:
    """Lower bands (2, n) of the edge-weighted stiffness form sum_e h c_e Du Dpsi."""
    bands = np.zeros((2, n))
    bands[0, :-1] += coeff_e / h
    bands[0, 1:] += coeff_e / h
    bands[1, : n - 1] = -coeff_e / h
    return bands


@functools.lru_cache(maxsize=8)
def _unit_bands(n: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """The state-independent bands of the Jacobian blocks, built once per grid.

    Returns the lower bands (3, n) of the form sum_i h (Lu)_i (Lpsi)_i, where
    L is the second difference with even-reflection ghosts (the form
    annihilates constants exactly), and the lower bands (2, n) of the unit
    stiffness form. Both are read-only because every call shares them.
    """
    lo = 1.0 / h**2
    ld = np.full(n, -2.0 / h**2)
    ld[0] = ld[-1] = -1.0 / h**2
    second = np.zeros((3, n))
    second[0] = h * ld**2
    second[0, :-1] += h * lo**2
    second[0, 1:] += h * lo**2
    second[1, : n - 1] = h * lo * (ld[:-1] + ld[1:])
    second[2, : n - 2] = h * lo**2
    stiffness = _stiffness_bands(n, h, np.ones(n - 1))
    second.flags.writeable = False
    stiffness.flags.writeable = False
    return second, stiffness


def _assemble_blocks(
    grid: Grid1D, frozen: EntropicState, frozen_mac: MacroState, edges, p: SchemeParams
):
    """Symmetric approximate-Jacobian blocks at the frozen state, whose edge
    data ``edges`` _residual has returned.

    The energy rows are rescaled by exp(-w) so the time-derivative block
    becomes the symmetric matrix [[rho, 3 rho/2], [3 rho/2, 1 + 15 rho/4]],
    which is positive definite for rho > 0. Flux blocks inherit positive
    semidefiniteness from the edge Onsager matrix. The approximations only
    shape the iteration; fixed points solve the exact residual.
    """
    n, h = grid.n_cells, grid.h
    rho, w = frozen_mac.rho, frozen.w
    m11, m12, m22, eneg, dw, theta_e = edges
    second, stiffness = _unit_bands(n, h)
    h_tau = h / p.tau
    # (h / tau) (1 + 15 rho / 4) bounds every time-derivative entry. Once tau
    # has been halved close to underflow it is not finite, and the system
    # cannot be formed: a numerical failure like a non-SPD matrix.
    if not math.isfinite(h_tau * (1.0 + 3.75 * float(rho.max()))):
        raise NotSPDError(f"time-derivative block overflows at tau = {p.tau:.3e}")

    a11 = np.zeros((3, n))
    a11[0] = h_tau * rho
    a11[:2] += _stiffness_bands(n, h, m11)
    if p.eps > 0.0:
        a11 += p.eps * second
    if p.delta > 0.0:
        a11[:2] += p.delta * stiffness
        a11[0] += p.delta * h

    a12 = np.zeros((2, n))
    a12[0] = (1.5 * h / p.tau) * rho
    a12 += _stiffness_bands(n, h, m12 * eneg)

    a22 = np.zeros((3, n))
    a22[0] = h_tau * (1.0 + 3.75 * rho)
    a22[:2] += _stiffness_bands(n, h, m22 * eneg**2)
    if p.eps > 0.0:
        a22 += p.eps * second
        a22[:2] += p.eps * _stiffness_bands(n, h, theta_e * eneg * dw**2)
        a22[0] += p.eps * h * (1.0 + np.exp(-w))
    if p.delta > 0.0:
        a22[:2] += p.delta * _stiffness_bands(n, h, theta_e**3 * eneg)
        a22[0] += p.delta * h * np.exp(-(p.n_exp + 1.0) * w)
    return a11, a12, a22


def _interleave(n: int, a11, a12, a22) -> BandedSymmetricMatrix:
    """Couple the blocks into one banded system over (phi_0, w_0, phi_1, ...)."""
    bands = np.zeros((5, 2 * n))
    bands[0, 0::2] = a11[0]
    bands[0, 1::2] = a22[0]
    bands[1, 0::2] = a12[0]
    bands[1, 1:-1:2] = a12[1, : n - 1]
    bands[2, 0:-2:2] = a11[1, : n - 1]
    bands[2, 1:-1:2] = a22[1, : n - 1]
    bands[3, 0:-2:2] = a12[1, : n - 1]
    bands[4, 0:-4:2] = a11[2, : n - 2]
    bands[4, 1:-3:2] = a22[2, : n - 2]
    return BandedSymmetricMatrix(n=2 * n, bandwidth=4, bands=bands)


def _block_matrix(n: int, bands3: np.ndarray) -> BandedSymmetricMatrix:
    return BandedSymmetricMatrix(n=n, bandwidth=2, bands=bands3)


# ---------------------------------------------------------------------------
# fixed-point iterations
# ---------------------------------------------------------------------------


def _converge(
    grid: Grid1D,
    prev: EntropicState,
    p: SchemeParams,
    t_new: float,
) -> Tuple[EntropicState, List[float]]:
    """Iterate until a correction max|(dphi, dw)| is at most fp_tol.

    The iterate after it is accepted once tau * h * |sum r| of both its
    residuals, exactly the budget-identity error with no-flux walls, is at
    most _BUDGET_GUARD; a zero residual is accepted without a solve. No
    acceptance within fp_max_iter residual evaluations, or a non-finite
    residual or correction, raises _NotConverged so the caller backs off.
    Returns the accepted iterate and max|r| of every iterate, its own last.
    """
    n, h = grid.n_cells, grid.h
    prev_mac = to_primitive(prev)
    x = prev
    history: List[float] = []
    update = np.inf
    for _ in range(p.fp_max_iter):
        r1, r2, mac, edges = _residual(grid, prev_mac, x, p, t_new)
        res = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
        history.append(res)
        if not np.isfinite(res):
            raise _NotConverged(res)
        if update <= p.fp_tol or res == 0.0:
            if p.tau * h * max(abs(r1.sum()), abs(r2.sum())) <= _BUDGET_GUARD:
                return x, history

        a11, a12, a22 = _assemble_blocks(grid, x, mac, edges, p)
        scale_e = np.exp(-x.w)
        if p.inner_mode == "coupled_implicit":
            rhs = np.empty(2 * n)
            rhs[0::2] = -h * r1
            rhs[1::2] = -h * scale_e * r2
            delta_x = BandedCholesky(_interleave(n, a11, a12, a22)).solve(rhs)
            dphi, dw = delta_x[0::2], delta_x[1::2]
        else:  # paper_picard: decoupled sweeps, cross fluxes explicit
            dphi = BandedCholesky(_block_matrix(n, a11)).solve(-h * r1)
            dw = BandedCholesky(_block_matrix(n, a22)).solve(-h * scale_e * r2)
        phi, w = x.phi + dphi, x.w + dw
        if not (np.isfinite(phi).all() and np.isfinite(w).all()):
            raise _NotConverged(res)
        update = max(float(np.abs(dphi).max()), float(np.abs(dw).max()))
        x = EntropicState(phi=phi, w=w)
    raise _NotConverged(history[-1])


def fixed_point_step(
    grid: Grid1D,
    prev: EntropicState,
    p: SchemeParams,
    t_start: float = 0.0,
) -> Tuple[EntropicState, StepReport]:
    """Advance one implicit step, halving tau on numerical failure.

    Non-convergence, blow-up of the chart values and a non-SPD linear
    system halve tau; any other error propagates. StepFailureError ends the
    step after p.tau_backoff_limit halvings, or earlier when one more
    halving would underflow tau to zero. Returns the state after the time
    increment that actually succeeded (tau_used <= p.tau) together with its
    audit report.
    """
    tau_try = p.tau
    last_residual = np.inf
    halvings = 0
    while halvings <= p.tau_backoff_limit:
        p_try = replace(p, tau=tau_try)
        try:
            x, history = _converge(grid, prev, p_try, t_start + tau_try)
        except _NotConverged as exc:
            last_residual = exc.residual
        except (BlowupError, NotSPDError):
            pass
        else:
            report = StepReport(
                iterations=len(history),
                residual=history[-1],
                tau_used=tau_try,
                budget=budget_audit(grid, prev, x, p_try, t_new=t_start + tau_try),
                entropy=entropy_audit(grid, prev, x, p_try),
                residual_history=history,
            )
            return x, report
        if tau_try * 0.5 == 0.0:
            break  # one more halving would underflow tau to zero
        tau_try *= 0.5
        halvings += 1
    raise StepFailureError(
        f"fixed point failed after {halvings} tau halvings "
        f"(last residual {last_residual:.3e})",
        residual=last_residual,
        tau_last=tau_try,
    )


def make_initial_state(rho0, theta0, floor: float = 1e-12) -> MacroState:
    """Clip raw initial fields up to a positivity floor before the chart."""
    rho0 = np.asarray(rho0, dtype=float).copy()
    theta0 = np.asarray(theta0, dtype=float).copy()
    n_clip = int(np.sum(rho0 < floor) + np.sum(theta0 < floor))
    if n_clip:
        logger.warning(
            "clipped %d initial cells up to the positivity floor %.3g", n_clip, floor
        )
        rho0 = np.maximum(rho0, floor)
        theta0 = np.maximum(theta0, floor)
    return MacroState.from_rho_theta(rho0, theta0)


def step_count(t_final: float, tau: float) -> int:
    """Number of steps of size tau that reach t_final; ValueError unless integral."""
    ratio = t_final / tau
    n_steps = round(ratio)
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, n_steps):
        raise ValueError(f"t_final/tau = {ratio} is not an integer")
    return n_steps


def run_transient(grid: Grid1D, init: MacroState, p: SchemeParams) -> Trajectory:
    """March to t_final in steps of tau, auditing every accepted step.

    A step that needed backoff is completed by dyadic substeps so the
    recorded states still sit at exact multiples of tau.
    """
    n_steps = step_count(p.t_final, p.tau)
    state = to_entropic(init.rho, init.theta)
    states = [state]
    reports: List[StepReport] = []
    for k in range(n_steps):
        remaining = p.tau
        t_base = k * p.tau
        while remaining > 1e-12 * p.tau:
            p_sub = replace(p, tau=min(p.tau, remaining))
            try:
                state, rep = fixed_point_step(grid, state, p_sub, t_start=t_base)
            except StepFailureError as exc:
                raise StepFailureError(
                    f"step {k + 1} (t in [{t_base:.6g}, {t_base + p.tau:.6g}]): {exc}",
                    residual=exc.residual,
                    tau_last=exc.tau_last,
                ) from exc
            reports.append(rep)
            remaining -= rep.tau_used
            t_base += rep.tau_used
        states.append(state)
    times = p.tau * np.arange(n_steps + 1)
    return Trajectory(times=times, states=states, reports=reports)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def lyapunov_functional(grid: Grid1D, state: EntropicState) -> float:
    """H = integral of (entropy_tilde + E); nonincreasing up to the delta slack."""
    mac = to_primitive(state)
    return integrate(grid, entropy_tilde(mac.rho, mac.energy) + mac.energy)


def budget_audit(
    grid: Grid1D,
    prev: EntropicState,
    nxt: EntropicState,
    p: SchemeParams,
    tol: float = 1e-10,
    t_new: Optional[float] = None,
) -> BudgetAudit:
    """Check the two exact step identities obtained from constant test functions.

    mass(next) - mass(prev)   = -tau * delta * integral(phi)
    energy(next) - energy(prev) = -tau * (eps * integral((1+theta) w)
                                          + delta * integral(theta^{-N} w))

    Manufactured source terms, when configured, are added to the right-hand
    sides. A violation means the assembly broke summation by parts.
    """
    prev_mac = to_primitive(prev)
    next_mac = to_primitive(nxt)
    mass_prev = integrate(grid, prev_mac.rho)
    mass_next = integrate(grid, next_mac.rho)
    energy_prev = integrate(grid, prev_mac.energy)
    energy_next = integrate(grid, next_mac.energy)

    mass_rhs = -p.tau * p.delta * integrate(grid, nxt.phi)
    energy_rhs = -p.tau * (
        p.eps * integrate(grid, (1.0 + next_mac.theta) * nxt.w)
        + p.delta * integrate(grid, np.exp(-p.n_exp * nxt.w) * nxt.w)
    )
    if t_new is not None:
        if p.source_mass is not None:
            mass_rhs += p.tau * integrate(grid, p.source_mass(grid.cell_centers, t_new))
        if p.source_energy is not None:
            energy_rhs += p.tau * integrate(
                grid, p.source_energy(grid.cell_centers, t_new)
            )

    mass_lhs = mass_next - mass_prev
    energy_lhs = energy_next - energy_prev
    mass_error = abs(mass_lhs - mass_rhs)
    energy_error = abs(energy_lhs - energy_rhs)
    return BudgetAudit(
        mass_lhs=mass_lhs,
        mass_rhs=mass_rhs,
        mass_error=mass_error,
        mass_pass=mass_error <= tol * (1.0 + abs(mass_lhs)),
        energy_lhs=energy_lhs,
        energy_rhs=energy_rhs,
        energy_error=energy_error,
        energy_pass=energy_error <= tol * (1.0 + abs(energy_lhs)),
    )


def dissipation_terms(
    grid: Grid1D, state: EntropicState, p: SchemeParams
) -> Tuple[Dict[str, float], float]:
    """Entropy-production quadratures evaluated at a state.

    Returns the named terms and the per-edge minimum of the symmetric
    Onsager edge form, which is nonnegative by positive semidefiniteness of
    the 2x2 edge matrices.
    """
    mac = to_primitive(state)
    rho, theta, w, phi = mac.rho, mac.theta, state.w, state.phi
    h = grid.h
    m11, m12, m22, eneg = onsager_edge(rho, theta, w)
    dphi = grad_edge(grid, phi)
    dw = grad_edge(grid, w)
    theta_e = edge_mean(theta)
    rho_e = edge_mean(rho)

    # Sum-of-squares evaluation of the 2x2 edge form: its determinant
    # factors as rho theta^3 (1 + 5/2 rho theta), a product of nonnegative
    # terms, so every edge value is nonnegative in floating point too.
    safe_m11 = np.where(m11 > 0.0, m11, 1.0)
    s_mixed = np.sqrt(safe_m11) * dphi + (m12 * eneg / np.sqrt(safe_m11)) * dw
    det_scaled = rho_e * theta_e**3 * (1.0 + 2.5 * rho_e * theta_e) / safe_m11
    edge_form = np.where(
        m11 > 0.0,
        s_mixed**2 + det_scaled * eneg**2 * dw**2,
        m22 * eneg**2 * dw**2,
    )
    terms: Dict[str, float] = {
        "edge_form": h * float(edge_form.sum()),
        "grad_log_theta_sq": h * float((dw**2).sum()),
        "theta_grad_sqrt_rho_sq": 0.125
        * h
        * float((theta_e * grad_edge(grid, np.sqrt(rho)) ** 2).sum()),
        "grad_sqrt_rho_theta_sq": (1.0 / 64.0)
        * h
        * float((grad_edge(grid, np.sqrt(rho * theta)) ** 2).sum()),
    }
    if p.eps > 0.0:
        lphi = second_diff(grid, phi)
        lw = second_diff(grid, w)
        terms["eps_hess_phi_sq"] = p.eps * h * float((lphi**2).sum())
        terms["eps_w_terms"] = (
            0.5
            * p.eps
            * (
                h * float((lw**2).sum())
                + h * float((dw**4).sum())
                + h * float((w**2).sum())
            )
        )
    if p.delta > 0.0:
        terms["delta_phi"] = p.delta * (
            h * float((dphi**2).sum()) + h * float((phi**2).sum())
        )
        terms["delta_grad_theta_sq"] = p.delta * h * float(
            (grad_edge(grid, theta) ** 2).sum()
        )
        terms["delta_theta_neg"] = p.delta * h * float(
            np.exp(-(p.n_exp + 1.0) * w).sum()
        )
    edge_min = float(edge_form.min()) if edge_form.size else 0.0
    return terms, edge_min


def entropy_audit(
    grid: Grid1D,
    prev: EntropicState,
    nxt: EntropicState,
    p: SchemeParams,
    tol_ent: float = 1e-8,
) -> EntropyAudit:
    """Assert H(next) <= H(prev) + tau * delta * e^{2(N+1)} |Omega| + tolerance.

    The slack is the explicit bound on the sign-indefinite part of the
    zero-order delta term; with eps = 0 every remaining contribution is
    signed pointwise, so violations beyond roundoff indicate a broken step.
    """
    h_prev = lyapunov_functional(grid, prev)
    h_next = lyapunov_functional(grid, nxt)
    slack = p.tau * p.delta * np.exp(2.0 * (p.n_exp + 1.0)) * grid.length
    violation = h_next - h_prev - slack
    terms, edge_min = dissipation_terms(grid, nxt, p)
    return EntropyAudit(
        h_prev=h_prev,
        h_next=h_next,
        slack=slack,
        violation=violation,
        passed=violation <= tol_ent * (1.0 + abs(h_prev)),
        edge_form_min=edge_min,
        dissipation=terms,
    )
