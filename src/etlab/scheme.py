"""Implicit time stepper for the density/temperature cross-diffusion system.

One step solves the doubly regularized nonlinear system in the entropic
variables (phi, w): implicit Euler in time, edge fluxes driven by the
Onsager matrix with edge-averaged coefficients, a higher-order
second-difference regularization weighted by eps, and a zero-order
stabilization weighted by delta. Because the unknowns are chart variables,
rho and theta stay positive for any finite iterate.

The nonlinear step is solved by chord iterations on the exact residual,
started from the extrapolation of the last two accepted states. If that
fails, capped Newton iterations from the previous state are tried before
tau is halved. ``_converge`` states the stopping rule, ``fixed_point_step``
the two attempts at one tau, and ``run_transient`` the warm start and the
tau backoff.

Two interchangeable inner linearizations are provided:

* ``coupled_implicit`` (default): the exact Jacobian of the residual in the
  interleaved (phi, w) unknowns, factored by banded LU (LAPACK dgbtrf) at
  the start of a step and reused while the iteration contracts fast.
* ``paper_picard``: two decoupled SPD solves per iteration (the phi and w
  fields separately), frozen symmetric coefficients, cross-coupling fluxes
  explicit.

Both iterations have the same fixed point, so they produce the same step
solution; only robustness and iteration counts differ.

Every accepted step carries audits: the exact discrete mass/energy budget
identities (telescopes of the weak form with a constant test function) and
the entropy monotonicity check with its explicit delta-level slack.

What a state derives is computed once per state and memoized on it
(thermo.grid_memo): its Lyapunov functional H, which two steps' entropy
audits and the writer read, and its edge data and second differences,
which its residual, its Jacobian and its dissipation read. The arrays go
once the iteration moves past the state, or once its entropy audit has
read them, so the states of a Trajectory keep only their primitives and H.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .grid import Grid1D, div_edge, grad_edge, integrate, second_diff
from .linalg import (
    BandedCholesky,
    BandedLU,
    BandedSymmetricMatrix,
    NotSPDError,
    SingularMatrixError,
)
from .thermo import (
    BlowupError,
    EntropicState,
    MacroState,
    edge_mean,  # unused here, but perfbench/tracing.py spans scheme.edge_mean
    entropy_tilde,
    grid_memo,
    onsager_edge,
    to_entropic,
    to_primitive,
)

logger = logging.getLogger(__name__)

INNER_MODES = ("paper_picard", "coupled_implicit")

# Relative tolerances of the audits: budget_audit's mass and energy identity
# errors, and entropy_audit's violation of the entropy inequality.
BUDGET_TOL = 1e-10
ENTROPY_TOL = 1e-8

# Largest budget-identity error tau * h * |sum r| (mass and energy) that an
# accepted iterate may carry; well below BUDGET_TOL.
_BUDGET_GUARD = 1e-12

# Largest max|(dphi, dw)| of a correction in Newton mode, the last attempt
# before tau is halved. Where a field must grow by orders of magnitude in one
# step, as next to near-vacuum density, the Newton correction of the chart
# overshoots to exp(80) and more; capped, it crawls back instead of blowing
# up.
_LAST_RUNG_UPDATE = 4.0


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")

# The range of each SchemeParams field that has one: a predicate on the value
# and the message of the error that names the field when it is false. The
# config reader checks its scheme fields against the same entries.
PARAM_RANGES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "tau": _POSITIVE,
    "eps": _NONNEGATIVE,
    "delta": _NONNEGATIVE,
    "n_exp": (lambda v: 0 < v < 5, "must lie in (0, 5)"),
    "t_final": _POSITIVE,
    "fp_tol": _POSITIVE,
    "fp_max_iter": (lambda v: v >= 1, "must be at least 1"),
    "tau_backoff_limit": _NONNEGATIVE,
    "inner_mode": (lambda v: v in INNER_MODES, f"must be one of {INNER_MODES}"),
}


class StepFailureError(RuntimeError):
    """Tau backoff exhausted, or kinetic relaxation failed."""


class _NotConverged(Exception):
    """An attempt of _converge failed numerically, or both attempts of
    fixed_point_step did. ``residual`` is the last max|r| that _converge
    reported so; None when neither attempt did (blow-up, singular system)."""

    def __init__(self, residual: Optional[float]):
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
        for name, (ok, message) in PARAM_RANGES.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name}: {message}")


@dataclass
class StepReport:
    """One step: how the nonlinear solve converged and the step's audits.

    ``step`` and ``t`` place it on run_transient's time grid (see there).
    ``residual`` is None for a step that was audited but not solved here
    (``etlab audit`` re-checks stored states). ``budget`` and ``entropy`` are
    the records of budget_audit and entropy_audit, keyed as in audits.json.
    """

    step: int
    t: float
    iterations: int
    residual: Optional[float]
    tau_used: float
    budget: Dict[str, Any]
    entropy: Dict[str, Any]


@dataclass
class Trajectory:
    times: np.ndarray
    states: List[EntropicState]
    reports: List[StepReport]


# ---------------------------------------------------------------------------
# derived data of a state, and residual assembly
# ---------------------------------------------------------------------------


def _edge_data(grid: Grid1D, state: EntropicState) -> Tuple[np.ndarray, ...]:
    """The edge data of ``state``: thermo's Onsager edge entries
    (m11, m12, m22, exp(-w_e)), the edge differences (dphi, dw), and the
    edge means (rho_e, theta_e) the entries are evaluated at, in that order.

    Memoized on the state (thermo.grid_memo), so the residual, the Jacobian
    and dissipation_terms of one state share one evaluation. The residual
    only reads it: the dissipation never sees the residual's fluxes.
    """
    memo = grid_memo(state, grid)
    edges = memo.get("edges")
    if edges is None:
        mac = to_primitive(state)
        m11, m12, m22, eneg, rho_e, theta_e = onsager_edge(mac.rho, mac.theta, state.w)
        dphi, dw = grad_edge(grid, state.phi), grad_edge(grid, state.w)
        edges = memo["edges"] = (m11, m12, m22, eneg, dphi, dw, rho_e, theta_e)
    return edges


def _second_diff(grid: Grid1D, state: EntropicState, name: str) -> np.ndarray:
    """second_diff of the state's field ``name`` ("phi" or "w"), memoized
    on the state like _edge_data."""
    memo = grid_memo(state, grid)
    key = "L" + name
    lap = memo.get(key)
    if lap is None:
        lap = memo[key] = second_diff(grid, getattr(state, name))
    return lap


def _drop_arrays(grid: Grid1D, state: EntropicState) -> None:
    """Drop the arrays that _edge_data and _second_diff memoized on
    ``state``. _converge drops an iterate's when it moves past it, and
    entropy_audit, their last reader, the audited state's, so that no more
    than the state at hand carries them: not the states of a Trajectory,
    nor those that ``etlab audit`` reads."""
    memo = grid_memo(state, grid)
    for key in ("edges", "Lphi", "Lw"):
        memo.pop(key, None)


def _residual(
    grid: Grid1D,
    prev_mac: MacroState,
    cand: EntropicState,
    p: SchemeParams,
    t_new: float,
):
    """Nodal residuals of the discrete weak forms at the candidate, its
    primitive fields, and its _edge_data, which _jacobian and
    _assemble_blocks reuse.

    The quadrature of the mass residual telescopes to
    (mass(cand) - mass(prev)) / tau + delta * integrate(phi) exactly; the
    energy residual analogously. The budget audits rest on this.
    """
    mac = to_primitive(cand)
    rho, theta, w, phi = mac.rho, mac.theta, cand.w, cand.phi
    edges = _edge_data(grid, cand)
    m11, m12, m22, eneg, dphi, dw, _, theta_e = edges
    flux_mass = m11 * dphi + m12 * eneg * dw
    flux_energy = m12 * dphi + m22 * eneg * dw

    dyn_mass = (rho - prev_mac.rho) / p.tau - div_edge(grid, flux_mass)
    dyn_energy = (mac.energy - prev_mac.energy) / p.tau - div_edge(grid, flux_energy)
    if p.source_mass is not None:
        dyn_mass = dyn_mass - p.source_mass(grid.cell_centers, t_new)
    if p.source_energy is not None:
        dyn_energy = dyn_energy - p.source_energy(grid.cell_centers, t_new)

    # The eps and delta terms are summed first and join the dynamics last.
    reg_mass = reg_energy = 0.0
    if p.eps > 0.0 or p.delta > 0.0:
        lphi = _second_diff(grid, cand, "phi")
    if p.eps > 0.0:
        lw = _second_diff(grid, cand, "w")
        reg_mass = p.eps * second_diff(grid, lphi)
        # products, not dw**3: pow takes a slow path on negative bases
        reg_energy = p.eps * (
            second_diff(grid, theta * lw)
            - div_edge(grid, theta_e * (dw * dw * dw))
            + (1.0 + theta) * w
        )
    if p.delta > 0.0:
        reg_mass += p.delta * (phi - lphi)
        reg_energy += p.delta * (
            -div_edge(grid, theta_e**3 * dw) + np.exp(-p.n_exp * w) * w
        )
    return dyn_mass + reg_mass, dyn_energy + reg_energy, mac, edges


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
    """``paper_picard``'s symmetric approximate-Jacobian blocks (a11, a22) at
    the frozen state, whose edge data ``edges`` _residual has returned.

    The energy rows are rescaled by exp(-w), which makes the time-derivative
    entries h/tau rho and h/tau (1 + 15 rho / 4) of the two blocks positive.
    Flux blocks inherit positive semidefiniteness from the edge Onsager
    matrix. The approximations only shape the iteration; fixed points solve
    the exact residual.
    """
    n, h = grid.n_cells, grid.h
    rho, w = frozen_mac.rho, frozen.w
    m11, m12, m22, eneg, dphi, dw, _, theta_e = edges
    second, stiffness = _unit_bands(n, h)
    h_tau = h / p.tau

    a11 = np.zeros((3, n))
    a11[0] = h_tau * rho
    a11[:2] += _stiffness_bands(n, h, m11)
    if p.eps > 0.0:
        a11 += p.eps * second
    if p.delta > 0.0:
        a11[:2] += p.delta * stiffness
        a11[0] += p.delta * h

    a22 = np.zeros((3, n))
    a22[0] = h_tau * (1.0 + 3.75 * rho)
    a22[:2] += _stiffness_bands(n, h, m22 * eneg**2)
    if p.eps > 0.0:
        a22 += p.eps * second
        a22[:2] += p.eps * _stiffness_bands(n, h, theta_e * eneg * dw**2)
        a22[0] += p.eps * h * (1.0 + np.exp(-w))
    if p.delta > 0.0:
        a22[:2] += p.delta * _stiffness_bands(n, h, theta_e**3 * eneg)
        # d/dw of e^(-N w) w is e^(-N w) (1 - N w). Where w > 0 the factor
        # is floored at 1, which keeps the entry positive and the matrix SPD.
        a22[0] += (
            p.delta
            * h
            * np.exp(-(p.n_exp + 1.0) * w)
            * np.maximum(1.0, 1.0 - p.n_exp * w)
        )
    return a11, a22


# The coupled unknowns are interleaved as (phi_0, w_0, phi_1, w_1, ...). A
# residual reaches two cells away only through a second difference of one
# field (phi to phi, w to w), so the exact Jacobian has four bands either
# side of its diagonal.
_BANDS = 4


def _jacobian(
    grid: Grid1D, x: EntropicState, mac: MacroState, edges, p: SchemeParams
) -> np.ndarray:
    """The exact Jacobian of ``_residual`` at ``x`` over the interleaved
    unknowns, rows (r1_0, r2_0, r1_1, ...), in BandedLU's storage with
    kl = ku = _BANDS: a Fortran-ordered array that BandedLU factors in place.

    The gradient terms of both residuals are -div of the edge fluxes
        F_m = (m11 + delta) dphi + m12 g,
        F_e = m12 dphi + m22 g + eps theta_e dw^3 + delta theta_e^3 dw,
    with g = e^(-w_e) dw. A flux depends on its edge's differences (-1/h
    and 1/h per cell) and on the edge means rho_e, theta_e, e = e^(-w_e), of
    which cell c carries rho_c / 2 and 3 rho_c / 4 (by phi and w),
    theta_c / 2 and -e / 2 (by w). The divergence has zero quadrature at
    every state, so each column's flux entries sum to zero, which gives the
    diagonal. The other terms are the time derivatives
    (d rho = rho dphi + 3 rho / 2 dw, dE = 3 theta rho / 2 dphi +
    (E + 9 theta rho / 4) dw), eps L L phi, eps L(theta L w) with
    L = second_diff, and the zero-order terms.
    """
    n, h = grid.n_cells, grid.h
    rho, theta, w = mac.rho, mac.theta, x.w
    m11, m12, m22, eneg, dphi, dw, rho_e, theta_e = edges
    g = eneg * dw
    tg = theta_e * g
    # Over 2h, each flux's derivatives by rho_e (p*) and theta_e (q*) and
    # e times that by e (c*); over h^2, its factors of dphi and dw (k*).
    s = 0.5 / h
    pm = s * theta_e * (dphi + 2.5 * tg)
    qm = s * rho_e * (dphi + 5.0 * tg)
    cm = s * m12 * g
    theta_e2 = theta_e * theta_e
    pe = s * theta_e2 * (2.5 * dphi + 8.75 * tg)
    qe = s * (rho_e * theta_e * (5.0 * dphi + 26.25 * tg) + 2.0 * tg)
    ce = s * m22 * g
    hh = 1.0 / h**2
    kmp = hh * (m11 + p.delta)
    kmw = hh * m12 * eneg
    kep = hh * m12
    kew = hh * m22 * eneg
    if p.eps > 0.0:
        dw2 = dw * dw
        qe += (s * p.eps) * dw2 * dw
        kew += (3.0 * hh * p.eps) * theta_e * dw2
    if p.delta > 0.0:
        qe += (3.0 * s * p.delta) * theta_e2 * dw
        kew += (hh * p.delta) * theta_e2 * theta_e

    ab = np.zeros((2 * n, 3 * _BANDS + 1)).T

    def band(k, row, col):
        """View of the entries d r_row(i) / d x_col(i + k), over valid i."""
        return ab[
            2 * _BANDS + row - col - 2 * k,
            2 * max(k, 0) + col : 2 * (n + min(k, 0)) : 2,
        ]

    # -div F: row i holds -(dF_i/dx)/h and +(dF_(i-1)/dx)/h.
    rho_a, rho_b, theta_a, theta_b = rho[:-1], rho[1:], theta[:-1], theta[1:]
    vm_a, vm_b = 1.5 * pm * rho_a + qm * theta_a, 1.5 * pm * rho_b + qm * theta_b
    ve_a, ve_b = 1.5 * pe * rho_a + qe * theta_a, 1.5 * pe * rho_b + qe * theta_b
    for row, col, upper, lower in (
        (0, 0, -(pm * rho_b + kmp), pm * rho_a - kmp),
        (0, 1, (cm - kmw) - vm_b, vm_a - (cm + kmw)),
        (1, 0, -(pe * rho_b + kep), pe * rho_a - kep),
        (1, 1, (ce - kew) - ve_b, ve_a - (ce + kew)),
    ):
        band(1, row, col)[:] = upper
        band(-1, row, col)[:] = lower
        diag = band(0, row, col)
        np.negative(upper, out=diag[1:])
        diag[:-1] -= lower

    rho_tau = rho / p.tau
    band(0, 0, 0)[:] += rho_tau + p.delta
    band(0, 0, 1)[:] += 1.5 * rho_tau
    band(0, 1, 0)[:] += 1.5 * theta * rho_tau
    d_ww = band(0, 1, 1)
    d_ww += (mac.energy + 2.25 * theta * rho) / p.tau
    if p.eps > 0.0:
        # eps L L is the symmetric eps / h * second
        second = (p.eps / h) * _unit_bands(n, h)[0]
        band(0, 0, 0)[:] += second[0]
        for k in (1, 2):
            band(k, 0, 0)[:] += second[k, : n - k]
            band(-k, 0, 0)[:] += second[k, : n - k]
        # d/dw of L(theta L w) is L diag(theta) L + L diag(theta L w)
        ld = np.full(n, -2.0 * hh)
        ld[0] = ld[-1] = -hh
        ld_theta = ld * theta
        g_lw = theta * _second_diff(grid, x, "w")
        off = hh * (ld_theta[:-1] + ld_theta[1:])
        band(1, 1, 1)[:] += p.eps * (off + hh * g_lw[1:])
        band(-1, 1, 1)[:] += p.eps * (off + hh * g_lw[:-1])
        band(2, 1, 1)[:] += (p.eps * hh * hh) * theta[1:-1]
        band(-2, 1, 1)[:] += (p.eps * hh * hh) * theta[1:-1]
        d_ww += p.eps * (
            ld * (ld_theta + g_lw)
            + hh * (second_diff(grid, theta) - ld_theta)
            + 1.0
            + theta * (1.0 + w)
        )
    if p.delta > 0.0:
        d_ww += p.delta * np.exp(-p.n_exp * w) * (1.0 - p.n_exp * w)
    return ab


# ---------------------------------------------------------------------------
# fixed-point iterations
# ---------------------------------------------------------------------------


def _factor(
    grid: Grid1D, x: EntropicState, mac: MacroState, edges, p: SchemeParams
) -> Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Factor the linearization at ``x``; return the map from the residuals
    (r1, r2) of any iterate to the correction (dphi, dw).

    ``coupled_implicit`` factors the exact Jacobian (``_jacobian``), so the
    correction at ``x`` itself is Newton's. ``paper_picard`` factors its two
    SPD blocks; their energy rows' scaling exp(-w) is taken at ``x`` too, so
    a reused factor always solves with the right-hand side of its own matrix.
    """
    n, h = grid.n_cells, grid.h
    if p.inner_mode == "coupled_implicit":
        lu = BandedLU(_jacobian(grid, x, mac, edges, p), _BANDS, _BANDS)
        rhs = np.empty(2 * n)

        def solve(r1, r2):
            np.negative(r1, out=rhs[0::2])
            np.negative(r2, out=rhs[1::2])
            delta_x = lu.solve(rhs)
            return delta_x[0::2], delta_x[1::2]

    else:  # paper_picard: decoupled sweeps, cross fluxes explicit
        a11, a22 = _assemble_blocks(grid, x, mac, edges, p)
        scale_e = -h * np.exp(-x.w)
        chol_phi = BandedCholesky(BandedSymmetricMatrix(n=n, bandwidth=2, bands=a11))
        chol_w = BandedCholesky(BandedSymmetricMatrix(n=n, bandwidth=2, bands=a22))

        def solve(r1, r2):
            return chol_phi.solve(-h * r1), chol_w.solve(scale_e * r2)

    return solve


# A diverging iterate may overflow on its way to a non-finite residual or
# correction, which the loop itself detects and reports as _NotConverged.
@np.errstate(over="ignore", invalid="ignore")
def _converge(
    grid: Grid1D,
    prev: EntropicState,
    start: EntropicState,
    p: SchemeParams,
    t_new: float,
    newton: bool = False,
) -> Tuple[EntropicState, List[float]]:
    """Iterate from ``start`` until the estimated error of an iterate is at
    most fp_tol.

    With u_k = max|(dphi, dw)| of the correction that produced iterate k and
    the contraction rate theta_k = u_k / u_(k-1), the error of iterate k is
    estimated by u_k theta_k / (1 - theta_k) when theta_k < 1/2, and by u_k
    otherwise (also for the first correction, which has no rate). The
    iterate is accepted once its estimate is at most fp_tol and
    tau * h * |sum r| of both its residuals, exactly the budget-identity
    error with no-flux walls, is at most _BUDGET_GUARD; a zero residual is
    accepted without a solve. No acceptance within fp_max_iter residual
    evaluations, or a non-finite residual or correction, raises
    _NotConverged so the caller backs off. Returns the accepted iterate and
    max|r| of every iterate, its own last.

    Chord iteration: the linearization is factored at ``start`` (see
    ``_factor``) and every later iterate reuses it. For ``coupled_implicit``
    it is the exact Jacobian, so the first correction is Newton's and the
    chord converges superlinearly from a close start. It is refactored at
    iterate k only when theta_k >= 1/2, the rate from which the error
    estimate no longer discounts u_k. With ``newton`` it is refactored at
    every iterate instead, and a correction larger than _LAST_RUNG_UPDATE
    is scaled down to it.
    """
    h = grid.h
    prev_mac = to_primitive(prev)
    x = start
    history: List[float] = []
    update = error = math.inf
    rate = math.nan  # no rate yet; NaN compares false below
    solve = None
    for _ in range(p.fp_max_iter):
        r1, r2, mac, edges = _residual(grid, prev_mac, x, p, t_new)
        res = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
        history.append(res)
        if not math.isfinite(res):
            raise _NotConverged(res)
        if error <= p.fp_tol or res == 0.0:
            if p.tau * h * max(abs(r1.sum()), abs(r2.sum())) <= _BUDGET_GUARD:
                return x, history

        if solve is None or rate >= 0.5 or newton:
            solve = _factor(grid, x, mac, edges, p)
        dphi, dw = solve(r1, r2)
        last, update = update, max(float(np.abs(dphi).max()), float(np.abs(dw).max()))
        if newton and update > _LAST_RUNG_UPDATE:
            scale = _LAST_RUNG_UPDATE / update
            dphi, dw, update = dphi * scale, dw * scale, _LAST_RUNG_UPDATE
        _drop_arrays(grid, x)
        try:
            x = EntropicState(phi=x.phi + dphi, w=x.w + dw)
        except ValueError:  # a non-finite correction
            raise _NotConverged(res) from None
        rate = update / last if 0.0 < last < math.inf else math.nan
        error = update * rate / (1.0 - rate) if rate < 0.5 else update
    raise _NotConverged(history[-1])


def fixed_point_step(
    grid: Grid1D,
    prev: EntropicState,
    start: EntropicState,
    p: SchemeParams,
    t_new: float,
) -> Tuple[EntropicState, List[float]]:
    """Solve one implicit step of size p.tau from ``prev``, ending at t_new.

    Two attempts of ``_converge``, which states the stopping rule: the chord
    iteration from ``start``, and if it fails numerically, Newton iteration
    from ``prev`` with each correction capped at _LAST_RUNG_UPDATE. Returns
    the accepted state and the residual history of the attempt that
    converged. Non-convergence, blow-up of the chart values and a non-SPD or
    singular linear system of both attempts raise _NotConverged, with the
    last residual of the later attempt that reached one; any other error
    propagates.
    """
    residual = None
    for x0, newton in ((start, False), (prev, True)):
        try:
            return _converge(grid, prev, x0, p, t_new, newton=newton)
        except _NotConverged as exc:
            residual = exc.residual
        except (BlowupError, NotSPDError, SingularMatrixError):
            pass
    raise _NotConverged(residual)


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
    return MacroState(rho0, theta0)


def step_count(t_final: float, tau: float) -> int:
    """Number of steps of size tau that reach t_final; ValueError unless integral."""
    ratio = t_final / tau
    n_steps = round(ratio)
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, n_steps):
        raise ValueError(f"t_final/tau = {ratio} is not an integer")
    return n_steps


def run_transient(grid: Grid1D, init: MacroState, p: SchemeParams) -> Trajectory:
    """March to t_final in steps of tau, auditing every accepted attempt.

    This loop alone chooses the tau of each attempt, which fixed_point_step
    solves. Step k first attempts its whole tau. A failed attempt halves
    tau; an accepted attempt that falls short of times[k] = k tau is
    followed by an attempt at what remains, so the states still sit at
    times[k]. The halving count restarts after each accepted attempt. A
    failed attempt after p.tau_backoff_limit halvings in a row, or one whose
    halving would underflow tau to zero, ends the run with StepFailureError
    naming step k's interval.

    An attempt after an accepted one starts from the linear extrapolation
    prev + (tau / tau_prev) (prev - older) of the last two accepted states
    when it is finite (any chart values are admissible, since rho and theta
    stay positive). The first attempt, an attempt after a halving and one
    whose extrapolation is not finite start from ``prev``.

    Each attempt ends at its time t, counted from times[k - 1], or at
    times[k] exactly for the attempt that completes step k. The sources and
    the budget audit are evaluated at t, and an accepted attempt's report
    has step k and that t.
    """
    n_steps = step_count(p.t_final, p.tau)
    times = p.tau * np.arange(n_steps + 1)
    state = to_entropic(init.rho, init.theta)
    states = [state]
    reports: List[StepReport] = []
    older: Optional[EntropicState] = None
    tau_prev = p.tau
    for k in range(1, n_steps + 1):
        t_start, remaining, halvings = float(times[k - 1]), p.tau, 0
        while remaining > 1e-12 * p.tau:
            if halvings == 0:
                tau, start, last_residual = min(p.tau, remaining), state, math.inf
                if older is not None:
                    ratio = tau / tau_prev  # may overflow after many halvings
                    with np.errstate(over="ignore", invalid="ignore"):
                        phi = state.phi + ratio * (state.phi - older.phi)
                        w = state.w + ratio * (state.w - older.w)
                    if np.isfinite(phi).all() and np.isfinite(w).all():
                        start = EntropicState(phi=phi, w=w)
            p_try = replace(p, tau=tau)
            done = remaining - tau <= 1e-12 * p.tau
            t_new = float(times[k]) if done else t_start + tau
            try:
                nxt, history = fixed_point_step(grid, state, start, p_try, t_new)
            except _NotConverged as exc:
                if exc.residual is not None:
                    last_residual = exc.residual
                if tau * 0.5 == 0.0 or halvings == p.tau_backoff_limit:
                    raise StepFailureError(
                        f"step {k} (t in [{times[k - 1]:.6g}, {times[k]:.6g}]): "
                        f"fixed point failed after {halvings} tau halvings "
                        f"(last residual {last_residual:.3e})"
                    ) from exc
                tau, start, halvings = 0.5 * tau, state, halvings + 1
                continue
            reports.append(
                StepReport(
                    step=k,
                    t=t_new,
                    iterations=len(history),
                    residual=history[-1],
                    tau_used=tau,
                    budget=budget_audit(grid, state, nxt, p_try, t_new),
                    entropy=entropy_audit(grid, state, nxt, p_try),
                )
            )
            older, state, tau_prev = state, nxt, tau
            t_start, remaining, halvings = t_start + tau, remaining - tau, 0
        states.append(state)
    return Trajectory(times=times, states=states, reports=reports)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def lyapunov_functional(grid: Grid1D, state: EntropicState) -> float:
    """H = integral of (entropy_tilde + E); nonincreasing up to the delta slack.

    Memoized on the state (thermo.grid_memo): the entropy audits of two
    steps and the writer read the H of one state.
    """
    memo = grid_memo(state, grid)
    entropy = memo.get("H")
    if entropy is None:
        mac = to_primitive(state)
        entropy = memo["H"] = integrate(grid, entropy_tilde(mac.rho, mac.energy) + mac.energy)
    return entropy


def budget_audit(
    grid: Grid1D,
    prev: EntropicState,
    nxt: EntropicState,
    p: SchemeParams,
    t_new: float,
) -> Dict[str, Any]:
    """Check the two exact step identities obtained from constant test functions.

    mass(next) - mass(prev)   = -tau * delta * integral(phi)
    energy(next) - energy(prev) = -tau * (eps * integral((1+theta) w)
                                          + delta * integral(theta^{-N} w))

    Manufactured source terms, when configured, are added to the right-hand
    sides at the step's end time t_new. A violation beyond BUDGET_TOL means
    the assembly broke summation by parts. Returns the ``mass_*`` and
    ``energy_*`` fields of an audits.json record.
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
    if p.source_mass is not None:
        mass_rhs += p.tau * integrate(grid, p.source_mass(grid.cell_centers, t_new))
    if p.source_energy is not None:
        energy_rhs += p.tau * integrate(grid, p.source_energy(grid.cell_centers, t_new))

    mass_lhs = mass_next - mass_prev
    energy_lhs = energy_next - energy_prev
    mass_error = abs(mass_lhs - mass_rhs)
    energy_error = abs(energy_lhs - energy_rhs)
    return {
        "mass_lhs": mass_lhs,
        "mass_rhs": mass_rhs,
        "mass_error": mass_error,
        "mass_pass": mass_error <= BUDGET_TOL * (1.0 + abs(mass_lhs)),
        "energy_lhs": energy_lhs,
        "energy_rhs": energy_rhs,
        "energy_error": energy_error,
        "energy_pass": energy_error <= BUDGET_TOL * (1.0 + abs(energy_lhs)),
    }


# The terms of dissipation_terms that are a-priori-estimate quantities. The
# edge form bounds each of them, so a total of the entropy production leaves
# them out rather than count that dissipation twice.
ESTIMATE_TERMS = ("grad_log_theta_sq", "theta_grad_sqrt_rho_sq", "grad_sqrt_rho_theta_sq")


def dissipation_terms(
    grid: Grid1D, state: EntropicState, p: SchemeParams
) -> Tuple[Dict[str, float], float]:
    """Entropy-production quadratures evaluated at a state.

    Returns the named terms (the edge form, the ESTIMATE_TERMS and the eps
    and delta terms in use) and the per-edge minimum of the symmetric
    Onsager edge form, which is nonnegative by positive semidefiniteness of
    the 2x2 edge matrices.
    """
    mac = to_primitive(state)
    rho, theta, w, phi = mac.rho, mac.theta, state.w, state.phi
    h = grid.h
    m11, m12, m22, eneg, dphi, dw, rho_e, theta_e = _edge_data(grid, state)

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
        lphi = _second_diff(grid, state, "phi")
        lw = _second_diff(grid, state, "w")
        terms["eps_hess_phi_sq"] = p.eps * h * float((lphi**2).sum())
        terms["eps_w_terms"] = (
            0.5
            * p.eps
            * (
                h * float((lw**2).sum())
                + h * float(np.square(dw * dw).sum())  # not dw**4: slow pow
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
    return terms, float(edge_form.min())


def entropy_audit(
    grid: Grid1D, prev: EntropicState, nxt: EntropicState, p: SchemeParams
) -> Dict[str, Any]:
    """Assert H(next) <= H(prev) + tau * delta * e^{2(N+1)} |Omega| + tolerance,
    the tolerance ENTROPY_TOL * (1 + |H(prev)|).

    The slack is the explicit bound on the sign-indefinite part of the
    zero-order delta term; with eps = 0 every remaining contribution is
    signed pointwise, so violations beyond roundoff indicate a broken step.
    Returns the audits.json fields ``entropy_before``/``after``/``slack``/
    ``violation``/``pass``, ``edge_form_min`` and ``dissipation``. Drops
    the arrays memoized on ``nxt``, of which it is the last reader.
    """
    h_prev = lyapunov_functional(grid, prev)
    h_next = lyapunov_functional(grid, nxt)
    slack = p.tau * p.delta * np.exp(2.0 * (p.n_exp + 1.0)) * grid.length
    violation = h_next - h_prev - slack
    terms, edge_min = dissipation_terms(grid, nxt, p)
    _drop_arrays(grid, nxt)
    return {
        "entropy_before": h_prev,
        "entropy_after": h_next,
        "entropy_slack": slack,
        "entropy_violation": violation,
        "entropy_pass": violation <= ENTROPY_TOL * (1.0 + abs(h_prev)),
        "edge_form_min": edge_min,
        "dissipation": terms,
    }
