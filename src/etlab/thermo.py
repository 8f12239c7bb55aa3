"""Closed-form thermodynamics of the density/temperature system.

The monatomic closure E = (1 + 3 rho / 2) theta is hard-coded throughout.
States are carried in the entropic chart (phi, w): the thermo-chemical
potential phi and w = log theta. Density and temperature are derived views

    rho = exp(phi + 3 w / 2 - 5/2),    theta = exp(w),

so both stay strictly positive for any finite chart values. The entropy and
the Onsager matrix are the standard closed forms for this closure; the
Maxwellian and its moment checks live in etlab.kinetic, on the solver's
velocity quadrature.

An EntropicState is immutable and carries two memos: its primitive view
(to_primitive), and grid_memo, the values that functions of a grid and the
state derive on one grid. etlab.scheme keeps there the state's entropy H,
kept for the state's life, and its edge data and second differences, which
it drops once nothing reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .grid import Grid1D, grad_edge

# Chart values beyond this cap signal solver blow-up; fail loudly instead of
# letting exp() return Inf.
EXP_CAP = 300.0

# exp() overflows float64 slightly above this exponent.
_EXP_OVERFLOW = 700.0


class BlowupError(RuntimeError):
    """Entropic chart values too large to exponentiate; names the cell."""


def _frozen(a) -> np.ndarray:
    """A read-only float copy of a, at least one-dimensional."""
    out = np.array(a, dtype=float, ndmin=1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class EntropicState:
    """Nodal entropic variables (phi, w); the scheme's unknowns.

    The state is immutable: it holds read-only copies of its arrays, so
    what is memoized on it cannot go stale. to_primitive memoizes the
    primitive view; grid_memo holds what functions of a grid and the state
    derive on one grid.
    """

    phi: np.ndarray
    w: np.ndarray
    _primitive: Optional["MacroState"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _grid_memo: Optional[Tuple[Grid1D, Dict[str, Any]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        phi, w = _frozen(self.phi), _frozen(self.w)
        if phi.shape != w.shape:
            raise ValueError(f"phi shape {phi.shape} != w shape {w.shape}")
        if not (np.isfinite(phi).all() and np.isfinite(w).all()):
            raise ValueError("entropic state entries must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class MacroState:
    """Nodal primitive fields (rho, theta, E = theta (1 + 3 rho / 2)); the
    observable output. E is derived, never given.

    Immutable, with read-only copies of its arrays like EntropicState.
    """

    rho: np.ndarray
    theta: np.ndarray
    energy: np.ndarray = field(init=False)

    def __post_init__(self):
        rho, theta = _frozen(self.rho), _frozen(self.theta)
        if not ((rho > 0.0).all() and (theta > 0.0).all()):
            raise ValueError("rho and theta must be strictly positive")
        energy = theta * (1.0 + 1.5 * rho)
        energy.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "energy", energy)


@dataclass
class OnsagerMatrix:
    """Symmetric 2x2 mobility per evaluation point (entries vectorized)."""

    m11: np.ndarray
    m12: np.ndarray
    m22: np.ndarray

    def determinant(self) -> np.ndarray:
        return self.m11 * self.m22 - self.m12 * self.m12

    def min_eigenvalue(self) -> np.ndarray:
        tr = self.m11 + self.m22
        disc = np.sqrt(np.maximum((self.m11 - self.m22) ** 2 + 4.0 * self.m12**2, 0.0))
        return 0.5 * (tr - disc)


def _require_positive(name: str, value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if (value <= 0.0).any() or not np.isfinite(value).all():
        raise ValueError(f"{name} must be strictly positive and finite")
    return value


def to_primitive(state: EntropicState) -> MacroState:
    """Evaluate (rho, theta, E) from the entropic chart.

    Raises BlowupError naming the offending cell when the chart values
    exceed EXP_CAP or the density exponent would overflow or underflow.
    The result is memoized on the (immutable) state, so the checks run once
    per state.
    """
    if state._primitive is not None:
        return state._primitive
    phi, w = state.phi, state.w
    # The checks reduce first and build their per-cell arrays only to name
    # the cell; the entries are finite, so the two tests agree.
    w_max = w.max()
    if max(phi.max(), -phi.min(), w_max, -w.min()) > EXP_CAP:
        cell = int(np.argmax((np.abs(phi) > EXP_CAP) | (np.abs(w) > EXP_CAP)))
        raise BlowupError(
            f"entropic state out of range at cell {cell}: "
            f"phi={phi[cell]:.6g}, w={w[cell]:.6g} (cap {EXP_CAP:g})"
        )
    expo = phi + 1.5 * w - 2.5
    # The energy product theta * (1 + 1.5 rho) peaks near exp(expo + w).
    # Rounding is monotone, so adding 1 after the max is adding it before.
    if max(expo.max(), w_max, (expo + w).max() + 1.0) > _EXP_OVERFLOW:
        largest = np.maximum(expo, np.maximum(w, expo + w + 1.0))
        cell = int(np.argmax(largest))
        raise BlowupError(
            f"state exponent overflows at cell {cell}: exp({largest[cell]:.6g})"
        )
    if expo.min() < -_EXP_OVERFLOW:
        cell = int(np.argmin(expo))
        raise BlowupError(
            f"density exponent underflows at cell {cell}: exp({expo[cell]:.6g})"
        )
    rho = np.exp(expo)
    theta = np.exp(w)
    mac = MacroState(rho, theta)
    object.__setattr__(state, "_primitive", mac)
    return mac


def grid_memo(state: EntropicState, grid: Grid1D) -> Dict[str, Any]:
    """The memo of the values derived from ``state`` on ``grid``, by name.

    It belongs to one grid object: asked with another, it starts empty, so
    a value derived on one grid is never returned for another.
    """
    memo = state._grid_memo
    if memo is None or memo[0] is not grid:
        memo = (grid, {})
        object.__setattr__(state, "_grid_memo", memo)
    return memo[1]


def to_entropic(rho, theta) -> EntropicState:
    """Invert the chart: phi = log(rho / theta^{3/2}) + 5/2, w = log theta."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    w = np.log(theta)
    phi = np.log(rho) - 1.5 * w + 2.5
    return EntropicState(phi=phi, w=w)


def entropy_tilde(rho, energy):
    """Entropy as a convex function of (rho, E).

    Equal to rho log(rho / theta^{3/2}) - log theta at
    theta = E / (1 + 3 rho / 2); written directly in (rho, E) so its Hessian
    is the one used by the convexity estimates.
    """
    rho = _require_positive("rho", rho)
    energy = _require_positive("energy", energy)
    gamma = 1.0 + 1.5 * rho
    return rho * np.log(rho) - gamma * np.log(energy / gamma)


def _mobility(rho, theta) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Onsager entries (m11, m12, m22) at (rho, theta), unchecked."""
    theta_sq = theta**2
    return rho * theta, 2.5 * rho * theta_sq, theta_sq * (1.0 + 8.75 * rho * theta)


def onsager(rho, theta) -> OnsagerMatrix:
    """Mobility matrix; positive semidefinite on the closed positive quadrant."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(rho < 0.0) or np.any(theta < 0.0):
        raise ValueError("onsager requires rho >= 0 and theta >= 0")
    return OnsagerMatrix(*_mobility(rho, theta))


def hessian_htilde(rho: float, energy: float) -> Tuple[np.ndarray, float]:
    """Hessian of entropy_tilde at a point and its determinant (1 + 3 rho/2)/(rho E^2)."""
    rho = float(_require_positive("rho", rho))
    energy = float(_require_positive("energy", energy))
    gamma = 1.0 + 1.5 * rho
    matrix = np.array(
        [
            [1.0 / rho + 2.25 / gamma, -1.5 / energy],
            [-1.5 / energy, gamma / energy**2],
        ]
    )
    det = gamma / (rho * energy**2)
    return matrix, det


def edge_mean(a: np.ndarray) -> np.ndarray:
    """Edge value of a nodal quantity: the arithmetic mean of its two cells."""
    return 0.5 * (a[:-1] + a[1:])


def onsager_edge(rho: np.ndarray, theta: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Onsager entries and e^{-w} at edges from averaged nodal rho, theta, w:
    (m11, m12, m22, e^{-w_e}, rho_e, theta_e), the last two the edge means
    the entries are evaluated at.

    Averaging the primitives before evaluating the entries keeps the 2x2
    edge matrix [[m11, m12 e], [m12 e, m22 e^2]] positive semidefinite for
    any positive edge value e of exp(-w).
    """
    rho_e, theta_e = edge_mean(rho), edge_mean(theta)
    return (*_mobility(rho_e, theta_e), np.exp(-edge_mean(w)), rho_e, theta_e)


def flux_consistency(grid: Grid1D, state: EntropicState) -> Tuple[float, float]:
    """Sup-norm gap between Onsager-form and conservative-form edge fluxes.

    The two forms agree in the continuum; on a grid the difference is a
    second-order consistency residual. Returned for diagnosis, never fatal.
    """
    mac = to_primitive(state)
    m11, m12, m22, eneg, _, _ = onsager_edge(mac.rho, mac.theta, state.w)
    dphi = grad_edge(grid, state.phi)
    dw = grad_edge(grid, state.w)
    flux_mass = m11 * dphi + m12 * eneg * dw
    flux_energy = m12 * dphi + m22 * eneg * dw
    cons_mass = grad_edge(grid, mac.rho * mac.theta)
    cons_energy = grad_edge(grid, mac.theta + 2.5 * mac.rho * mac.theta**2)
    res_mass = float(np.max(np.abs(flux_mass - cons_mass)))
    res_energy = float(np.max(np.abs(flux_energy - cons_energy)))
    return res_mass, res_energy
