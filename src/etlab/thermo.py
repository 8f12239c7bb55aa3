"""Closed-form thermodynamics of the density/temperature system.

The monatomic closure E = (1 + 3 rho / 2) theta is hard-coded throughout.
States are carried in the entropic chart (phi, w): the thermo-chemical
potential phi and w = log theta. Density and temperature are derived views

    rho = exp(phi + 3 w / 2 - 5/2),    theta = exp(w),

so both stay strictly positive for any finite chart values. The Gibbs
energy, entropy, potentials, Onsager matrix and Maxwellian moments are the
standard closed forms for this closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .grid import Grid1D, grad_edge

# Chart values beyond this cap signal solver blow-up; fail loudly instead of
# letting exp() return Inf.
DEFAULT_EXP_CAP = 300.0

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

    The state is immutable: it holds read-only copies of its arrays, so the
    primitive view that to_primitive memoizes on it cannot go stale.
    """

    phi: np.ndarray
    w: np.ndarray
    _primitive: Optional["MacroState"] = field(
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
    """Nodal primitive fields (rho, theta, E); the observable output.

    Immutable, with read-only copies of its arrays like EntropicState.
    """

    rho: np.ndarray
    theta: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        rho, theta, energy = _frozen(self.rho), _frozen(self.theta), _frozen(self.energy)
        if not ((rho > 0.0).all() and (theta > 0.0).all()):
            raise ValueError("rho and theta must be strictly positive")
        expected = theta * (1.0 + 1.5 * rho)
        if (np.abs(energy - expected) / np.abs(expected)).max() > 1e-14:
            raise ValueError("energy inconsistent with theta * (1 + 1.5 rho)")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "energy", energy)

    @classmethod
    def from_rho_theta(cls, rho, theta) -> "MacroState":
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return cls(rho=rho, theta=theta, energy=theta * (1.0 + 1.5 * rho))


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


def to_primitive(state: EntropicState, cap: float = DEFAULT_EXP_CAP) -> MacroState:
    """Evaluate (rho, theta, E) from the entropic chart.

    Raises BlowupError naming the offending cell when the chart values
    exceed the cap or the density exponent would overflow or underflow.
    The result at the default cap is memoized on the (immutable) state, so
    the checks run once per state; any other cap bypasses the memo.
    """
    memoize = cap == DEFAULT_EXP_CAP
    if memoize and state._primitive is not None:
        return state._primitive
    phi, w = state.phi, state.w
    bad = (np.abs(phi) > cap) | (np.abs(w) > cap)
    if bad.any():
        cell = int(np.argmax(bad))
        raise BlowupError(
            f"entropic state out of range at cell {cell}: "
            f"phi={phi[cell]:.6g}, w={w[cell]:.6g} (cap {cap:g})"
        )
    expo = phi + 1.5 * w - 2.5
    # the energy product theta * (1 + 1.5 rho) peaks near exp(expo + w)
    largest = np.maximum(expo, np.maximum(w, expo + w + 1.0))
    if (largest > _EXP_OVERFLOW).any():
        cell = int(np.argmax(largest))
        raise BlowupError(
            f"state exponent overflows at cell {cell}: exp({largest[cell]:.6g})"
        )
    if (expo < -_EXP_OVERFLOW).any():
        cell = int(np.argmin(expo))
        raise BlowupError(
            f"density exponent underflows at cell {cell}: exp({expo[cell]:.6g})"
        )
    rho = np.exp(expo)
    theta = np.exp(w)
    mac = MacroState(rho=rho, theta=theta, energy=theta * (1.0 + 1.5 * rho))
    if memoize:
        object.__setattr__(state, "_primitive", mac)
    return mac


def to_entropic(rho, theta) -> EntropicState:
    """Invert the chart: phi = log(rho / theta^{3/2}) + 5/2, w = log theta."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    w = np.log(theta)
    phi = np.log(rho) - 1.5 * w + 2.5
    return EntropicState(phi=phi, w=w)


def entropy_density(rho, theta):
    """Pointwise entropy rho * log(rho / theta^{3/2}) - log theta."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    log_theta = np.log(theta)
    return rho * (np.log(rho) - 1.5 * log_theta) - log_theta


def entropy_tilde(rho, energy):
    """Entropy as a convex function of (rho, E).

    Equal to entropy_density(rho, E / (1 + 3 rho / 2)); written directly in
    (rho, E) so its Hessian is the one used by the convexity estimates.
    """
    rho = _require_positive("rho", rho)
    energy = _require_positive("energy", energy)
    gamma = 1.0 + 1.5 * rho
    return rho * np.log(rho) - gamma * np.log(energy / gamma)


def gibbs(rho, theta):
    """Gibbs free energy rho theta log(rho/theta^{3/2}) + 3 rho theta / 2 - theta (log theta - 1)."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    log_theta = np.log(theta)
    return (
        rho * theta * (np.log(rho) - 1.5 * log_theta)
        + 1.5 * rho * theta
        - theta * (log_theta - 1.0)
    )


def potentials(rho, theta) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chemical potential mu, thermo-chemical potential phi = mu/theta, and -1/theta."""
    rho = _require_positive("rho", rho)
    theta = _require_positive("theta", theta)
    phi = np.log(rho) - 1.5 * np.log(theta) + 2.5
    mu = theta * phi
    return mu, phi, -1.0 / theta


def onsager(rho, theta) -> OnsagerMatrix:
    """Mobility matrix; positive semidefinite on the closed positive quadrant."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(rho < 0.0) or np.any(theta < 0.0):
        raise ValueError("onsager requires rho >= 0 and theta >= 0")
    m11 = rho * theta
    m12 = 2.5 * rho * theta**2
    m22 = theta**2 * (1.0 + 8.75 * rho * theta)
    return OnsagerMatrix(m11=m11, m12=m12, m22=m22)


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


def maxwellian_3d(theta: float, v) -> float:
    """Isotropic Gaussian (2 pi theta)^{-3/2} exp(-|v|^2 / (2 theta))."""
    theta = float(_require_positive("theta", theta))
    v = np.asarray(v, dtype=float)
    return float((2.0 * np.pi * theta) ** -1.5 * np.exp(-np.dot(v, v) / (2.0 * theta)))


@dataclass
class MomentCheckReport:
    """Quadrature errors of the Maxwellian moment identities up to order 4."""

    errors: Dict[str, float]
    max_error: float
    box_adequate: bool
    half_width: float
    n_nodes: int


def maxwellian_moments_check(
    theta: float, half_width: float | None = None, n_nodes: int = 64
) -> MomentCheckReport:
    """Verify the Maxwellian moment identities on a tensor trapezoid box.

    Checks integral M = 1, odd moments = 0, second moments theta * delta_ij,
    and fourth moments 5 theta^2 * delta_ij. The 3D tensor quadrature
    factorizes into 1D sums, which is what gets evaluated. A box narrower
    than 8 sqrt(theta) per axis is flagged as inadequate.
    """
    theta = float(_require_positive("theta", theta))
    adequate_width = 8.0 * np.sqrt(theta)
    if half_width is None:
        half_width = adequate_width
    v = np.linspace(-half_width, half_width, n_nodes)
    wq = np.full(n_nodes, v[1] - v[0])
    wq[0] *= 0.5
    wq[-1] *= 0.5
    m1 = (2.0 * np.pi * theta) ** -0.5 * np.exp(-(v**2) / (2.0 * theta))
    s = [float(np.sum(wq * v**k * m1)) for k in range(5)]

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
        half_width=half_width,
        n_nodes=n_nodes,
    )


def edge_mean(a: np.ndarray) -> np.ndarray:
    """Edge value of a nodal quantity: the arithmetic mean of its two cells."""
    return 0.5 * (a[:-1] + a[1:])


def onsager_edge(
    rho: np.ndarray, theta: np.ndarray, w: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Onsager entries and e^{-w} at edges from averaged nodal rho, theta, w.

    Averaging the primitives before evaluating the entries keeps the 2x2
    edge matrix [[m11, m12 e], [m12 e, m22 e^2]] positive semidefinite for
    any positive edge value e of exp(-w).
    """
    rho_e = edge_mean(rho)
    theta_e = edge_mean(theta)
    w_e = edge_mean(w)
    m11 = rho_e * theta_e
    m12 = 2.5 * rho_e * theta_e**2
    m22 = theta_e**2 * (1.0 + 8.75 * rho_e * theta_e)
    return m11, m12, m22, np.exp(-w_e)


def flux_consistency(grid: Grid1D, state: EntropicState) -> Tuple[float, float]:
    """Sup-norm gap between Onsager-form and conservative-form edge fluxes.

    The two forms agree in the continuum; on a grid the difference is a
    second-order consistency residual. Returned for diagnosis, never fatal.
    """
    mac = to_primitive(state)
    m11, m12, m22, eneg = onsager_edge(mac.rho, mac.theta, state.w)
    dphi = grad_edge(grid, state.phi)
    dw = grad_edge(grid, state.w)
    flux_mass = m11 * dphi + m12 * eneg * dw
    flux_energy = m12 * dphi + m22 * eneg * dw
    cons_mass = grad_edge(grid, mac.rho * mac.theta)
    cons_energy = grad_edge(grid, mac.theta + 2.5 * mac.rho * mac.theta**2)
    res_mass = float(np.max(np.abs(flux_mass - cons_mass))) if flux_mass.size else 0.0
    res_energy = (
        float(np.max(np.abs(flux_energy - cons_energy))) if flux_energy.size else 0.0
    )
    return res_mass, res_energy
