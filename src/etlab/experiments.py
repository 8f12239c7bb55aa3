"""Reproducible experiment drivers.

Regularization-limit studies measure Cauchy-style self-convergence (errors
against the run with the smallest parameter value), since the continuous
system has no closed-form solutions. Manufactured-solution studies measure
discretization orders against exact fields with analytically derived source
terms. The kinetic study compares BGK moments against the unregularized
macroscopic solver over a Knudsen-number sweep.

Every study is deterministic given its inputs: fixed iteration orders, no
hidden randomness.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grid import Grid1D, build_grid, integrate
from .kinetic import build_velocity_grid, limit_compare, run_kinetic
from .scheme import SchemeParams, Trajectory, make_initial_state, run_transient
from .thermo import MacroState, to_primitive

CSV_HEADER = ["param", "err_rho_L1", "err_E_L1", "order_rho", "order_E"]

PRESET_NAMES = ("equilibrium", "gauss-bump", "temp-step")


def initial_condition(name: str, grid: Grid1D) -> Tuple[np.ndarray, np.ndarray]:
    """Named initial fields (rho0, theta0), all compatible with no-flux walls."""
    x = grid.cell_centers
    mid = 0.5 * grid.length
    if name == "equilibrium":
        return np.ones(grid.n_cells), np.ones(grid.n_cells)
    if name == "gauss-bump":
        return 0.2 + np.exp(-50.0 * (x - mid) ** 2), np.ones(grid.n_cells)
    if name == "temp-step":
        width = 0.1 * grid.length
        theta = 0.5 + 0.25 * (1.0 + np.tanh((x - mid) / width))
        return np.ones(grid.n_cells), theta
    raise ValueError(f"unknown initial-condition preset {name!r}")


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------


@dataclass
class TableRow:
    param: float
    err_rho: float
    err_energy: float
    order_rho: float  # nan in the first row
    order_energy: float


@dataclass
class ConvergenceTable:
    """Rows of (parameter value, L1 errors, observed orders between rows)."""

    rows: List[TableRow] = field(default_factory=list)

    @classmethod
    def from_errors(
        cls, params: Sequence[float], err_rho: Sequence[float], err_energy: Sequence[float]
    ) -> "ConvergenceTable":
        rows = []
        for i, (p_val, er, ee) in enumerate(zip(params, err_rho, err_energy)):
            if i == 0:
                o_r = o_e = math.nan
            else:
                # log2(e_coarse/e_fine) when the parameter halves; the same
                # slope formula covers non-dyadic sweeps.
                denom = math.log(params[i - 1] / p_val)
                o_r = _safe_order(err_rho[i - 1], er, denom)
                o_e = _safe_order(err_energy[i - 1], ee, denom)
            rows.append(TableRow(float(p_val), float(er), float(ee), o_r, o_e))
        return cls(rows=rows)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow(
                    [
                        _fmt(r.param),
                        _fmt(r.err_rho),
                        _fmt(r.err_energy),
                        _fmt(r.order_rho),
                        _fmt(r.order_energy),
                    ]
                )

    @classmethod
    def read_csv(cls, path) -> "ConvergenceTable":
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected table header {header}")
            rows = [TableRow(*(float(v) for v in line)) for line in reader]
        return cls(rows=rows)

    def equals(self, other: "ConvergenceTable") -> bool:
        if len(self.rows) != len(other.rows):
            return False
        for a, b in zip(self.rows, other.rows):
            for fa, fb in zip(
                (a.param, a.err_rho, a.err_energy, a.order_rho, a.order_energy),
                (b.param, b.err_rho, b.err_energy, b.order_rho, b.order_energy),
            ):
                if math.isnan(fa) and math.isnan(fb):
                    continue
                if fa != fb:
                    return False
        return True


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _safe_order(e_coarse: float, e_fine: float, denom: float) -> float:
    if e_coarse <= 0.0 or e_fine <= 0.0 or denom == 0.0:
        return math.nan
    return math.log(e_coarse / e_fine) / denom


def _l1_errors(
    grid: Grid1D, a: MacroState, rho_ref: np.ndarray, energy_ref: np.ndarray
) -> Tuple[float, float]:
    return (
        integrate(grid, np.abs(a.rho - rho_ref)),
        integrate(grid, np.abs(a.energy - energy_ref)),
    )


# ---------------------------------------------------------------------------
# regularization limits
# ---------------------------------------------------------------------------


@dataclass
class StudyResult:
    table: ConvergenceTable
    mass_drift: Dict[float, float]
    energy_drift: Dict[float, float]
    trajectories: Dict[float, Trajectory]


def regularization_study(
    grid: Grid1D,
    init: MacroState,
    p: SchemeParams,
    which: str,
    values: Sequence[float],
) -> StudyResult:
    """Self-convergence under one shrinking regularization parameter.

    Runs the transient per value and measures L1 gaps of (rho, E) at t_final
    against the smallest-value run; also records the total mass and energy
    drifts of every run.
    """
    if which not in ("eps", "delta", "tau"):
        raise ValueError(f"regularization parameter must be eps/delta/tau, got {which!r}")
    values = [float(v) for v in values]
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("values must be strictly decreasing")

    runs: Dict[float, Trajectory] = {}
    mass_drift: Dict[float, float] = {}
    energy_drift: Dict[float, float] = {}
    for v in values:
        traj = run_transient(grid, init, replace(p, **{which: v}))
        runs[v] = traj
        first = to_primitive(traj.states[0])
        last = to_primitive(traj.states[-1])
        mass_drift[v] = abs(integrate(grid, last.rho) - integrate(grid, first.rho))
        energy_drift[v] = abs(
            integrate(grid, last.energy) - integrate(grid, first.energy)
        )

    ref = to_primitive(runs[values[-1]].states[-1])
    errs_rho, errs_energy = [], []
    for v in values[:-1]:
        mac = to_primitive(runs[v].states[-1])
        er, ee = _l1_errors(grid, mac, ref.rho, ref.energy)
        errs_rho.append(er)
        errs_energy.append(ee)
    table = ConvergenceTable.from_errors(values[:-1], errs_rho, errs_energy)
    return StudyResult(
        table=table, mass_drift=mass_drift, energy_drift=energy_drift, trajectories=runs
    )


def fit_loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------


@dataclass
class ManufacturedSolution:
    """Exact fields and the source terms that make them solve the system."""

    rho: Callable[[np.ndarray, float], np.ndarray]
    theta: Callable[[np.ndarray, float], np.ndarray]
    source_mass: Callable[[np.ndarray, float], np.ndarray]
    source_energy: Callable[[np.ndarray, float], np.ndarray]

    def energy(self, x: np.ndarray, t: float) -> np.ndarray:
        th = self.theta(x, t)
        return th * (1.0 + 1.5 * self.rho(x, t))


def manufactured_from_expressions(rho_expr, theta_expr, x_sym, t_sym) -> ManufacturedSolution:
    """Derive sources symbolically from the limit equations.

    S_rho = d_t rho - d_xx (rho theta),
    S_E   = d_t E   - d_xx (theta + 5/2 rho theta^2),  E = theta (1 + 3 rho / 2).
    """
    # Imported here, not at module level: only manufactured solutions need
    # sympy, which is slow to import.
    import sympy as sp

    energy_expr = theta_expr * (1 + sp.Rational(3, 2) * rho_expr)
    s_rho = sp.diff(rho_expr, t_sym) - sp.diff(rho_expr * theta_expr, x_sym, 2)
    s_energy = sp.diff(energy_expr, t_sym) - sp.diff(
        theta_expr + sp.Rational(5, 2) * rho_expr * theta_expr**2, x_sym, 2
    )

    def vectorize(expr):
        fn = sp.lambdify((x_sym, t_sym), expr, modules="numpy")
        return lambda x, t: np.broadcast_to(
            np.asarray(fn(x, t), dtype=float), np.shape(x)
        ).copy()

    return ManufacturedSolution(
        rho=vectorize(rho_expr),
        theta=vectorize(theta_expr),
        source_mass=vectorize(s_rho),
        source_energy=vectorize(s_energy),
    )


def default_manufactured(length: float = 1.0) -> ManufacturedSolution:
    """Smooth positive cosine profiles with zero-slope walls."""
    import sympy as sp

    x, t = sp.symbols("x t", real=True)
    rho = sp.Rational(6, 5) + sp.Rational(1, 5) * sp.cos(sp.pi * x / length) * sp.exp(-t)
    theta = 1 + sp.Rational(3, 20) * sp.cos(2 * sp.pi * x / length) * sp.exp(-2 * t)
    return manufactured_from_expressions(rho, theta, x, t)


@dataclass
class MmsResult:
    spatial: ConvergenceTable
    temporal: ConvergenceTable


def _mms_error(
    n_cells: int, length: float, ms: ManufacturedSolution, p: SchemeParams
) -> Tuple[float, float]:
    grid = build_grid(n_cells, length)
    x = grid.cell_centers
    init = MacroState.from_rho_theta(ms.rho(x, 0.0), ms.theta(x, 0.0))
    p_run = replace(p, source_mass=ms.source_mass, source_energy=ms.source_energy)
    traj = run_transient(grid, init, p_run)
    mac = to_primitive(traj.states[-1])
    t_end = p_run.t_final
    return _l1_errors(grid, mac, ms.rho(x, t_end), ms.energy(x, t_end))


def mms_convergence(
    resolutions: Sequence[int],
    ms: ManufacturedSolution,
    p: SchemeParams,
    length: float = 1.0,
    temporal_taus: Optional[Sequence[float]] = None,
) -> MmsResult:
    """Observed spatial and temporal orders against manufactured fields.

    The spatial sweep scales tau with h^2 so the first-order time error
    refines at the same rate as the second-order space error; the temporal
    sweep runs on the finest grid, where the spatial error is negligible.
    """
    resolutions = sorted(int(n) for n in resolutions)
    if any(ms.rho(np.linspace(0, length, 65), 0.0) <= 0.0) or any(
        ms.theta(np.linspace(0, length, 65), 0.0) <= 0.0
    ):
        raise ValueError("manufactured fields must be strictly positive")

    base_n = resolutions[0]
    errs_rho, errs_energy, hs = [], [], []
    for n in resolutions:
        scale = (base_n / n) ** 2
        tau_n = p.tau * scale
        n_steps = max(1, round(p.t_final / tau_n))
        tau_n = p.t_final / n_steps
        er, ee = _mms_error(n, length, ms, replace(p, tau=tau_n))
        hs.append(length / n)
        errs_rho.append(er)
        errs_energy.append(ee)
    spatial = ConvergenceTable.from_errors(hs, errs_rho, errs_energy)

    if temporal_taus is None:
        temporal_taus = [p.t_final / 5, p.t_final / 10, p.t_final / 20]
    temporal_taus = sorted((float(t) for t in temporal_taus), reverse=True)
    # Temporal sweep on one fixed grid, measured against a small-tau
    # reference run on the same grid: the spatial error cancels exactly and
    # the first-order time error is left clean.
    n_fine = resolutions[-1]
    grid = build_grid(n_fine, length)
    x = grid.cell_centers
    init = MacroState.from_rho_theta(ms.rho(x, 0.0), ms.theta(x, 0.0))

    def _final_state(tau_t: float) -> MacroState:
        p_run = replace(
            p, tau=tau_t, source_mass=ms.source_mass, source_energy=ms.source_energy
        )
        return to_primitive(run_transient(grid, init, p_run).states[-1])

    ref = _final_state(temporal_taus[-1] / 8.0)
    errs_rho, errs_energy = [], []
    for tau_t in temporal_taus:
        mac = _final_state(tau_t)
        er, ee = _l1_errors(grid, mac, ref.rho, ref.energy)
        errs_rho.append(er)
        errs_energy.append(ee)
    temporal = ConvergenceTable.from_errors(list(temporal_taus), errs_rho, errs_energy)
    return MmsResult(spatial=spatial, temporal=temporal)


# ---------------------------------------------------------------------------
# kinetic limit
# ---------------------------------------------------------------------------


def kinetic_limit_study(
    grid: Grid1D,
    rho0,
    theta0,
    eps_values: Sequence[float],
    t_final: float,
    v_max: float = 8.0,
    n_v: int = 64,
    tau_macro: float = 1e-3,
) -> ConvergenceTable:
    """Knudsen sweep: BGK moments against the unregularized macroscopic run."""
    eps_values = [float(e) for e in eps_values]
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps values must be strictly decreasing")
    vgrid = build_velocity_grid(v_max=v_max, n_v=n_v)
    runs = [
        run_kinetic(grid, vgrid, rho0, theta0, eps, t_final) for eps in eps_values
    ]
    p_macro = SchemeParams(
        tau=tau_macro, eps=0.0, delta=0.0, t_final=t_final, inner_mode="coupled_implicit"
    )
    macro = run_transient(grid, make_initial_state(rho0, theta0), p_macro)
    final = to_primitive(macro.states[-1])
    rows = limit_compare(runs, final.rho, final.energy, grid)
    return ConvergenceTable.from_errors(
        [r["eps"] for r in rows],
        [r["err_rho_l1"] for r in rows],
        [r["err_energy_l1"] for r in rows],
    )


# ---------------------------------------------------------------------------
# sweeps and the default verification matrix
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    """Cross-product parameter sweep over a base configuration."""

    base: SchemeParams
    varied: Dict[str, Sequence[float]]
    preset: str = "gauss-bump"
    outputs: Optional[str] = None

    def combinations(self) -> List[Dict[str, float]]:
        names = sorted(self.varied)
        combos: List[Dict[str, float]] = [{}]
        for name in names:
            combos = [dict(c, **{name: float(v)}) for c in combos for v in self.varied[name]]
        return combos


def run_sweep(grid: Grid1D, spec: SweepSpec) -> List[Tuple[Dict[str, float], Trajectory]]:
    rho0, theta0 = initial_condition(spec.preset, grid)
    init = make_initial_state(rho0, theta0)
    results = []
    for combo in spec.combinations():
        traj = run_transient(grid, init, replace(spec.base, **combo))
        results.append((combo, traj))
    return results


def default_run_matrix(
    n_cells: int = 64,
    t_final: float = 0.1,
    inner_mode: str = "coupled_implicit",
    positive_reg_only: bool = False,
) -> List[Tuple[str, SchemeParams]]:
    """The verification matrix: presets x eps x delta x tau."""
    combos = []
    for preset in PRESET_NAMES:
        for eps in (0.0, 1e-6):
            for delta in (0.0, 1e-4, 1e-2):
                for tau in (1e-2, 1e-3):
                    if positive_reg_only and (eps == 0.0 or delta == 0.0):
                        continue
                    combos.append(
                        (
                            preset,
                            SchemeParams(
                                tau=tau,
                                eps=eps,
                                delta=delta,
                                t_final=t_final,
                                inner_mode=inner_mode,
                            ),
                        )
                    )
    return combos
