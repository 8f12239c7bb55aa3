"""Reproducible experiment drivers.

Parameter sweeps measure Cauchy-style self-convergence (gaps to the last
run of the sweep), since the continuous system has no closed-form
solutions. Manufactured-solution studies measure discretization orders
against exact fields with analytically derived source terms. The kinetic study compares BGK moments against the unregularized
macroscopic solver over a Knudsen-number sweep.

Every study is deterministic given its inputs: fixed iteration orders, no
hidden randomness.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .grid import Grid1D, build_grid, integrate
from .kinetic import build_velocity_grid, run_kinetic
from .scheme import SchemeParams, lyapunov_functional, make_initial_state, run_transient
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
                o_r = _safe_order(err_rho[i - 1], er, params[i - 1], p_val)
                o_e = _safe_order(err_energy[i - 1], ee, params[i - 1], p_val)
            rows.append(TableRow(float(p_val), float(er), float(ee), o_r, o_e))
        return cls(rows=rows)

    def write_csv(self, path) -> None:
        write_csv(path, CSV_HEADER, [astuple(r) for r in self.rows])


def write_csv(path, header: Sequence[str], rows) -> None:
    """A table with one header line and %.17g floats, LF line endings."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row) for row in rows)


def _safe_order(e_coarse: float, e_fine: float, p_coarse: float, p_fine: float) -> float:
    """log(e_coarse / e_fine) / log(p_coarse / p_fine); nan unless both
    ratios are positive and finite and the parameter moved."""
    if e_coarse <= 0.0 or e_fine <= 0.0 or p_fine == 0.0:
        return math.nan
    ratio = p_coarse / p_fine
    if not 0.0 < ratio < math.inf or ratio == 1.0:
        return math.nan
    return math.log(e_coarse / e_fine) / math.log(ratio)


def _l1_errors(
    grid: Grid1D,
    rho: np.ndarray,
    energy: np.ndarray,
    rho_ref: np.ndarray,
    energy_ref: np.ndarray,
) -> Tuple[float, float]:
    """The L1 gaps of (rho, E) to reference fields on the same grid."""
    return (
        integrate(grid, np.abs(rho - rho_ref)),
        integrate(grid, np.abs(energy - energy_ref)),
    )


def _gap_table(params: Sequence[float], gaps: Sequence[Tuple[float, float]]) -> ConvergenceTable:
    """The table of one (rho, E) gap pair per parameter value."""
    return ConvergenceTable.from_errors(params, [g[0] for g in gaps], [g[1] for g in gaps])


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


SWEEP_COLUMNS = ["mass_drift", "energy_drift", "entropy_final", *CSV_HEADER[1:]]


@dataclass
class SweepRow:
    """One run of a sweep: its values of the varied fields, then the
    columns of SWEEP_COLUMNS in order."""

    values: Dict[str, float]
    mass_drift: float  # signed: final minus initial
    energy_drift: float
    entropy_final: float
    err_rho: float  # L1 gap to the last run of the sweep
    err_energy: float
    order_rho: float  # nan unless exactly one field is varied
    order_energy: float


def sweep_runs(varied: Dict[str, Sequence[float]]) -> List[Dict[str, float]]:
    """The scheme fields each run of a sweep changes: the cross product of
    ``varied`` over its sorted names, the last name varying fastest."""
    combos: List[Dict[str, float]] = [{}]
    for name in sorted(varied):
        combos = [dict(c, **{name: v}) for c in combos for v in varied[name]]
    return combos


def sweep_study(
    grid: Grid1D,
    rho0: np.ndarray,
    theta0: np.ndarray,
    p: SchemeParams,
    varied: Dict[str, Sequence[float]],
) -> List[SweepRow]:
    """One row per run of ``sweep_runs(varied)``, each a transient from the
    raw fields clipped with its own ``init_floor``.

    The gaps are Cauchy-style, against the last run, so the last row's are
    zero. With one varied field its values are the table's parameter and
    each row after the first gets the observed orders.
    """
    runs = sweep_runs(varied)
    measured, finals = [], []
    for changes in runs:
        p_run = replace(p, **changes)
        traj = run_transient(grid, make_initial_state(rho0, theta0, p_run.init_floor), p_run)
        first = to_primitive(traj.states[0])
        last = to_primitive(traj.states[-1])
        finals.append(last)
        measured.append(
            (
                integrate(grid, last.rho) - integrate(grid, first.rho),
                integrate(grid, last.energy) - integrate(grid, first.energy),
                lyapunov_functional(grid, traj.states[-1]),
            )
        )
    ref = finals[-1]
    gaps = [_l1_errors(grid, f.rho, f.energy, ref.rho, ref.energy) for f in finals]
    # An order needs one parameter per run; nan gives none to the table.
    params = [c[min(varied)] if len(varied) == 1 else math.nan for c in runs]
    rows = _gap_table(params, gaps).rows
    return [
        SweepRow(changes, *m, row.err_rho, row.err_energy, row.order_rho, row.order_energy)
        for changes, m, row in zip(runs, measured, rows)
    ]


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


def default_manufactured(length: float = 1.0) -> ManufacturedSolution:
    """Smooth positive cosine profiles with zero-slope walls, and their sources.

    rho   = 6/5 + 1/5 cos(pi x / L) e^(-t),
    theta = 1 + 3/20 cos(2 pi x / L) e^(-2t)

    solve the limit equations with the sources

    S_rho = d_t rho - d_xx (rho theta),
    S_E   = d_t E   - d_xx (theta + 5/2 rho theta^2),  E = theta (1 + 3 rho / 2),

    expanded by the product rule into closed-form derivatives of the fields.
    """
    k = math.pi / length

    def fields(x, t):
        """rho, rho_x, rho_xx, rho_t, theta, theta_x, theta_xx, theta_t."""
        a, b = 0.2 * np.exp(-t), 0.15 * np.exp(-2.0 * t)
        c1, s1 = a * np.cos(k * x), a * np.sin(k * x)
        c2, s2 = b * np.cos(2.0 * k * x), b * np.sin(2.0 * k * x)
        return (
            1.2 + c1, -k * s1, -k**2 * c1, -c1,
            1.0 + c2, -2.0 * k * s2, -4.0 * k**2 * c2, -2.0 * c2,
        )

    def source_mass(x, t):
        r, r_x, r_xx, r_t, th, th_x, th_xx, _ = fields(x, t)
        return r_t - (r_xx * th + 2.0 * r_x * th_x + r * th_xx)

    def source_energy(x, t):
        r, r_x, r_xx, r_t, th, th_x, th_xx, th_t = fields(x, t)
        e_t = th_t * (1.0 + 1.5 * r) + 1.5 * th * r_t
        # d_xx (rho theta^2), by the product rule
        rth2_xx = r_xx * th**2 + 4.0 * r_x * th * th_x + 2.0 * r * (th_x**2 + th * th_xx)
        return e_t - th_xx - 2.5 * rth2_xx

    return ManufacturedSolution(
        rho=lambda x, t: fields(x, t)[0],
        theta=lambda x, t: fields(x, t)[4],
        source_mass=source_mass,
        source_energy=source_energy,
    )


@dataclass
class MmsResult:
    spatial: ConvergenceTable
    temporal: ConvergenceTable


def _manufactured_final(
    n_cells: int, length: float, ms: ManufacturedSolution, p: SchemeParams
) -> Tuple[Grid1D, MacroState]:
    """The grid, and the final state of a run from the manufactured fields
    at t = 0 with their source terms."""
    grid = build_grid(n_cells, length)
    x = grid.cell_centers
    init = MacroState(ms.rho(x, 0.0), ms.theta(x, 0.0))
    p_run = replace(p, source_mass=ms.source_mass, source_energy=ms.source_energy)
    return grid, to_primitive(run_transient(grid, init, p_run).states[-1])


def mms_convergence(
    resolutions: Sequence[int],
    ms: ManufacturedSolution,
    p: SchemeParams,
    length: float = 1.0,
) -> MmsResult:
    """Observed spatial and temporal orders against manufactured fields.

    The spatial sweep scales tau with h^2 so the first-order time error
    refines at the same rate as the second-order space error, and measures
    against the exact fields at t_final. The temporal sweep runs tau =
    t_final/5, /10 and /20 on the finest grid and measures against a run
    with tau = t_final/160 on that grid: the spatial error cancels exactly
    and the first-order time error is left clean.
    """
    resolutions = sorted(int(n) for n in resolutions)
    if not resolutions:
        raise ValueError("resolutions must not be empty")
    if any(ms.rho(np.linspace(0, length, 65), 0.0) <= 0.0) or any(
        ms.theta(np.linspace(0, length, 65), 0.0) <= 0.0
    ):
        raise ValueError("manufactured fields must be strictly positive")

    base_n = resolutions[0]
    gaps = []
    for n in resolutions:
        n_steps = max(1, round(p.t_final / (p.tau * (base_n / n) ** 2)))
        grid, final = _manufactured_final(n, length, ms, replace(p, tau=p.t_final / n_steps))
        x = grid.cell_centers
        exact = MacroState(ms.rho(x, p.t_final), ms.theta(x, p.t_final))
        gaps.append(_l1_errors(grid, final.rho, final.energy, exact.rho, exact.energy))
    spatial = _gap_table([length / n for n in resolutions], gaps)

    taus = [p.t_final / 5, p.t_final / 10, p.t_final / 20]
    n_fine = resolutions[-1]
    grid, ref = _manufactured_final(n_fine, length, ms, replace(p, tau=taus[-1] / 8.0))
    gaps = []
    for tau_t in taus:
        _, final = _manufactured_final(n_fine, length, ms, replace(p, tau=tau_t))
        gaps.append(_l1_errors(grid, final.rho, final.energy, ref.rho, ref.energy))
    return MmsResult(spatial=spatial, temporal=_gap_table(taus, gaps))


# ---------------------------------------------------------------------------
# kinetic limit
# ---------------------------------------------------------------------------


def kinetic_limit_study(
    grid: Grid1D,
    init: MacroState,
    eps_values: Sequence[float],
    t_final: float,
    v_max: float = 8.0,
    n_v: int = 64,
    tau_macro: float = 1e-3,
) -> ConvergenceTable:
    """Knudsen sweep: BGK moments against the unregularized macroscopic run.

    The kinetic runs start in local equilibrium at ``init``'s rho and theta,
    the macroscopic run from ``init`` itself, so both see the same data.
    """
    eps_values = [float(e) for e in eps_values]
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps values must be strictly decreasing")
    p_macro = SchemeParams(tau=tau_macro, eps=0.0, delta=0.0, t_final=t_final)
    ref = to_primitive(run_transient(grid, init, p_macro).states[-1])
    vgrid = build_velocity_grid(v_max=v_max, n_v=n_v)
    gaps = []
    for eps in eps_values:
        run = run_kinetic(grid, vgrid, init.rho, init.theta, eps, t_final)
        energy = run.theta_b[-1] + run.kinetic_energy[-1]
        gaps.append(_l1_errors(grid, run.rho[-1], energy, ref.rho, ref.energy))
    return _gap_table(eps_values, gaps)


# ---------------------------------------------------------------------------
# the default verification matrix
# ---------------------------------------------------------------------------


def default_run_matrix(t_final: float = 0.1) -> List[Tuple[str, SchemeParams]]:
    """The verification matrix: presets x eps x delta x tau."""
    combos = []
    for preset in PRESET_NAMES:
        for eps in (0.0, 1e-6):
            for delta in (0.0, 1e-4, 1e-2):
                for tau in (1e-2, 1e-3):
                    params = SchemeParams(tau=tau, eps=eps, delta=delta, t_final=t_final)
                    combos.append((preset, params))
    return combos
