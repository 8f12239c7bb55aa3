"""Command-line entry point.

Usage: etlab <macro|kinetic|compare|sweep|mms|audit> <config.json> [key=value ...]

The JSON configuration selects the grid, scheme parameters, initial data and
output location; dotted key=value arguments override individual fields. All
numeric tables are written as CSV with 17-significant-digit floats and LF
line endings, so identical configurations produce byte-identical outputs.

Exit codes: 0 success, 2 solver failure (tau backoff exhausted, or the
kinetic relaxation solve failed), 3 configuration error, 4 audit failure
(``macro`` or ``audit`` wrote ``audits.json`` with ``all_passed: false``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .experiments import (
    PRESET_NAMES,
    SweepSpec,
    default_manufactured,
    initial_condition,
    kinetic_limit_study,
    mms_convergence,
    regularization_study,
    run_sweep,
)
from .grid import Grid1D, build_grid, integrate
from .kinetic import build_velocity_grid, run_kinetic
from .scheme import (
    SchemeParams,
    StepFailureError,
    StepReport,
    Trajectory,
    budget_audit,
    entropy_audit,
    lyapunov_functional,
    make_initial_state,
    run_transient,
    step_count,
)
from .thermo import BlowupError, EntropicState, to_primitive

MODES = ("macro", "kinetic", "compare", "sweep", "mms", "audit")

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3
EXIT_AUDIT = 4


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class RunConfig:
    mode: str = "macro"
    n_cells: int = 64
    length: float = 1.0
    scheme: SchemeParams = field(default_factory=SchemeParams)
    kinetic_eps: float = 0.1
    kinetic_eps_values: List[float] = field(default_factory=lambda: [0.4, 0.2, 0.1, 0.05])
    v_max: float = 8.0
    n_v: int = 64
    preset: str = "gauss-bump"
    rho0: Optional[List[float]] = None
    theta0: Optional[List[float]] = None
    output_dir: str = "etlab_out"
    snapshot_stride: int = 10
    sweep_which: Optional[str] = None
    sweep_values: Optional[List[float]] = None
    sweep_varied: Optional[Dict[str, List[float]]] = None
    mms_resolutions: List[int] = field(default_factory=lambda: [16, 32, 64])

    def build_grid(self) -> Grid1D:
        return build_grid(self.n_cells, self.length)

    def initial_fields(self, grid: Grid1D):
        if self.rho0 is not None or self.theta0 is not None:
            if self.rho0 is None or self.theta0 is None:
                raise ConfigError("init", "rho0 and theta0 must be given together")
            rho0 = np.asarray(self.rho0, dtype=float)
            theta0 = np.asarray(self.theta0, dtype=float)
            if rho0.shape != (grid.n_cells,) or theta0.shape != (grid.n_cells,):
                raise ConfigError(
                    "init", f"explicit arrays must have length {grid.n_cells}"
                )
            if np.any(rho0 <= 0.0) or np.any(theta0 <= 0.0):
                raise ConfigError("init", "explicit arrays must be positive")
            return rho0, theta0
        return initial_condition(self.preset, grid)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _is_number(value: Any) -> bool:
    """A JSON number that converts to a finite float; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and _is_number(value)


def _is_number_list(value: Any) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


_SCHEME_FIELDS = {
    "tau": float,
    "eps": float,
    "delta": float,
    "n_exp": float,
    "t_final": float,
    "fp_tol": float,
    "fp_max_iter": int,
    "tau_backoff_limit": int,
    "inner_mode": str,
    "init_floor": float,
}


_SECTIONS = {
    "grid": ("n_cells", "length"),
    "scheme": tuple(_SCHEME_FIELDS),
    "kinetic": ("eps", "v_max", "n_v"),
    "init": ("preset", "rho0", "theta0"),
    "output": ("directory", "snapshot_stride"),
    "sweep": ("which", "values", "varied"),
    "mms": ("resolutions",),
}


def _get_section(doc: Dict[str, Any], name: str) -> Dict[str, Any]:
    section = doc.get(name, {})
    _expect(isinstance(section, dict), name, "must be an object")
    for key in section:
        _expect(key in _SECTIONS[name], f"{name}.{key}", "unknown field")
    return section


def _set_path(doc: Dict[str, Any], key: str, value: Any) -> None:
    """Set a dotted path in the JSON document, creating sections on the way."""
    parts = key.split(".")
    node = doc
    for i, part in enumerate(parts[:-1]):
        node = node.setdefault(part, {})
        _expect(isinstance(node, dict), ".".join(parts[: i + 1]), "must be an object")
    node[parts[-1]] = value


def _document(
    text: str, overrides: Sequence[str] = (), mode: Optional[str] = None
) -> Dict[str, Any]:
    """The JSON document as edited by the environment and the command line.

    Each dotted ``key=value`` override edits the document; its value is read
    as JSON, or taken as a plain string when it is not JSON. Precedence:
    overrides, then ``ETLAB_OUTPUT_DIR``, then the file. ``mode``, the
    command-line subcommand, replaces the document's mode.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "<document>", "top level must be an object")
    env_dir = os.environ.get("ETLAB_OUTPUT_DIR")
    if env_dir:
        _set_path(doc, "output.directory", env_dir)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_path(doc, key, value)
    if mode is not None:
        doc["mode"] = mode
    return doc


def _output_directory(doc: Dict[str, Any]) -> str:
    """``output.directory``, checked first so later errors can leave error.json."""
    section = doc.get("output", {})
    _expect(isinstance(section, dict), "output", "must be an object")
    directory = section.get("directory", RunConfig.output_dir)
    _expect(isinstance(directory, str), "output.directory", "must be a string")
    return directory


def parse_config(
    text: str, overrides: Sequence[str] = (), mode: Optional[str] = None
) -> RunConfig:
    """Validate the document, edited as ``_document`` says, into a RunConfig."""
    doc = _document(text, overrides, mode)
    for name in doc:
        _expect(name == "mode" or name in _SECTIONS, name, "unknown section")
    cfg = RunConfig()
    mode = doc.get("mode", cfg.mode)
    _expect(mode in MODES, "mode", f"must be one of {MODES}, got {mode!r}")
    cfg.mode = mode

    grid_sec = _get_section(doc, "grid")
    if "n_cells" in grid_sec:
        _expect(
            _is_int(grid_sec["n_cells"]) and grid_sec["n_cells"] >= 3,
            "grid.n_cells",
            "must be an integer >= 3",
        )
        cfg.n_cells = grid_sec["n_cells"]
    if "length" in grid_sec:
        _expect(
            _is_number(grid_sec["length"]) and grid_sec["length"] > 0,
            "grid.length",
            "must be a positive number",
        )
        cfg.length = float(grid_sec["length"])

    scheme_sec = _get_section(doc, "scheme")
    scheme_kwargs: Dict[str, Any] = {}
    for key, value in scheme_sec.items():
        want = _SCHEME_FIELDS[key]
        if want is float:
            _expect(_is_number(value), f"scheme.{key}", "must be a number")
            value = float(value)
        elif want is int:
            _expect(_is_int(value), f"scheme.{key}", "must be an integer")
        scheme_kwargs[key] = value
    try:
        cfg.scheme = SchemeParams(**scheme_kwargs)
    except ValueError as exc:
        raise ConfigError("scheme", str(exc)) from exc

    kin = _get_section(doc, "kinetic")
    if "eps" in kin:
        eps = kin["eps"]
        if isinstance(eps, list):
            _expect(
                _is_number_list(eps) and eps and all(v > 0 for v in eps),
                "kinetic.eps",
                "values must be positive numbers",
            )
            _expect(
                all(b < a for a, b in zip(eps, eps[1:])),
                "kinetic.eps",
                "must be strictly decreasing",
            )
            cfg.kinetic_eps_values = [float(v) for v in eps]
            cfg.kinetic_eps = cfg.kinetic_eps_values[0]
        else:
            _expect(_is_number(eps) and eps > 0, "kinetic.eps", "must be positive")
            cfg.kinetic_eps = float(eps)
    if "v_max" in kin:
        _expect(
            _is_number(kin["v_max"]) and kin["v_max"] > 0,
            "kinetic.v_max",
            "must be positive",
        )
        cfg.v_max = float(kin["v_max"])
    if "n_v" in kin:
        _expect(
            _is_int(kin["n_v"]) and kin["n_v"] >= 4,
            "kinetic.n_v",
            "must be an integer >= 4",
        )
        cfg.n_v = kin["n_v"]

    init = _get_section(doc, "init")
    if "preset" in init:
        _expect(
            init["preset"] in PRESET_NAMES,
            "init.preset",
            f"must be one of {PRESET_NAMES}",
        )
        cfg.preset = init["preset"]
    for key in ("rho0", "theta0"):
        if key in init:
            _expect(_is_number_list(init[key]), f"init.{key}", "must be an array of numbers")
            setattr(cfg, key, [float(v) for v in init[key]])

    out = _get_section(doc, "output")
    cfg.output_dir = _output_directory(doc)
    if "snapshot_stride" in out:
        _expect(
            _is_int(out["snapshot_stride"]) and out["snapshot_stride"] >= 1,
            "output.snapshot_stride",
            "must be a positive integer",
        )
        cfg.snapshot_stride = out["snapshot_stride"]

    sweep = _get_section(doc, "sweep")
    if "which" in sweep:
        _expect(
            sweep["which"] in ("eps", "delta", "tau"),
            "sweep.which",
            "must be eps, delta, or tau",
        )
        cfg.sweep_which = sweep["which"]
    if "values" in sweep:
        values = sweep["values"]
        _expect(
            _is_number_list(values) and len(values) >= 2,
            "sweep.values",
            "must be an array of at least two numbers",
        )
        _expect(
            all(b < a for a, b in zip(values, values[1:])),
            "sweep.values",
            "must be strictly decreasing",
        )
        cfg.sweep_values = [float(v) for v in values]
    if "varied" in sweep:
        varied = sweep["varied"]
        _expect(isinstance(varied, dict), "sweep.varied", "must be an object")
        for k, vs in varied.items():
            _expect(
                _SCHEME_FIELDS.get(k) is float,
                f"sweep.varied.{k}",
                "must name a numeric scheme field",
            )
            _expect(_is_number_list(vs), f"sweep.varied.{k}", "must be an array of numbers")
        cfg.sweep_varied = {k: [float(v) for v in vs] for k, vs in varied.items()}

    mms = _get_section(doc, "mms")
    if "resolutions" in mms:
        _expect(
            isinstance(mms["resolutions"], list)
            and all(_is_int(v) and v >= 3 for v in mms["resolutions"]),
            "mms.resolutions",
            "must be an array of integers >= 3",
        )
        cfg.mms_resolutions = list(mms["resolutions"])

    if cfg.mode == "sweep":
        runs = _sweep_runs(cfg)
    else:
        runs = [{}] if cfg.mode in ("macro", "compare") else []
    for changes in runs:
        where = f" (sweep run {changes})" if changes else ""
        try:
            p = dataclasses.replace(cfg.scheme, **changes)
        except ValueError as exc:
            raise ConfigError("sweep", f"{exc}{where}") from exc
        try:
            step_count(p.t_final, p.tau)
        except ValueError as exc:
            raise ConfigError("scheme.t_final", f"{exc}{where}") from exc
    return cfg


def _sweep_runs(cfg: RunConfig) -> List[Dict[str, float]]:
    """The scheme fields each transient of a sweep changes."""
    if cfg.sweep_which is not None:
        return [{cfg.sweep_which: v} for v in cfg.sweep_values or []]
    if cfg.sweep_varied is not None:
        return SweepSpec(base=cfg.scheme, varied=cfg.sweep_varied).combinations()
    return []


# ---------------------------------------------------------------------------
# writers / readers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: List[str], rows: List[List[float]]) -> None:
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row) for row in rows)


def _read_csv(path: Path) -> Dict[str, np.ndarray]:
    """The columns of a CSV file; ValueError when it has no rows."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = [line for line in f if line.strip()]
    if not rows:
        raise ValueError("no rows")
    cols = np.loadtxt(rows, delimiter=",", ndmin=2).T
    return {name: cols[i] for i, name in enumerate(header)}


def _write_macro_outputs(
    out: Path, grid: Grid1D, traj: Trajectory, stride: int
) -> None:
    rows = []
    report_idx = 0
    t_acc = 0.0
    for k, t in enumerate(traj.times):
        mac = to_primitive(traj.states[k])
        entropy = lyapunov_functional(grid, traj.states[k])
        iters, diss = 0, 0.0
        if k > 0:
            while report_idx < len(traj.reports) and t_acc < t - 1e-12 * max(1.0, t):
                rep = traj.reports[report_idx]
                t_acc += rep.tau_used
                iters += rep.iterations
                diss += sum(rep.entropy.dissipation.values())
                report_idx += 1
        rows.append(
            [
                t,
                integrate(grid, mac.rho),
                integrate(grid, mac.energy),
                entropy,
                diss,
                float(np.min(mac.theta)),
                float(np.max(mac.rho)),
                iters,
            ]
        )
    _write_csv(
        out / "trajectory.csv",
        ["t", "mass", "energy", "entropy", "diss_total", "min_theta", "max_rho", "fp_iters"],
        rows,
    )
    for k, state in enumerate(traj.states):
        if k % stride != 0 and k != len(traj.states) - 1:
            continue
        mac = to_primitive(state)
        _write_csv(
            out / f"snapshot_{k}.csv",
            ["x", "rho", "theta", "E", "phi", "w"],
            np.column_stack(
                [grid.cell_centers, mac.rho, mac.theta, mac.energy, state.phi, state.w]
            ).tolist(),
        )


def _audit_record(step: int, t: float, rep: StepReport) -> Dict[str, Any]:
    """The audits.json record of one step, in ``macro`` and ``audit`` mode alike."""
    budget, entropy = rep.budget, rep.entropy
    return {
        "step": step,
        "t": t,
        "tau_used": rep.tau_used,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "mass_lhs": budget.mass_lhs,
        "mass_rhs": budget.mass_rhs,
        "mass_error": budget.mass_error,
        "mass_pass": budget.mass_pass,
        "energy_lhs": budget.energy_lhs,
        "energy_rhs": budget.energy_rhs,
        "energy_error": budget.energy_error,
        "energy_pass": budget.energy_pass,
        "entropy_before": entropy.h_prev,
        "entropy_after": entropy.h_next,
        "entropy_slack": entropy.slack,
        "entropy_violation": entropy.violation,
        "entropy_pass": entropy.passed,
        "edge_form_min": entropy.edge_form_min,
        "dissipation": entropy.dissipation,
    }


def _json_default(value: Any):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _write_audits(out: Path, records: List[Dict[str, Any]]) -> int:
    """Write audits.json; EXIT_AUDIT when any step failed an audit."""
    failed = [
        r["step"]
        for r in records
        if not (r["mass_pass"] and r["energy_pass"] and r["entropy_pass"])
    ]
    payload = {"all_passed": not failed, "records": records}
    with open(out / "audits.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(
            payload, f, indent=2, sort_keys=True, allow_nan=False, default=_json_default
        )
        f.write("\n")
    if failed:
        print(
            f"audit failure: {len(failed)} of {len(records)} steps failed "
            f"(first: step {failed[0]}); see audits.json",
            file=sys.stderr,
        )
        return EXIT_AUDIT
    return EXIT_OK


def _write_error_record(out: Optional[Path], kind: str, message: str) -> None:
    if out is None:
        return
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "error.json", "w", encoding="utf-8", newline="\n") as f:
            json.dump({"error": kind, "message": message}, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError:
        pass


# ---------------------------------------------------------------------------
# mode runners
# ---------------------------------------------------------------------------


def _run_macro(cfg: RunConfig, out: Path) -> int:
    grid = cfg.build_grid()
    rho0, theta0 = cfg.initial_fields(grid)
    init = make_initial_state(rho0, theta0, floor=cfg.scheme.init_floor)
    traj = run_transient(grid, init, cfg.scheme)
    _write_macro_outputs(out, grid, traj, cfg.snapshot_stride)
    records = []
    t = 0.0
    for k, rep in enumerate(traj.reports):
        t += rep.tau_used
        records.append(_audit_record(k + 1, t, rep))
    return _write_audits(out, records)


def _run_kinetic(cfg: RunConfig, out: Path) -> int:
    grid = cfg.build_grid()
    rho0, theta0 = cfg.initial_fields(grid)
    vgrid = build_velocity_grid(v_max=cfg.v_max, n_v=cfg.n_v)
    run = run_kinetic(
        grid, vgrid, rho0, theta0, cfg.kinetic_eps, cfg.scheme.t_final
    )
    rows = [
        [
            run.times[i],
            integrate(grid, run.rho[i]),
            integrate(grid, run.theta_b[i] + run.kinetic_energy[i]),
            float(np.min(run.theta_b[i])),
            float(np.max(run.rho[i])),
        ]
        for i in range(len(run.times))
    ]
    _write_csv(
        out / "kinetic_trajectory.csv",
        ["t", "mass", "energy_total", "min_theta_b", "max_rho"],
        rows,
    )
    final = run.final_state
    rho, e_kin, flux = run.rho[-1], run.kinetic_energy[-1], run.mass_flux[-1]
    _write_csv(
        out / "kinetic_final.csv",
        ["x", "rho", "kinetic_energy", "theta_b", "mass_flux"],
        [
            [grid.cell_centers[i], rho[i], e_kin[i], final.theta_b[i], flux[i]]
            for i in range(grid.n_cells)
        ],
    )
    return EXIT_OK


def _run_compare(cfg: RunConfig, out: Path) -> int:
    grid = cfg.build_grid()
    rho0, theta0 = cfg.initial_fields(grid)
    table = kinetic_limit_study(
        grid,
        rho0,
        theta0,
        cfg.kinetic_eps_values,
        cfg.scheme.t_final,
        v_max=cfg.v_max,
        n_v=cfg.n_v,
        tau_macro=cfg.scheme.tau,
    )
    table.write_csv(out / "table.csv")
    return EXIT_OK


def _run_sweep(cfg: RunConfig, out: Path) -> int:
    grid = cfg.build_grid()
    if cfg.sweep_which is not None:
        if cfg.sweep_values is None:
            raise ConfigError("sweep.values", "required when sweep.which is set")
        rho0, theta0 = cfg.initial_fields(grid)
        init = make_initial_state(rho0, theta0, floor=cfg.scheme.init_floor)
        result = regularization_study(
            grid, init, cfg.scheme, cfg.sweep_which, cfg.sweep_values
        )
        result.table.write_csv(out / "table.csv")
        _write_csv(
            out / "drifts.csv",
            [cfg.sweep_which, "mass_drift", "energy_drift"],
            [
                [v, result.mass_drift[v], result.energy_drift[v]]
                for v in cfg.sweep_values
            ],
        )
        return EXIT_OK
    if cfg.sweep_varied is None:
        raise ConfigError("sweep", "needs either which/values or varied")
    spec = SweepSpec(base=cfg.scheme, varied=cfg.sweep_varied, preset=cfg.preset)
    results = run_sweep(grid, spec)
    names = sorted(cfg.sweep_varied)
    rows = []
    for combo, traj in results:
        mac0 = to_primitive(traj.states[0])
        mac1 = to_primitive(traj.states[-1])
        rows.append(
            [combo[n] for n in names]
            + [
                integrate(grid, mac1.rho) - integrate(grid, mac0.rho),
                integrate(grid, mac1.energy) - integrate(grid, mac0.energy),
                lyapunov_functional(grid, traj.states[-1]),
            ]
        )
    _write_csv(out / "sweep_summary.csv", names + ["mass_drift", "energy_drift", "entropy_final"], rows)
    return EXIT_OK


def _run_mms(cfg: RunConfig, out: Path) -> int:
    ms = default_manufactured(cfg.length)
    result = mms_convergence(cfg.mms_resolutions, ms, cfg.scheme, length=cfg.length)
    result.spatial.write_csv(out / "table.csv")
    result.temporal.write_csv(out / "table_temporal.csv")
    return EXIT_OK


def _read_snapshot(path: Path, n_cells: Optional[int]) -> EntropicState:
    """The state stored in a snapshot; ConfigError naming a damaged file."""
    try:
        cols = _read_csv(path)
        state = EntropicState(phi=cols["phi"], w=cols["w"])
        to_primitive(state)
    except (ValueError, KeyError, IndexError, BlowupError) as exc:
        raise ConfigError(str(path), f"damaged snapshot: {exc}") from exc
    if n_cells is not None and state.phi.size != n_cells:
        raise ConfigError(
            str(path), f"damaged snapshot: {state.phi.size} cells, snapshot_0 has {n_cells}"
        )
    return state


def _run_audit(cfg: RunConfig, out: Path) -> int:
    """Re-audit a stored trajectory from its per-step snapshots."""
    traj_file = out / "trajectory.csv"
    if not traj_file.exists():
        raise ConfigError("output.directory", f"no trajectory.csv in {out}")
    try:
        times = _read_csv(traj_file)["t"]
    except (ValueError, KeyError, IndexError) as exc:
        raise ConfigError(str(traj_file), f"damaged trajectory: {exc}") from exc
    _expect(
        bool(np.all(np.diff(times) > 0.0)),
        str(traj_file),
        "damaged trajectory: times must increase",
    )
    states: List[EntropicState] = []
    for k in range(len(times)):
        snap = out / f"snapshot_{k}.csv"
        if not snap.exists():
            raise ConfigError(
                "output.snapshot_stride",
                "audit mode needs snapshots at every step (snapshot_stride=1)",
            )
        states.append(_read_snapshot(snap, states[0].phi.size if states else None))
    grid = build_grid(len(states[0].phi), cfg.length)
    records = []
    for k in range(1, len(states)):
        tau_k = float(times[k] - times[k - 1])
        p_k = dataclasses.replace(cfg.scheme, tau=tau_k)
        rep = StepReport(
            iterations=0,
            residual=None,
            tau_used=tau_k,
            budget=budget_audit(grid, states[k - 1], states[k], p_k),
            entropy=entropy_audit(grid, states[k - 1], states[k], p_k),
        )
        records.append(_audit_record(k, float(times[k]), rep))
    return _write_audits(out, records)


_RUNNERS = {
    "macro": _run_macro,
    "kinetic": _run_kinetic,
    "compare": _run_compare,
    "sweep": _run_sweep,
    "mms": _run_mms,
    "audit": _run_audit,
}


def main(argv: Sequence[str]) -> int:
    out: Optional[Path] = None
    try:
        if len(argv) < 2:
            raise ConfigError("<argv>", "usage: etlab <mode> <config.json> [key=value ...]")
        mode, config_path = argv[0], argv[1]
        if mode not in MODES:
            raise ConfigError("mode", f"unknown subcommand {mode!r}")
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError("<config>", f"cannot read {config_path}: {exc}") from exc
        out = Path(_output_directory(_document(text, argv[2:], mode)))
        cfg = parse_config(text, argv[2:], mode=mode)
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[mode](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _write_error_record(out, "config", str(exc))
        return EXIT_CONFIG
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        _write_error_record(out, "solver", str(exc))
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
