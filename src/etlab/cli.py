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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .experiments import (
    PRESET_NAMES,
    SWEEP_COLUMNS,
    default_manufactured,
    initial_condition,
    kinetic_limit_study,
    mms_convergence,
    sweep_runs,
    sweep_study,
    write_csv,
)
from .grid import Grid1D, build_grid, integrate
from .kinetic import (
    EPS_RANGE,
    MAX_EPS,
    MIN_EPS,
    build_velocity_grid,
    kinetic_step_count,
    run_kinetic,
)
from .scheme import (
    ESTIMATE_TERMS,
    NUMBER,
    PARAM_RULES,
    Check,
    SchemeParams,
    StepFailureError,
    Trajectory,
    budget_audit,
    entropy_audit,
    is_int,
    is_number,
    lyapunov_functional,
    make_initial_state,
    run_transient,
    step_count,
)
from .thermo import BlowupError, EntropicState, MacroState, to_entropic, to_primitive

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
    # The Knudsen numbers to run: one in kinetic mode, a decreasing sweep in
    # compare mode; parse_config fills in the mode's default.
    kinetic_eps: Optional[List[float]] = None
    v_max: float = 8.0
    n_v: int = 64
    preset: str = "gauss-bump"
    rho0: Optional[List[float]] = None
    theta0: Optional[List[float]] = None
    output_dir: str = "etlab_out"
    snapshot_stride: int = 10
    sweep_varied: Optional[Dict[str, List[float]]] = None
    mms_resolutions: List[int] = field(default_factory=lambda: [16, 32, 64])

    def initial_fields(self) -> Tuple[Grid1D, Any, Any]:
        """The grid, and the raw (rho0, theta0): the explicit init arrays,
        which parse_config checked, else the preset's."""
        grid = build_grid(self.n_cells, self.length)
        if self.rho0 is not None:
            return grid, self.rho0, self.theta0
        return (grid, *initial_condition(self.preset, grid))

    def initial_state(self) -> Tuple[Grid1D, MacroState]:
        """The grid, and the state every run starts from: the raw fields
        clipped up to ``scheme.init_floor``."""
        grid, rho0, theta0 = self.initial_fields()
        return grid, make_initial_state(rho0, theta0, floor=self.scheme.init_floor)


_DEFAULT_KINETIC_EPS = {"kinetic": (0.1,), "compare": (0.4, 0.2, 0.1, 0.05)}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _is_number_list(value: Any) -> bool:
    return isinstance(value, list) and all(is_number(v) for v in value)


def _is_kinetic_eps(value: Any) -> bool:
    return is_number(value) and MIN_EPS <= value <= MAX_EPS


def _is_length(value: Any) -> bool:
    # Every solver squares the cell width h <= length / 3.
    return is_number(value) and value > 0 and math.isfinite((value / 3) * (value / 3))


def _listed(value: Any) -> List[Any]:
    return value if isinstance(value, list) else [value]


def _decreasing(values: List[float]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _floats(values: List[Any]) -> List[float]:
    return [float(v) for v in values]


_NUMBERS: Check = (_is_number_list, "must be an array of numbers")
_NOT_EMPTY: Check = (bool, "must not be empty")


def _int_at_least(low: int) -> Check:
    return (lambda v: is_int(v) and v >= low, f"must be an integer >= {low}")


class _Field:
    """One config field: the RunConfig attribute it sets (under ``scheme``,
    the SchemeParams argument), the conversion of an accepted value (None
    keeps it as it is), and its checks in order. ``entries`` checks each
    (name, value) of an object field at the path ``<field>.<name>``."""

    def __init__(self, attr: str, convert: Optional[Callable], *checks: Check, entries=()):
        self.attr = attr
        self.convert = convert
        self.checks = checks
        self.entries = entries


_FIELDS: Dict[str, _Field] = {
    "grid.n_cells": _Field("n_cells", None, _int_at_least(3)),
    "grid.length": _Field(
        "length", float, (_is_length, "must be a positive number whose (length / 3)**2 is finite")
    ),
    # The SchemeParams fields, with the checks that SchemeParams applies too.
    **{
        f"scheme.{name}": _Field(name, float if rules[0] is NUMBER else None, *rules)
        for name, rules in PARAM_RULES.items()
    },
    # One number, or a list of them for compare mode's Knudsen sweep.
    "kinetic.eps": _Field(
        "kinetic_eps",
        lambda v: _floats(_listed(v)),
        (lambda v: isinstance(v, list) or _is_kinetic_eps(v), f"must be a number in {EPS_RANGE}"),
        _NOT_EMPTY,
        (
            lambda v: all(map(_is_kinetic_eps, _listed(v))),
            f"values must be numbers in {EPS_RANGE}",
        ),
        (lambda v: _decreasing(_listed(v)), "must be strictly decreasing"),
    ),
    "kinetic.v_max": _Field(
        "v_max", float, (lambda v: is_number(v) and v > 0, "must be positive")
    ),
    "kinetic.n_v": _Field("n_v", None, _int_at_least(4)),
    "init.preset": _Field(
        "preset", None, (lambda v: v in PRESET_NAMES, f"must be one of {PRESET_NAMES}")
    ),
    "init.rho0": _Field("rho0", _floats, _NUMBERS),
    "init.theta0": _Field("theta0", _floats, _NUMBERS),
    "output.directory": _Field(
        "output_dir", None, (lambda v: isinstance(v, str), "must be a string")
    ),
    "output.snapshot_stride": _Field(
        "snapshot_stride", None, (lambda v: is_int(v) and v >= 1, "must be a positive integer")
    ),
    # Each entry names a scheme field and lists the values it takes.
    "sweep.varied": _Field(
        "sweep_varied",
        lambda v: {name: _floats(values) for name, values in v.items()},
        (lambda v: isinstance(v, dict), "must be an object"),
        _NOT_EMPTY,
        entries=[
            (lambda name, _: _is_numeric_scheme_field(name), "must name a numeric scheme field"),
            (lambda _, values: _is_number_list(values), "must be an array of numbers"),
            (lambda _, values: bool(values), "must not be empty"),
        ],
    ),
    "mms.resolutions": _Field(
        "mms_resolutions",
        list,
        (
            lambda v: isinstance(v, list) and all(is_int(n) and n >= 3 for n in v),
            "must be an array of integers >= 3",
        ),
        _NOT_EMPTY,
    ),
}

_SECTION_NAMES = {path.split(".")[0] for path in _FIELDS}


def _is_numeric_scheme_field(name: str) -> bool:
    spec = _FIELDS.get(f"scheme.{name}")
    return spec is not None and spec.convert is float


def _accept(path: str, value: Any) -> Any:
    """``value`` as the field at ``path`` stores it; ConfigError at the first
    check it fails."""
    spec = _FIELDS[path]
    for ok, message in spec.checks:
        _expect(ok(value), path, message)
    for name, item in value.items() if spec.entries else ():
        for ok, message in spec.entries:
            _expect(ok(name, item), f"{path}.{name}", message)
    return value if spec.convert is None else spec.convert(value)


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
    return _accept("output.directory", section.get("directory", RunConfig.output_dir))


def parse_config(
    text: str, overrides: Sequence[str] = (), mode: Optional[str] = None
) -> RunConfig:
    """Validate the document, edited as ``_document`` says, into a RunConfig."""
    return _validate(_document(text, overrides, mode))


def _validate(doc: Dict[str, Any]) -> RunConfig:
    """The RunConfig of an edited document. Its fields are checked in the
    document's order against ``_FIELDS``, then the checks that join fields."""
    mode = doc.get("mode", RunConfig.mode)
    _expect(mode in MODES, "mode", f"must be one of {MODES}, got {mode!r}")
    config: Dict[str, Any] = {"mode": mode}
    scheme: Dict[str, Any] = {}
    for name, section in doc.items():
        if name == "mode":
            continue
        _expect(name in _SECTION_NAMES, name, "unknown section")
        _expect(isinstance(section, dict), name, "must be an object")
        for key, value in section.items():
            path = f"{name}.{key}"
            _expect(path in _FIELDS, path, "unknown field")
            target = scheme if name == "scheme" else config
            target[_FIELDS[path].attr] = _accept(path, value)
    config["scheme"] = SchemeParams(**scheme)
    if "kinetic_eps" not in config and mode in _DEFAULT_KINETIC_EPS:
        config["kinetic_eps"] = list(_DEFAULT_KINETIC_EPS[mode])
    cfg = RunConfig(**config)

    if cfg.mode != "audit":  # audit checks the cells of its snapshots
        n = max(cfg.mms_resolutions) if cfg.mode == "mms" else cfg.n_cells
        _expect_cell_width(cfg.length, n)

    if cfg.mode in ("kinetic", "compare"):
        _expect(
            cfg.mode == "compare" or len(cfg.kinetic_eps) == 1,
            "kinetic.eps",
            f"kinetic mode runs one eps, got {len(cfg.kinetic_eps)}; compare mode runs a list",
        )
        eps = min(cfg.kinetic_eps)
        h = cfg.length / cfg.n_cells
        try:
            kinetic_step_count(cfg.scheme.t_final, eps, h, cfg.v_max)
        except ValueError as exc:
            raise ConfigError("kinetic.eps", str(exc)) from exc

    if cfg.mode == "sweep":
        _expect(cfg.sweep_varied is not None, "sweep.varied", "required in sweep mode")
        runs = sweep_runs(cfg.sweep_varied)
    else:
        runs = [{}] if cfg.mode in ("macro", "compare") else []
    floors = []  # each run's init_floor, and the words that name the run
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
        floors.append((p.init_floor, where))

    explicit = [a for a in (cfg.rho0, cfg.theta0) if a is not None]
    if explicit and cfg.mode in ("macro", "kinetic", "compare", "sweep"):
        n = cfg.n_cells
        _expect(len(explicit) == 2, "init", "rho0 and theta0 must be given together")
        lengths_ok = all(len(a) == n for a in explicit)
        _expect(lengths_ok, "init", f"explicit arrays must have length {n}")
        low = min(map(min, explicit))
        _expect(low >= 0.0, "init", "explicit arrays must be nonnegative")
        _expect(
            low > 0.0 or min([f for f, _ in floors] or [cfg.scheme.init_floor]) > 0.0,
            "scheme.init_floor",
            "must be positive to raise the zero entries of init.rho0, init.theta0",
        )
    if cfg.mode in ("macro", "kinetic", "compare", "sweep"):
        _expect_initial_state(cfg, floors)
    return cfg


def _expect_initial_state(cfg: RunConfig, floors: List[Tuple[float, str]]) -> None:
    """The initial fields, clipped up to each macro run's floor, must lie in
    the entropic chart (see to_primitive); clipped up to init_floor, a
    kinetic run's must have a finite 2 theta (1 + 3 rho / 2), the scale of
    g2, and a finite v_max^2 / (2 theta), the Gaussian's largest exponent."""
    _, rho0, theta0 = cfg.initial_fields()
    for floor, where in floors:
        try:
            to_primitive(to_entropic(np.maximum(rho0, floor), np.maximum(theta0, floor)))
        except BlowupError as exc:
            raise ConfigError("init", f"initial {exc}{where}") from exc
    if cfg.mode in ("kinetic", "compare"):
        rho = np.maximum(rho0, cfg.scheme.init_floor)
        theta = np.maximum(theta0, cfg.scheme.init_floor)
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(2.0 * theta * (1.0 + 1.5 * rho))
            bad |= ~np.isfinite(cfg.v_max * cfg.v_max / (2.0 * theta))
        if bad.any():
            cell = int(np.argmax(bad))
            raise ConfigError(
                "init",
                f"initial kinetic state out of range at cell {cell}: rho={rho[cell]:.6g}, "
                f"theta={theta[cell]:.6g} (2 theta (1 + 3 rho / 2) and "
                "kinetic.v_max^2 / (2 theta) must be finite)",
            )


def _expect_cell_width(length: float, n: int) -> None:
    """The mirror image of _is_length: the solvers raise 1 / h to at most
    the fourth power (eps L L in the macro Jacobian), so h = length / n
    must have a finite h**-4."""
    inv_h = n / length
    _expect(
        math.isfinite(inv_h * inv_h * inv_h * inv_h),
        "grid.length",
        f"must be large enough that the cell width h = length / {n} has a finite h**-4",
    )


# ---------------------------------------------------------------------------
# writers / readers
# ---------------------------------------------------------------------------


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
    iters = [0] * len(traj.times)
    diss = [0.0] * len(traj.times)
    tau = float(traj.times[1])
    for rep in traj.reports:
        iters[rep["step"]] += rep["iterations"]
        # A step's time-averaged rate: each attempt's rate at its end state,
        # weighted by the share of tau it covers (1 without substeps).
        terms = rep["dissipation"].items()
        rate = sum(v for name, v in terms if name not in ESTIMATE_TERMS)
        diss[rep["step"]] += (rep["tau_used"] / tau) * rate
    rows = []
    for k, t in enumerate(traj.times):
        mac = to_primitive(traj.states[k])
        entropy = lyapunov_functional(grid, traj.states[k])
        rows.append(
            [
                t,
                integrate(grid, mac.rho),
                integrate(grid, mac.energy),
                entropy,
                diss[k],
                float(np.min(mac.theta)),
                float(np.max(mac.rho)),
                iters[k],
            ]
        )
    write_csv(
        out / "trajectory.csv",
        ["t", "mass", "energy", "entropy", "diss_total", "min_theta", "max_rho", "fp_iters"],
        rows,
    )
    # Every snapshot has the same x column: its values are formatted once,
    # into the template of the rows, and each snapshot's other five columns
    # by one % over them (write_csv's format).
    fields = ",%.17g" * 5 + "\n"
    body = "".join(["%.17g" % x + fields for x in grid.cell_centers.tolist()])
    for k, state in enumerate(traj.states):
        if k % stride != 0 and k != len(traj.states) - 1:
            continue
        mac = to_primitive(state)
        values = np.column_stack([mac.rho, mac.theta, mac.energy, state.phi, state.w])
        with open(out / f"snapshot_{k}.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("x,rho,theta,E,phi,w\n")
            f.write(body % tuple(values.ravel().tolist()))


def _json_default(value: Any):
    if isinstance(value, np.generic):  # numpy bools and integers
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _write_audits(out: Path, records: List[Dict[str, Any]]) -> int:
    """Write audits.json; EXIT_AUDIT when any step failed an audit."""
    failed = [
        r["step"]
        for r in records
        if not (r["mass_pass"] and r["energy_pass"] and r["entropy_pass"])
    ]
    payload = {"all_passed": not failed, "records": records}
    # One compact json.dumps: only without indent, and only for a one-shot
    # encode, does the json module use its C encoder.
    text = json.dumps(payload, sort_keys=True, allow_nan=False, default=_json_default)
    with open(out / "audits.json", "w", encoding="utf-8", newline="\n") as f:
        f.write(text)  # not text + "\n": a copy of the text raised the peak RSS
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
    grid, init = cfg.initial_state()
    traj = run_transient(grid, init, cfg.scheme)
    _write_macro_outputs(out, grid, traj, cfg.snapshot_stride)
    return _write_audits(out, traj.reports)


def _run_kinetic(cfg: RunConfig, out: Path) -> int:
    grid, init = cfg.initial_state()
    vgrid = build_velocity_grid(v_max=cfg.v_max, n_v=cfg.n_v)
    (eps,) = cfg.kinetic_eps
    run = run_kinetic(grid, vgrid, init.rho, init.theta, eps, cfg.scheme.t_final)
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
    write_csv(
        out / "kinetic_trajectory.csv",
        ["t", "mass", "energy_total", "min_theta_b", "max_rho"],
        rows,
    )
    final = run.final_state
    rho, e_kin, flux = run.rho[-1], run.kinetic_energy[-1], run.mass_flux[-1]
    write_csv(
        out / "kinetic_final.csv",
        ["x", "rho", "kinetic_energy", "theta_b", "mass_flux"],
        [
            [grid.cell_centers[i], rho[i], e_kin[i], final.theta_b[i], flux[i]]
            for i in range(grid.n_cells)
        ],
    )
    return EXIT_OK


def _run_compare(cfg: RunConfig, out: Path) -> int:
    grid, init = cfg.initial_state()
    table = kinetic_limit_study(
        grid,
        init,
        cfg.kinetic_eps,
        cfg.scheme.t_final,
        v_max=cfg.v_max,
        n_v=cfg.n_v,
        tau_macro=cfg.scheme.tau,
    )
    table.write_csv(out / "table.csv")
    return EXIT_OK


def _run_sweep(cfg: RunConfig, out: Path) -> int:
    names = sorted(cfg.sweep_varied)
    rows = sweep_study(*cfg.initial_fields(), cfg.scheme, cfg.sweep_varied)
    write_csv(
        out / "sweep_summary.csv",
        names + SWEEP_COLUMNS,
        [[row.values[n] for n in names] + list(dataclasses.astuple(row)[1:]) for row in rows],
    )
    return EXIT_OK


def _run_mms(cfg: RunConfig, out: Path) -> int:
    ms = default_manufactured(cfg.length)
    result = mms_convergence(cfg.mms_resolutions, ms, cfg.scheme, length=cfg.length)
    result.spatial.write_csv(out / "table.csv")
    result.temporal.write_csv(out / "table_temporal.csv")
    return EXIT_OK


def _read_snapshot(
    path: Path, first: Optional[np.ndarray]
) -> Tuple[np.ndarray, EntropicState]:
    """The cell centers and the state stored in a snapshot; ConfigError
    naming a damaged file, or one whose centers are not ``first``, those of
    snapshot_0."""
    try:
        cols = _read_csv(path)
        x, state = cols["x"], EntropicState(phi=cols["phi"], w=cols["w"])
        to_primitive(state)
    except (OSError, ValueError, KeyError, IndexError, BlowupError) as exc:
        raise ConfigError(str(path), f"damaged snapshot: {exc}") from exc
    if first is not None and x.size != first.size:
        raise ConfigError(
            str(path), f"damaged snapshot: {x.size} cells, snapshot_0 has {first.size}"
        )
    if first is not None and not np.array_equal(x, first):
        raise ConfigError(str(path), "damaged snapshot: its x column is not snapshot_0's")
    return x, state


def _run_audit(cfg: RunConfig, out: Path) -> int:
    """Re-audit a stored trajectory from its per-step snapshots."""
    traj_file = out / "trajectory.csv"
    if not traj_file.exists():
        raise ConfigError("output.directory", f"no trajectory.csv in {out}")
    try:
        times = _read_csv(traj_file)["t"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(str(traj_file), f"damaged trajectory: {exc}") from exc
    # The run stored times[k] = k * tau, so times[1] is its tau exactly; a
    # difference of two stored times is not (0.012 - 0.011 != 0.001).
    tau = float(times[1]) if times.size > 1 else 0.0
    steps = tau * np.arange(times.size)
    _expect(
        tau > 0.0 and bool(np.all(np.abs(times - steps) <= 1e-9 * steps)),
        str(traj_file),
        "damaged trajectory: times must be 0, tau, 2 tau, ... for some tau > 0",
    )
    states: List[EntropicState] = []
    centers: Optional[np.ndarray] = None  # snapshot_0's
    for k in range(len(times)):
        snap = out / f"snapshot_{k}.csv"
        if not snap.exists():
            raise ConfigError(
                "output.snapshot_stride",
                "audit mode needs snapshots at every step (snapshot_stride=1)",
            )
        x, state = _read_snapshot(snap, centers)
        if centers is None:
            centers = x
        states.append(state)
    n = centers.size
    _expect_cell_width(cfg.length, n)
    grid = build_grid(n, cfg.length)
    # Every audit term scales with h, so a wrong length would pass unseen;
    # the writer's %.17g round-trips, so the stored centers match exactly.
    if not np.array_equal(centers, grid.cell_centers):
        raise ConfigError(
            "grid.length",
            f"snapshot_0.csv does not hold the cell centers of length {cfg.length:.17g}; "
            f"its first center implies length {2 * n * centers[0]:.17g}",
        )
    p = dataclasses.replace(cfg.scheme, tau=tau)
    records = [
        {
            "step": k,
            "t": float(times[k]),
            "tau_used": tau,
            "iterations": 0,
            "residual": None,
            **budget_audit(grid, states[k - 1], states[k], p, float(times[k])),
            **entropy_audit(grid, states[k - 1], states[k], p),
        }
        for k in range(1, len(states))
    ]
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
        doc = _document(text, argv[2:], mode)
        out = Path(_output_directory(doc))
        cfg = _validate(doc)
        try:  # audit reports its unreadable inputs itself
            out.mkdir(parents=True, exist_ok=True)
            return _RUNNERS[mode](cfg, out)
        except OSError as exc:
            raise ConfigError("output.directory", f"cannot write to {out}: {exc}") from exc
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
