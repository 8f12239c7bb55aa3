"""End-to-end and per-layer benchmark of the etlab command line.

Usage:
    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference

Run from the repository root. Each sample is one fresh interpreter (one at a
time) that imports ``etlab.cli`` from ``src/`` and calls ``etlab.cli.main``
with a config generated from the seed; samples repeat for ``--seconds``.
Every sample's outputs are checked. With ``--trace 0`` the last line of
standard output reports the end-to-end metrics (medians over samples); with
``--trace 1`` traced and untraced samples alternate and it reports the
per-layer metrics. The lines before it give quartiles, sample counts and the
failure ratio. See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
# Every process stops before the 180 s a run may take.
DEADLINE_S = 165.0
# Final fields on the default seed must match reference.json to this
# relative tolerance: loose enough for roundoff and solver-tolerance changes.
REF_RTOL = 1e-5
REF_ATOL = 1e-9
# Relative amplitude of the seeded cosine perturbation of the preset profile.
PERTURBATION = 0.02
N_MODES = 4
# Per-step conservation bounds of acceptance criterion 8.
KIN_MASS_STEP = 1e-12
KIN_ENERGY_STEP = 1e-10
# Single-threaded BLAS, so samples do not contend for the cores.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_TIME_SAMPLES = 3
E2E_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    preset: str
    n_cells: int
    scheme: Dict[str, float]
    kinetic: Dict[str, float] = field(default_factory=dict)
    snapshot_stride: int = 10
    # Weight of the interpreter kernel in the host speed that scales wall_s
    # (hostspeed.py): about the share of the run spent in interpreter loops.
    # Fitted on ten runs per workload as load changed: the macro runs are
    # mostly pure-Python banded Cholesky, the kinetic run mostly numpy.
    py_weight: float = 0.8

    @property
    def tau(self) -> float:
        return self.scheme.get("tau", 1e-3)

    @property
    def n_steps(self) -> int:
        """Macro steps of tau, or kinetic steps as run_kinetic sizes them (CFL 0.9)."""
        t_final = self.scheme["t_final"]
        if self.calls[0] == "kinetic":
            dt_max = 0.9 * self.kinetic["eps"] * (1.0 / self.n_cells) / self.kinetic["v_max"]
            return max(1, math.ceil(t_final / dt_max))
        return round(t_final / self.tau)

    def config(self, seed: int) -> dict:
        """The full CLI config for a seed, with explicit perturbed init arrays."""
        rng = random.Random(f"{self.name}/{seed}")
        x = [(i + 0.5) / self.n_cells for i in range(self.n_cells)]
        rho, theta = _preset(self.preset, x)
        doc = {
            "mode": self.calls[0],
            "grid": {"n_cells": self.n_cells, "length": 1.0},
            "scheme": dict(self.scheme),
            "init": {"rho0": _perturb(rho, x, rng), "theta0": _perturb(theta, x, rng)},
            "output": {"snapshot_stride": self.snapshot_stride},
        }
        if self.kinetic:
            doc["kinetic"] = dict(self.kinetic)
        return doc


def _preset(name: str, x: List[float]):
    """The CLI's preset profiles on the unit interval (etlab.experiments)."""
    if name == "gauss-bump":
        return [0.2 + math.exp(-50.0 * (xi - 0.5) ** 2) for xi in x], [1.0] * len(x)
    if name == "temp-step":
        return [1.0] * len(x), [0.5 + 0.25 * (1.0 + math.tanh((xi - 0.5) / 0.1)) for xi in x]
    raise ValueError(f"unknown preset {name!r}")


def _perturb(values: List[float], x: List[float], rng: random.Random) -> List[float]:
    """Multiply by 1 + a smooth cosine series; cosines keep the no-flux walls."""
    coef = [rng.uniform(-1.0, 1.0) for _ in range(N_MODES)]
    return [
        v * (1.0 + PERTURBATION / N_MODES * sum(
            c * math.cos((k + 1) * math.pi * xi) for k, c in enumerate(coef)
        ))
        for v, xi in zip(values, x)
    ]


# Why each workload: see README.md. The n = 1024 run sets fp_tol = 1e-8
# explicitly, because the default 1e-10 lies below the residual roundoff
# floor at that size and the run exits 2 after 11 tau halvings.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "macro-n1024",
            ("macro",),
            "gauss-bump",
            1024,
            {"tau": 1e-3, "t_final": 0.02, "fp_tol": 1e-8},
        ),
        Workload(
            "macro-n64-replay",
            ("macro", "audit"),
            "temp-step",
            64,
            {"tau": 1e-3, "t_final": 0.2},
            snapshot_stride=1,
        ),
        Workload(
            "kinetic-n256",
            ("kinetic",),
            "gauss-bump",
            256,
            {"t_final": 0.1},
            {"eps": 0.1, "n_v": 64, "v_max": 8.0},
            py_weight=0.5,
        ),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    return json.dumps(workload.config(seed), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ETLAB_OUTPUT_DIR"}
    env.update(CHILD_ENV, PYTHONPATH=str(SRC))
    return env


def run_sample(
    workload: Workload, config_path: Path, sample_dir: Path, trace: bool, deadline: float
) -> dict:
    """Run one sample in a fresh interpreter; returns its measurement record."""
    out = sample_dir / "out"
    out.mkdir(parents=True)
    spec = {
        "sample_dir": str(sample_dir),
        "calls": [[mode, str(config_path), f"output.directory={out}"] for mode in workload.calls],
        "trace": trace,
        "tau": workload.tau,
        "py_weight": workload.py_weight,
    }
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv + [repr(spawned)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=sample_dir,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child exited {proc.returncode}: {stderr[-2000:]}"}


def _read_csv(path: Path) -> Dict[str, List[float]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}


def _audit_problems(path: Path, min_records: int, exact: bool) -> List[str]:
    if not path.exists():
        return [f"missing {path.name}"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    records = doc.get("records", [])
    problems = []
    if doc.get("all_passed") is not True:
        problems.append(f"{path.name}: all_passed is not true")
    failed = [
        r.get("step")
        for r in records
        if not (r.get("mass_pass") and r.get("energy_pass") and r.get("entropy_pass"))
    ]
    if failed:
        problems.append(f"{path.name}: audits fail at steps {failed[:5]}")
    if len(records) < min_records or (exact and len(records) != min_records):
        problems.append(f"{path.name}: {len(records)} records, expected {min_records}")
    return problems


def _final_file(workload: Workload) -> str:
    if workload.calls[0] == "kinetic":
        return "kinetic_final.csv"
    return f"snapshot_{workload.n_steps}.csv"


def _final_fields(workload: Workload, out: Path) -> Dict[str, List[float]]:
    cols = _read_csv(out / _final_file(workload))
    names = ("rho", "theta_b") if workload.calls[0] == "kinetic" else ("rho", "theta")
    return {k: cols[k] for k in names}


def check_sample(
    workload: Workload, sample_dir: Path, result: dict, reference: Optional[dict] = None
) -> List[str]:
    """Problems with one sample's exit codes and outputs; empty when it passed."""
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]]
    problems = [
        f"{mode} exited {rc}" for mode, rc in zip(workload.calls, result["rcs"]) if rc != 0
    ]
    if len(result["rcs"]) != len(workload.calls):
        problems.append(f"{len(result['rcs'])} of {len(workload.calls)} calls ran")
    if problems:
        return problems
    out = sample_dir / "out"
    n = workload.n_steps
    if workload.calls[0] == "kinetic":
        expected = ["kinetic_trajectory.csv", "kinetic_final.csv"]
    else:
        stride = workload.snapshot_stride
        expected = ["trajectory.csv", "audits.json"]
        expected += [f"snapshot_{k}.csv" for k in range(n + 1) if k % stride == 0 or k == n]
    missing = [name for name in expected if not (out / name).exists()]
    if missing:
        return [f"missing outputs {missing[:5]}"]

    if workload.calls[0] == "kinetic":
        traj = _read_csv(out / "kinetic_trajectory.csv")
        for col, per_step in (("mass", KIN_MASS_STEP), ("energy_total", KIN_ENERGY_STEP)):
            values = traj[col]
            bound = n * per_step * (1.0 + max(abs(v) for v in values))
            drift = max(abs(v - values[0]) for v in values)
            if drift > bound:
                problems.append(f"kinetic {col} drift {drift:.3e} > {bound:.3e}")
        if min(traj["min_theta_b"]) <= 0.0:
            problems.append("kinetic theta_b not positive")
    else:
        traj = _read_csv(out / "trajectory.csv")
        if len(traj["t"]) != n + 1:
            problems.append(f"trajectory.csv has {len(traj['t'])} rows, expected {n + 1}")
        if min(traj["min_theta"]) <= 0.0:
            problems.append("theta not positive")
        problems += _audit_problems(sample_dir / "audits.macro.json", n, exact=False)
        if "audit" in workload.calls:
            problems += _audit_problems(sample_dir / "audits.audit.json", n, exact=True)

    if reference is not None:
        got = _final_fields(workload, out)
        for key, want in reference["fields"].items():
            have = got[key][:: reference["every"]]
            if len(have) != len(want) or any(
                abs(a - b) > REF_RTOL * abs(b) + REF_ATOL for a, b in zip(have, want)
            ):
                problems.append(f"{_final_file(workload)}: {key} differs from the reference")
    return problems


# ---------------------------------------------------------------------------
# set-up breakdown and aggregation
# ---------------------------------------------------------------------------


def import_times(stderr: str) -> Dict[str, float]:
    """Split ``-X importtime`` output of ``import etlab.cli`` into numpy, sympy and etlab."""
    cumulative: Dict[str, int] = {}
    etlab_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        raw = parts[2][1:]
        name = raw.strip()
        us = int(parts[1])
        cumulative.setdefault(name, us)
        if raw == name and (name == "etlab" or name.startswith("etlab.")):
            etlab_us += us
    numpy_us = cumulative.get("numpy", 0)
    sympy_us = cumulative.get("sympy", 0)
    return {
        "setup.import_numpy_s": numpy_us / 1e6,
        "setup.import_sympy_s": sympy_us / 1e6,
        "setup.import_etlab_s": max(0, etlab_us - numpy_us - sympy_us) / 1e6,
    }


def _import_time_sample(deadline: float) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import etlab.cli"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return import_times(proc.stderr)


def _median_table(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _load_reference(workload: Workload, seed: int) -> Optional[dict]:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    run_dir = RUNS / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(config_text(workload, seed), encoding="utf-8")
    reference = _load_reference(workload, seed)

    # Compiles bytecode and warms the file cache; not measured.
    subprocess.run(
        [sys.executable, "-c", "import etlab.cli"], env=child_env(), check=True, timeout=60
    )
    setup_rows = (
        [_import_time_sample(deadline) for _ in range(IMPORT_TIME_SAMPLES)] if trace else []
    )

    samples: Dict[bool, List[dict]] = {False: [], True: []}
    kept: Dict[bool, Path] = {}
    attempted = failed = 0
    measure_start = time.monotonic()
    while (
        attempted < (2 if trace else 1) or time.monotonic() - measure_start < seconds
    ) and time.monotonic() < deadline - 10.0:
        traced = trace and attempted % 2 == 1
        sample_dir = run_dir / f"sample-{attempted}"
        result = run_sample(workload, config_path, sample_dir, traced, deadline)
        attempted += 1
        problems = check_sample(workload, sample_dir, result, reference)
        if problems:
            failed += 1
            print(f"sample {attempted - 1} failed: {'; '.join(problems)}", file=sys.stderr)
        if "error" not in result:
            samples[traced].append(result)
        # Keep the latest sample of each kind for inspection.
        if traced in kept:
            shutil.rmtree(kept[traced], ignore_errors=True)
        kept[traced] = sample_dir

    plain = samples[False]
    print(
        f"workload {workload.name}  seed {seed}  samples {attempted}  failed {failed}"
        f"  fail_ratio {failed / attempted:.3f}  (config {config_path.relative_to(ROOT)})"
    )
    metrics: Dict[str, dict] = {}
    ok = failed == 0
    if not trace and plain:
        # wall_s and setup_s are scaled to the reference host speed
        # (hostspeed.py); the raw clock times and the host speed are shown too.
        for name, unit in (
            ("wall_s", "s"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("wall_raw_s", "s"),
            ("setup_raw_s", "s"),
            ("host_speed", "x"),
        ):
            values = [r[name] for r in plain]
            q1, q3 = _quartiles(values)
            med = statistics.median(values)
            if name in E2E_METRICS:
                metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}")
            print(f"    samples: {' '.join(f'{v:.4f}' for v in values)}")
    elif trace and plain and samples[True]:
        traced_rows = [r["layers"] for r in samples[True]]
        layers = _median_table(traced_rows)
        layers.update(_median_table(setup_rows))
        overhead = statistics.median(r["wall_s"] for r in samples[True]) - statistics.median(
            r["wall_raw_s"] for r in plain
        )
        layers["trace.overhead_s"] = overhead
        # Self times must add up to the traced wall time.
        slack = max(abs(overhead), 1e-3)
        gaps = [row["trace.unattributed_s"] for row in traced_rows]
        if any(abs(g) > slack for g in gaps):
            ok = False
            print(f"trace inconsistent: unattributed {max(gaps, key=abs):.4f} s > {slack:.4f} s",
                  file=sys.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            metrics[name] = {"value": layers[name], "unit": units[name]}
            print(f"  {name:<30} {layers[name]:.6g} {units[name]}")
        print(f"  traced samples {len(traced_rows)}, untraced {len(plain)}")
    else:
        ok = False
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


def write_reference() -> int:
    """Store the default seed's final fields, every 8th cell, in reference.json."""
    refs = {}
    for workload in WORKLOADS.values():
        run_dir = RUNS / "reference" / workload.name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        config_path = run_dir / "config.json"
        config_path.write_text(config_text(workload, DEFAULT_SEED), encoding="utf-8")
        sample_dir = run_dir / "sample"
        result = run_sample(workload, config_path, sample_dir, False, time.monotonic() + 600)
        problems = check_sample(workload, sample_dir, result)
        if problems:
            print(f"{workload.name}: {problems}", file=sys.stderr)
            return 1
        fields = _final_fields(workload, sample_dir / "out")
        refs[workload.name] = {
            "seed": DEFAULT_SEED,
            "every": 8,
            "fields": {k: v[::8] for k, v in fields.items()},
        }
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "etlab" / "cli.py").is_file():
        print(f"no etlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
