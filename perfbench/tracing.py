"""Span tracing of etlab's public entry points, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers from outside the
package, so etlab itself carries no tracing code. Where a module binds a
function with a from-import (scheme binds the thermo and grid functions,
cli binds the scheme audits), the importing namespace is patched, because
patching the defining module would not reach those call sites.

A span is ``[name, parent_index, start, end, info]``; spans are appended
when they start, so a parent always precedes its children.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

_THERMO = ("to_primitive", "onsager_edge", "edge_mean")
_GRID = ("grad_edge", "div_edge", "second_diff", "integrate")


class Tracer:
    """Collects nested spans in memory; one thread, one stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = [-1]

    def wrap(
        self,
        name: str,
        fn: Callable,
        info: Optional[Callable[[tuple], Any]] = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0, info(args) if info else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def patch(self, owner: Any, attr: str, name: str, info=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))


def install(tracer: Tracer) -> Callable[[Sequence[str]], int]:
    """Wrap etlab's entry points; returns the traced ``etlab.cli.main``."""
    import etlab.cli as cli
    import etlab.kinetic as kinetic
    import etlab.linalg as linalg
    import etlab.scheme as scheme

    chol = linalg.BandedCholesky
    tracer.patch(chol, "__init__", "linalg.factor", lambda a: (a[1].n, a[1].bandwidth))
    tracer.patch(chol, "solve", "linalg.solve", lambda a: (a[0].n, a[0].bandwidth))
    for attr in _THERMO:
        tracer.patch(scheme, attr, f"thermo.{attr}")
    for attr in _GRID:
        tracer.patch(scheme, attr, f"grid.{attr}")
    for attr in ("fixed_point_step", "budget_audit", "entropy_audit", "run_transient"):
        tracer.patch(scheme, attr, f"scheme.{attr}")
    for attr in ("budget_audit", "entropy_audit"):
        tracer.patch(cli, attr, f"scheme.{attr}")
    tracer.patch(cli, "run_transient", "scheme.run_transient")
    for attr in ("kinetic_step", "maxwellian_1d", "run_kinetic"):
        tracer.patch(kinetic, attr, f"kinetic.{attr}")
    tracer.patch(cli, "run_kinetic", "kinetic.run_kinetic")
    return tracer.wrap("cli.main", cli.main)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children.setdefault(span[1], []).append(i)
    out = []
    for i, (_, _, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][2]):
            lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _percentile(values: Sequence[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tau_halvings(records: Sequence[dict], tau: float) -> int:
    """Halvings behind the accepted attempts, replaying run_transient's substeps."""
    halvings = 0
    remaining = tau
    for rec in records:
        tried = min(tau, remaining)
        while tried > rec["tau_used"] * (1.0 + 1e-9):
            tried *= 0.5
            halvings += 1
        remaining -= rec["tau_used"]
        if remaining <= 1e-12 * tau:
            remaining = tau
    return halvings


def layer_metrics(
    spans: Sequence[Sequence],
    wall_s: float,
    records: Sequence[dict],
    tau: float,
    files_written: int,
    bytes_written: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced sample.

    ``records`` are the macro run's audit records (empty for kinetic runs);
    ``wall_s`` is the summed duration of the traced ``main`` calls.
    """
    selfs = self_times(spans)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, s in zip(spans, selfs):
        name = span[0]
        total[name] = total.get(name, 0.0) + span[3] - span[2]
        own[name] = own.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1

    def by_module(module: str, table: Dict[str, float]) -> float:
        return sum(v for k, v in table.items() if k.startswith(module + "."))

    factors = [sp[4] for sp in spans if sp[0] == "linalg.factor"]
    solves = [sp[4] for sp in spans if sp[0] == "linalg.solve"]
    # Band Cholesky: about (bw+1)^2 flops per column; each triangular solve
    # about 2 bw + 1 per row, two solves per call.
    flops = sum(n * (bw + 1) ** 2 for n, bw in factors)
    flops += sum(2 * n * (2 * bw + 1) for n, bw in solves)

    step_ids = {i for i, sp in enumerate(spans) if sp[0] == "scheme.fixed_point_step"}
    step_ms = [1e3 * (spans[i][3] - spans[i][2]) for i in sorted(step_ids)]
    step_solves = sum(1 for sp in spans if sp[0] == "linalg.solve" and sp[1] in step_ids)
    # coupled_implicit solves once per iteration except the converged check.
    useful = sum(max(0, r["iterations"] - 1) for r in records)

    kin_ids = {i for i, sp in enumerate(spans) if sp[0] == "kinetic.kinetic_step"}
    kin_ms = [1e3 * (spans[i][3] - spans[i][2]) for i in sorted(kin_ids)]
    kin_max = sum(1 for sp in spans if sp[0] == "kinetic.maxwellian_1d" and sp[1] in kin_ids)
    n_kin = len(kin_ids)

    maxwellian_s = own.get("kinetic.maxwellian_1d", 0.0)
    attributed = sum(selfs)
    steps = len(records)
    return {
        "linalg.factor_calls": calls.get("linalg.factor", 0),
        "linalg.factor_s": total.get("linalg.factor", 0.0),
        "linalg.solve_calls": calls.get("linalg.solve", 0),
        "linalg.solve_s": total.get("linalg.solve", 0.0),
        "linalg.unknowns_factored": sum(n for n, _ in factors),
        "linalg.flops_computed": flops,
        "scheme.steps": steps,
        "scheme.iters_per_step": sum(r["iterations"] for r in records) / steps if steps else 0.0,
        "scheme.tau_halvings": tau_halvings(records, tau),
        "scheme.useful_solve_ratio": useful / step_solves if step_solves else 0.0,
        "scheme.step_ms_p50": _percentile(step_ms, 50),
        "scheme.step_ms_p90": _percentile(step_ms, 90),
        "scheme.audit_s": total.get("scheme.budget_audit", 0.0)
        + total.get("scheme.entropy_audit", 0.0),
        "scheme.self_s": by_module("scheme", own),
        "thermo.calls": sum(v for k, v in calls.items() if k.startswith("thermo.")),
        "thermo.s": by_module("thermo", own),
        "grid.calls": sum(v for k, v in calls.items() if k.startswith("grid.")),
        "grid.s": by_module("grid", own),
        "kinetic.steps": n_kin,
        "kinetic.step_ms_p50": _percentile(kin_ms, 50),
        "kinetic.step_ms_p90": _percentile(kin_ms, 90),
        "kinetic.relax_iters_per_step": kin_max / n_kin - 1.0 if n_kin else 0.0,
        "kinetic.maxwellian_s": maxwellian_s,
        "kinetic.self_s": by_module("kinetic", own) - maxwellian_s,
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.files_written": files_written,
        "cli.bytes_written": bytes_written,
        "trace.unattributed_s": wall_s - attributed,
    }
