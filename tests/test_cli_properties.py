"""Property tests: every ``etlab`` mode with any overrides exits with a
documented code, and every solver failure or configuration error leaves a
well-formed ``error.json``. ``audit`` replays a ``macro`` run made with
per-step snapshots.

The generated values keep every valid configuration tiny (at most 32 cells,
at most 5 steps of tau, at most 4 tau halvings, at most 4 runs per sweep),
so no example allocates a large grid or runs long. The other four modes
draw smaller values still: at most 16 cells and 16 velocities, t_final at
most 2e-3, kinetic eps at least 0.2 and mms resolutions of 3, 4 or 8 cells.
"""

import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from etlab.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main  # noqa: E402
from etlab.experiments import PRESET_NAMES  # noqa: E402

DOCUMENTED_EXITS = {EXIT_OK, EXIT_SOLVER, EXIT_CONFIG, EXIT_AUDIT}

# Raw override values that are not valid for any field, or only for some.
_JUNK = st.sampled_from(
    ["true", "null", "[]", "{}", '"x"', "oops", "1e999", "NaN", "-Infinity", "1" + "0" * 400]
)


def _json(strategy):
    return strategy.map(json.dumps)


# Valid-looking values per key; together with tau >= 1e-3 and
# t_final <= 5e-3 a config that passes validation runs at most 5 steps.
_FIELDS = {
    "grid.n_cells": _json(st.integers(-1, 32)),
    "grid.length": _json(st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0, 1e-100])),
    "scheme.tau": _json(st.sampled_from([1e-3, 2e-3, 0.0, -1e-3])),
    "scheme.t_final": _json(st.sampled_from([1e-3, 1.5e-3, 2e-3, 4e-3, 5e-3, 0.0])),
    "scheme.eps": _json(st.sampled_from([0.0, 1e-6, 1e-3, -1.0])),
    "scheme.delta": _json(st.sampled_from([0.0, 1e-4, 1e-2, -1.0])),
    "scheme.n_exp": _json(st.sampled_from([0.5, 2.0, 4.5, 0.0, 5.0])),
    "scheme.fp_tol": _json(st.sampled_from([1e-12, 1e-10, 1e-6, 0.0])),
    "scheme.fp_max_iter": _json(st.integers(-1, 30)),
    "scheme.tau_backoff_limit": _json(st.integers(-1, 4)),
    "scheme.inner_mode": st.sampled_from(["coupled_implicit", "paper_picard", "newton"]),
    "scheme.init_floor": _json(st.sampled_from([1e-12, 1e-3, 0.0])),
    "init.preset": st.sampled_from(list(PRESET_NAMES) + ["nope"]),
    "output.snapshot_stride": _json(st.integers(-1, 5)),
    "sweep.varied": _json(
        st.sampled_from(
            [
                {"delta": [1e-2, 1e-4]},
                {"init_floor": [1e-3, 0.0]},
                {"tau": [2e-3, 1e-3], "eps": [0.0, 1e-6]},
                {"t_final": [1e-3, 1.5e-3]},
                {"fp_max_iter": [1]},
                {"delta": []},
                {},
            ]
        )
    ),
    "sweep.which": _json(st.sampled_from(["delta", "tau"])),
    "scheme.sigma_ramp": _json(st.just(0.5)),
    "scheme.fp_damping": _json(st.just(1.0)),
    "grid.size": _json(st.just(8)),
    "bogus.key": _json(st.just(1)),
}


# kinetic, compare, mms and audit: the fields above at smaller sizes, and
# those of the kinetic and mms sections.
_SMALL_FIELDS = dict(
    _FIELDS,
    **{
        "grid.n_cells": _json(st.integers(-1, 16)),
        "scheme.t_final": _json(st.sampled_from([1e-3, 1.5e-3, 2e-3, 0.0])),
        "kinetic.eps": _json(
            st.sampled_from(
                [0.2, 0.4, [0.4, 0.2], [0.8, 0.4, 0.2], [0.2, 0.4], [0.4, 0.0], [], 0.0, 1e300]
            )
        ),
        "kinetic.n_v": _json(st.integers(-1, 16)),
        "kinetic.v_max": _json(st.sampled_from([4.0, 8.0, 0.0, -1.0])),
        "mms.resolutions": _json(
            st.one_of(
                st.lists(st.sampled_from([3, 4, 8]), max_size=3),
                st.sampled_from([[2], [8, 2], [4.5]]),
            )
        ),
    },
)


@st.composite
def _overrides(draw, fields=_FIELDS):
    keys = draw(st.lists(st.sampled_from(sorted(fields)), max_size=6, unique=True))
    items = []
    for key in keys:
        raw = draw(st.one_of(fields[key], _JUNK))
        items.append(f"{key}={raw}")
    return items


_BASE = {
    "grid": {"n_cells": 16, "length": 1.0},
    "scheme": {"tau": 1e-3, "t_final": 2e-3, "tau_backoff_limit": 2},
}

# Derandomized and without an example database: the same examples every
# run, and no files left in the working directory.
_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(overrides=_overrides())
def test_macro_with_any_overrides_returns_documented_code(overrides):
    _assert_documented_exit("macro", dict(_BASE, mode="macro"), overrides)


@_SETTINGS
@given(overrides=_overrides())
def test_sweep_with_any_overrides_returns_documented_code(overrides):
    base = dict(_BASE, mode="sweep", sweep={"varied": {"delta": [1e-4]}})
    _assert_documented_exit("sweep", base, overrides)


@_SETTINGS
@given(overrides=_overrides(_SMALL_FIELDS))
def test_kinetic_with_any_overrides_returns_documented_code(overrides):
    base = dict(_BASE, mode="kinetic", kinetic={"eps": 0.2, "n_v": 16})
    _assert_documented_exit("kinetic", base, overrides)


@_SETTINGS
@given(overrides=_overrides(_SMALL_FIELDS))
def test_compare_with_any_overrides_returns_documented_code(overrides):
    base = dict(_BASE, mode="compare", kinetic={"eps": [0.4, 0.2], "n_v": 16})
    _assert_documented_exit("compare", base, overrides)


@_SETTINGS
@given(overrides=_overrides(_SMALL_FIELDS))
def test_mms_with_any_overrides_returns_documented_code(overrides):
    base = dict(_BASE, mode="mms", mms={"resolutions": [4, 8]})
    _assert_documented_exit("mms", base, overrides)


@_SETTINGS
@given(overrides=_overrides(_SMALL_FIELDS))
def test_audit_with_any_overrides_returns_documented_code(overrides):
    # The replayed run is the macro base run, snapshotted at every step.
    base = dict(_BASE, mode="audit", output={"snapshot_stride": 1})
    _assert_documented_exit("audit", base, overrides, first="macro")


def _assert_documented_exit(mode, base, overrides, first=None):
    """Run ``mode`` on ``base`` with ``overrides``, after a run of ``first``
    without them into the same directory, when given."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/cfg.json"
        with open(cfg, "w", encoding="utf-8") as f:
            json.dump(base, f)
        out = f"output.directory={tmp}/out"
        if first is not None:
            assert main([first, cfg, out]) == EXIT_OK
        code = main([mode, cfg, *overrides, out])
        error_file = Path(tmp) / "out" / "error.json"
        if code in (EXIT_SOLVER, EXIT_CONFIG):
            record = json.loads(error_file.read_text(encoding="utf-8"))
            kind = "solver" if code == EXIT_SOLVER else "config"
            assert record == {"error": kind, "message": record["message"]}
            assert isinstance(record["message"], str) and record["message"]
        else:
            assert not error_file.exists()
    assert code in DOCUMENTED_EXITS
