"""Property tests: every ``etlab`` mode with any overrides exits with a
documented code, and every solver failure or configuration error leaves a
well-formed ``error.json``. ``audit`` replays a ``macro`` run made with
per-step snapshots. The last test checks that SchemeParams rejects each
scheme value of these pools exactly when the config reader does.

The generated values keep every valid configuration tiny (at most 32 cells,
at most 5 steps of tau, at most 4 tau halvings, at most 4 runs per sweep),
so no example allocates a large grid or runs long. The other four modes
draw smaller values still: at most 16 cells and 16 velocities, t_final at
most 2e-3, kinetic eps at least 0.2 and mms resolutions of 3, 4 or 8 cells.
"""

import itertools
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from etlab.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, _accept, main  # noqa: E402
from etlab.experiments import PRESET_NAMES  # noqa: E402
from etlab.scheme import PARAM_RULES, SchemeParams  # noqa: E402

DOCUMENTED_EXITS = {EXIT_OK, EXIT_SOLVER, EXIT_CONFIG, EXIT_AUDIT}

# Raw override values that are not valid for any field, or only for some.
_JUNK_VALUES = [
    "true", "null", "[]", "{}", '"x"', "oops", "1e999", "NaN", "-Infinity", "1" + "0" * 400
]
_JUNK = st.sampled_from(_JUNK_VALUES)

# Each key's values, in two lists: values that pass every check in any
# combination with the base configs and the first lists of the other keys,
# and values that fail one, alone or next to some other value. Together with
# tau >= 1e-3 and t_final <= 5e-3 a config that passes validation runs at
# most 5 steps.
_POOLS = {
    "grid.n_cells": (range(3, 33), [-1, 0, 1, 2]),
    "grid.length": ([0.5, 1.0, 2.0], [0.0, -1.0, 1e-100]),
    "scheme.tau": ([1e-3, 2e-3], [0.0, -1e-3]),
    "scheme.t_final": ([2e-3, 4e-3], [1e-3, 1.5e-3, 5e-3, 0.0]),
    "scheme.eps": ([0.0, 1e-6, 1e-3], [-1.0]),
    "scheme.delta": ([0.0, 1e-4, 1e-2], [-1.0]),
    "scheme.n_exp": ([0.5, 2.0, 4.5], [0.0, 5.0]),
    "scheme.fp_tol": ([1e-12, 1e-10, 1e-6], [0.0]),
    "scheme.fp_max_iter": (range(1, 31), [-1, 0]),
    "scheme.tau_backoff_limit": (range(0, 5), [-1]),
    "scheme.inner_mode": (["coupled_implicit", "paper_picard"], ["newton"]),
    "scheme.init_floor": ([1e-12, 1e-3, 0.0], []),
    "init.preset": (PRESET_NAMES, ["nope"]),
    "output.snapshot_stride": (range(1, 6), [-1, 0]),
    "sweep.varied": (
        [
            {"delta": [1e-2, 1e-4]},
            {"init_floor": [1e-3, 0.0]},
            {"tau": [2e-3, 1e-3], "eps": [0.0, 1e-6]},
        ],
        [{"t_final": [1e-3, 1.5e-3]}, {"fp_max_iter": [1]}, {"delta": []}, {}],
    ),
    "sweep.which": ([], ["delta", "tau"]),
    "scheme.sigma_ramp": ([], [0.5]),
    "scheme.fp_damping": ([], [1.0]),
    "grid.size": ([], [8]),
    "bogus.key": ([], [1]),
}

# kinetic, compare, mms and audit: the keys above at smaller sizes, and
# those of the kinetic and mms sections.
_SMALL_POOLS = dict(
    _POOLS,
    **{
        "grid.n_cells": (range(3, 17), [-1, 0, 1, 2]),
        "scheme.t_final": ([2e-3], [1e-3, 1.5e-3, 0.0]),
        "kinetic.eps": (
            [0.2, 0.4],  # kinetic mode runs one eps, compare takes one as a sweep
            [[0.4, 0.2], [0.8, 0.4, 0.2], [0.2, 0.4], [0.4, 0.0], [], 0.0, 1e300],
        ),
        "kinetic.n_v": (range(4, 17), [-1, 0, 1, 2, 3]),
        "kinetic.v_max": ([4.0, 8.0], [0.0, -1.0]),
        "mms.resolutions": (
            [list(r) for k in (1, 2, 3) for r in itertools.product([3, 4, 8], repeat=k)],
            [[], [2], [8, 2], [4.5]],
        ),
    },
)


# audit replays a run on [0, 1], so another length fails its check.
_AUDIT_POOLS = dict(_SMALL_POOLS, **{"grid.length": ([1.0], [0.5, 2.0, 0.0, -1.0, 1e-100])})


@st.composite
def _overrides(draw, pools=_POOLS):
    """Up to six overrides. About two examples in three draw from the first
    lists only, over the keys that have one; the others draw from both lists
    of every key and from _JUNK."""
    runs = draw(st.sampled_from([True, True, False]))
    keys = sorted(key for key, (ok, _) in pools.items() if ok or not runs)
    items = []
    for key in draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)):
        ok, bad = pools[key]
        values = st.sampled_from([*ok] if runs else [*ok, *bad]).map(json.dumps)
        raw = draw(values if runs else st.one_of(values, _JUNK))
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
@given(overrides=_overrides(_SMALL_POOLS))
def test_kinetic_with_any_overrides_returns_documented_code(overrides):
    base = dict(_BASE, mode="kinetic", kinetic={"eps": 0.2, "n_v": 16})
    _assert_documented_exit("kinetic", base, overrides)


@_SETTINGS
@given(overrides=_overrides(_SMALL_POOLS))
def test_compare_with_any_overrides_returns_documented_code(overrides):
    base = dict(_BASE, mode="compare", kinetic={"eps": [0.4, 0.2], "n_v": 16})
    _assert_documented_exit("compare", base, overrides)


@_SETTINGS
@given(overrides=_overrides(_SMALL_POOLS))
def test_mms_with_any_overrides_returns_documented_code(overrides):
    # Every mms run takes 195 steps in its temporal sweep. Unregularized and
    # at fp_tol = 1e-6, unless the overrides say otherwise, each takes about
    # 0.1 s.
    scheme = dict(_BASE["scheme"], eps=0.0, delta=0.0, fp_tol=1e-6)
    base = dict(_BASE, mode="mms", scheme=scheme, mms={"resolutions": [4, 8]})
    _assert_documented_exit("mms", base, overrides)


@_SETTINGS
@given(overrides=_overrides(_AUDIT_POOLS))
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


def _decoded(raw):
    """An override's value as the config reader reads it: JSON, or else the
    plain string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _rejection(check, prefix):
    """The message of the ValueError that ``check`` raises, without its
    ``prefix``; None when it raises none."""
    try:
        check()
    except ValueError as exc:
        assert str(exc).startswith(prefix), exc
        return str(exc)[len(prefix) :]
    return None


@pytest.mark.parametrize("name", list(PARAM_RULES))
def test_scheme_params_rejects_what_the_config_reader_rejects(name):
    ok, bad = _POOLS[f"scheme.{name}"]
    for value in [*ok, *bad, *map(_decoded, _JUNK_VALUES)]:
        library = _rejection(lambda: SchemeParams(**{name: value}), f"{name}: ")
        reader = _rejection(lambda: _accept(f"scheme.{name}", value), f"scheme.{name}: ")
        assert library == reader, value
