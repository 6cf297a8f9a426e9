"""Property tests of the config front end: any JSON value at any key of a
valid config ends in a documented exit code, never a traceback.

Each example takes a valid config skeleton and replaces the values at one
to three of its key paths with arbitrary JSON: nested objects and arrays,
strings, booleans, null, NaN and infinities, integers far beyond the float
range and floats down to the subnormals. `predict` solves nothing and may
end in 0, 2 or 3. `solve-model`, `solve-schrodinger` and `sweep` run the
march on what survives validation and may also end in 1; their skeletons
start at h >= 1e-3, and while they run the node budget (`march.N_MAX`) is
lowered to _SOLVE_N_MAX and the grid size (`sweep.MAX_GRID_POINTS`) to
_SOLVE_GRID_COUNT, so that no drawn value makes a solve slow; values past
either bound take the refusal path that the full bounds take. Examples run
inside a fresh temporary directory and strings carry no path separator,
so a drawn `output.summary` or `output.csv` path stays inside it.
"""

import copy
import json
import os
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crossing_kit import march, sweep  # noqa: E402
from crossing_kit.cli import main  # noqa: E402

_SKELETONS = [
    {
        "mode": "predict",
        "problem": {
            "kind": "model",
            "m": 1,
            "f_coeffs": [0.0, 1.0],
            "coupling": {"width": 0.8, "amplitude": 1.0, "center": 0.0},
            "coupling2": {"width": 0.4, "amplitude": 0.7},
            "interval": [-1.0, 1.0],
        },
        "h": 1e-2,
        "jobs": 1,
        "seed": 0,
        "output": {"summary": "summary.json"},
    },
    {
        "problem": {
            "kind": "schrodinger",
            "n": 1,
            "v1_coeffs": [0.0, -0.25],
            "v2_coeffs": [0.0, 0.25],
            "e0": 1.0,
            "coupling": {"width": 0.8},
            "interval": [-1.2, 1.2],
        },
        "h": 1e-2,
        "branch": -1,
    },
    {
        "problem": {
            "kind": "schrodinger",
            "n": 1,
            "v1_coeffs": [0.0, -1.0],
            "v2_coeffs": [0.0, -2.0],
            "e0": 0.0,
            "coupling": {"width": 0.5},
            "interval": [-0.9, 0.9],
        },
        "h": 1e-3,
    },
    {"problem": {"kind": "model-corpus", "index": 5}, "h": 1e-3},
    {"problem": {"kind": "schrodinger-corpus", "index": 1}, "h": 1e-3, "branch": 1},
    {"problem": {"kind": "random-model", "m": 2}, "h": 1e-2, "seed": 7},
]

_MODEL = {
    "kind": "model",
    "m": 1,
    "f_coeffs": [0.0, 1.0],
    "coupling": {"width": 0.8, "amplitude": 1.0, "center": 0.0},
    "coupling2": {"width": 0.4, "amplitude": 0.7},
    "interval": [-1.0, 1.0],
}
_PAIR = {
    "kind": "schrodinger",
    "n": 1,
    "v1_coeffs": [0.0, -0.25],
    "v2_coeffs": [0.0, 0.25],
    "e0": 1.0,
    "coupling": {"width": 0.8},
    "interval": [-1.2, 1.2],
}
_SOLVE_MODEL_SKELETONS = [
    {"mode": "solve-model", "problem": _MODEL, "h": 1e-1, "jobs": 1, "seed": 0,
     "output": {"summary": "summary.json"}},
    {"problem": {"kind": "model-corpus", "index": 4}, "h": 1e-2},
    {"problem": {"kind": "random-model", "m": 2}, "h": 1e-2, "seed": 7},
]
_SOLVE_SCHRODINGER_SKELETONS = [
    {"mode": "solve-schrodinger", "problem": _PAIR, "h": 5e-2, "branch": -1,
     "output": {"summary": "summary.json"}},
    {"problem": {"kind": "schrodinger-corpus", "index": 1}, "h": 1e-2, "branch": 1},
]
_SWEEP_SKELETONS = [
    {"mode": "sweep", "problem": {"kind": "model-corpus", "index": 0},
     "h_grid": {"values": [1e-1, 5e-2, 1e-2, 1e-3]}, "jobs": 2,
     "output": {"csv": "sweep.csv", "summary": "summary.json"}},
    {"problem": _PAIR, "h_grid": {"start": 1e-1, "stop": 1e-3, "count": 4}},
    {"problem": {"kind": "random-model", "m": 1}, "seed": 3,
     "h_grid": {"values": [1e-1, 3e-2, 1e-2, 1e-3]}},
]
# bounds while a solving mode runs: a 40 000-node march takes milliseconds
_SOLVE_N_MAX = 40_000
_SOLVE_GRID_COUNT = 8

_CORPUS0 = {"kind": "model-corpus", "index": 0}

_EDGE_NUMBERS = st.sampled_from(
    [0, -1, 1, 2, 63, 64, 65, 170, 3000, 10**8, 2**63, -(2**63), 10**400,
     0.0, -0.0, 5e-324, 1e-320, 1e-200, 1e-16, 1e200, 1.7976931348623157e308]
)
_TEXT = st.text(st.characters(blacklist_characters="/\\"), max_size=6)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | _TEXT
    | _EDGE_NUMBERS
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every key path (dict keys and list indices) below ``node``."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _substitute(config, path, value):
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def configs(draw, skeletons=_SKELETONS):
    config = copy.deepcopy(draw(st.sampled_from(skeletons)))
    for _ in range(draw(st.integers(1, 3))):
        # an earlier substitution may have replaced a subtree, so the paths
        # are enumerated afresh each time
        paths = list(_paths(config))
        value = draw(_EDGE_NUMBERS | _SCALARS | _JSON)
        _substitute(config, draw(st.sampled_from(paths)), value)
    return config


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
# inputs that once ended in a traceback: an integer beyond the float range,
# an order whose factorial overflows a float, a NUL in a file name and an
# output directory that does not exist
@example({"problem": _CORPUS0, "h": 10**400})
@example({"problem": {"kind": "random-model", "m": 170}, "h": 1e-2})
@example({"problem": _CORPUS0, "h": 1e-2, "output": {"summary": "s\0.json"}})
@example({"problem": _CORPUS0, "h": 1e-2, "output": {"summary": "no/s.json"}})
def test_predict_never_raises_on_any_json_value(config):
    assert _run("predict", config) in (0, 2, 3)


def _run(mode, config):
    """Exit code of ``mode`` on ``config``, in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            return main([mode, "--config", "config.json"])
        finally:
            os.chdir(cwd)


def _run_solving(mode, config):
    with mock.patch.object(march, "N_MAX", _SOLVE_N_MAX), mock.patch.object(
        sweep, "MAX_GRID_POINTS", _SOLVE_GRID_COUNT
    ):
        return _run(mode, config)


_SOLVING = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SOLVING
@given(configs(_SOLVE_MODEL_SKELETONS))
def test_solve_model_never_raises_on_any_json_value(config):
    assert _run_solving("solve-model", config) in (0, 1, 2, 3)


@_SOLVING
@given(configs(_SOLVE_SCHRODINGER_SKELETONS))
def test_solve_schrodinger_never_raises_on_any_json_value(config):
    assert _run_solving("solve-schrodinger", config) in (0, 1, 2, 3)


@_SOLVING
@given(configs(_SWEEP_SKELETONS))
# a node budget hit in some rows and not in others, and a grid count past
# the bound
@example({"problem": _CORPUS0, "h_grid": {"values": [1e-1, 1e-2, 1e-3, 1e-5]}})
@example({"problem": _CORPUS0, "h_grid": {"start": 1e-1, "stop": 1e-3, "count": 9}})
def test_sweep_never_raises_on_any_json_value(config):
    assert _run_solving("sweep", config) in (0, 1, 2, 3)
