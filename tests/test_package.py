"""The package's public surface: ``crossing_kit.__all__`` against what
``__init__`` imports, and what importing and running the CLI loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import crossing_kit
from crossing_kit.normalform import model_corpus, ode_oracle


def test_all_is_sorted_unique_and_complete():
    names = crossing_kit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(crossing_kit, name) is not None, name
    # every public name that __init__ imports is exported, so a removal
    # that leaves an import or an __all__ entry behind fails here
    tree = ast.parse(Path(crossing_kit.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {n for n in imported if not n.startswith("_")} <= set(names)


# In a fresh interpreter: import the CLI, run `verify` on a short grid of
# each family, and report whether scipy.integrate got loaded; then call the
# model's DOP853 oracle once and report its values.
_IMPORT_BUDGET_SCRIPT = """
import json, sys
import crossing_kit.cli as cli
loaded = {"import": "scipy.integrate" in sys.modules}
for name, kind, values in (
    ("model", "model-corpus", [1e-1, 1e-2, 1e-3, 1e-4]),
    ("schrodinger", "schrodinger-corpus", [1e-2, 5e-3, 2.5e-3, 1e-4]),
):
    with open(name + ".json", "w") as fh:
        json.dump({"problem": {"kind": kind, "index": 0},
                   "h_grid": {"values": values},
                   "output": {"csv": name + ".csv"}}, fh)
    loaded[name] = cli.main(["verify", "--config", name + ".json"])
    loaded[name + " loads"] = "scipy.integrate" in sys.modules
from crossing_kit.normalform import model_corpus, ode_oracle
a = ode_oracle(model_corpus(1e-2)[0], (1.0, 0.5j), [-0.5, 0.0, 1.0])
loaded["oracle"] = [[z.real, z.imag] for z in a.ravel().tolist()]
loaded["oracle loads"] = "scipy.integrate" in sys.modules
print(json.dumps(loaded))
"""


def test_cli_runs_verify_without_loading_scipy_integrate(tmp_path):
    # scipy.integrate serves only the DOP853 test oracles and costs most of
    # the CLI's start-up; importing the package and running `verify` on
    # either family must not load it, and the oracle loads it on its call
    src = str(Path(crossing_kit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET_SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["model"] == 0 and report["schrodinger"] == 0
    assert not report["import"]
    assert not report["model loads"] and not report["schrodinger loads"]
    assert report["oracle loads"]
    want = ode_oracle(model_corpus(1e-2)[0], (1.0, 0.5j), [-0.5, 0.0, 1.0])
    got = np.array([complex(*z) for z in report["oracle"]]).reshape(want.shape)
    assert (got == want).all()
