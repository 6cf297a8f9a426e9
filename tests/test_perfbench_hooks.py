"""The benchmark's tracer wraps package attributes by name.

perfbench/tracer.py patches module attributes of crossing_kit from outside
the package; a name it hooks that disappears, or a call that stops going
through a hooked name, would fail or silently zero only the traced
benchmark runs. This test installs the tracer in a fresh interpreter (its
patches must not leak into other tests) and runs two sweep rows under it.
Each row must run one extraction, a march that calls neither the adaptive
solver (the model's ODE oracle or the pair's DOP853), the branch
decomposition, the right-hand side nor the dense-grid builder; the model's
removed whole-grid solver names stay hooked but are never called. So the
benchmark's counters keep their meaning.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import collections

import crossing_kit
import tracer
from crossing_kit import sweep
from crossing_kit.normalform import model_corpus
from crossing_kit.schrodinger import schrodinger_corpus

t = tracer.Tracer()
tracer.install(t)
assert isinstance(crossing_kit.BACKEND, str)
sweep._solve_pair(model_corpus(1e-1)[0], 1e-1)
names = {s.name for s in t.spans()}
rows = {s.row for s in t.spans()}
missing = {"sweep.row", "predict", "normalform.transfer_numeric"} - names
assert not missing, missing
assert rows == {1e-1}, rows
# one extraction, one march: no workspace, series or ODE span
per_name = collections.Counter(s.name for s in t.spans())
for name, want in (
    ("normalform.transfer_numeric", 1),
    ("normalform.workspace.request", 0),
    ("normalform.workspace.build", 0),
    ("normalform.neumann_solve", 0),
    ("normalform.extract_transfer", 0),
    ("normalform.ode_oracle", 0),
    ("grids.grid_for", 0),
):
    assert per_name[name] == want, (name, per_name[name])

assert t.counts()["kernels.schrod_rhs.calls"] == 0
sweep._solve_pair(schrodinger_corpus(1e-2)[0], 1e-2)
per_name = collections.Counter(s.name for s in t.spans() if s.row == 1e-2)
for name, want in (
    ("sweep.row", 1),
    ("schrodinger.numeric_transfer", 1),
    ("schrodinger.ode", 0),
    ("schrodinger.branch_decompose", 0),
    ("grids.grid_for", 0),
):
    assert per_name[name] == want, (name, per_name[name])
assert t.counts()["kernels.schrod_rhs.calls"] == 0
print("ok")
"""


def test_tracer_installs_and_sees_a_row():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
