"""The package's public surface: ``crossing_kit.__all__`` against what
``__init__`` imports, the layering of its modules' imports, and that the
package imports and runs without scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import crossing_kit
from crossing_kit.normalform import model_corpus

from ode_oracles import ode_oracle


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


def _package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports, read from the source."""
    package = Path(crossing_kit.__file__).parent
    graph = {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def _external_imports(path: Path) -> set[str]:
    """The modules outside the package that the source at ``path``
    imports, by their full dotted names, and the attributes of numpy it
    reads (np.polynomial as numpy.polynomial)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy"):
                names.add(f"numpy.{node.attr}")
    return names


def test_module_imports_are_layered():
    # the import graph is acyclic, and the prediction route depends on no
    # solver: symbolcalc reaches only the error types and the transfer matrix
    graph = _package_imports()
    done, reach = set(), {}

    def visit(name, stack):
        assert name not in stack, " -> ".join((*stack, name))
        if name not in done:
            reach[name] = set()
            for dep in graph[name]:
                visit(dep, (*stack, name))
                reach[name] |= {dep} | reach[dep]
            done.add(name)

    for name in graph:
        visit(name, ())
    assert reach["symbolcalc"] <= {"errors", "transfer"}
    # the march is the package's one numerical engine: no module imports a
    # kernel module, and none loads numpy.polynomial (Poly1 evaluates,
    # differentiates, integrates and finds roots on its own)
    assert not any("kernels" in name for name in set(graph).union(*graph.values()))
    package = Path(crossing_kit.__file__).parent
    for path in package.glob("*.py"):
        for name in _external_imports(path):
            assert not name.startswith("numpy.polynomial"), (path.stem, name)


# The names of numpy's polynomial root finders and of its eigenvalue
# solvers, on which any root finder on a companion matrix would rest.
_ROOT_FINDERS = {"polyroots", "roots", "eig", "eigvals", "eigh", "eigvalsh"}


def test_profiles_holds_the_only_root_finder():
    # every family checks its crossing hypothesis with Poly1, whose roots
    # are the eigenvalues of a companion matrix: a second root finder, with
    # its own idea of which roots are real, fails here
    package = Path(crossing_kit.__file__).parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            aliases = {a.name for a in getattr(node, "names", ())}
            if name in _ROOT_FINDERS or aliases & _ROOT_FINDERS:
                users.add(path.stem)
    assert users == {"profiles"}


def test_sweep_fits_use_the_plain_power_law():
    # one fit rule: no call of fit_power_law in the package passes the
    # log(1/h) envelope, by keyword or as its second argument
    package = Path(crossing_kit.__file__).parent
    calls = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if name == "fit_power_law":
                    calls.append((path.stem, node))
    assert calls  # attach_fits fits every tracked quantity
    for stem, call in calls:
        with_log = any(k.arg in ("with_log", None) for k in call.keywords)
        assert len(call.args) == 1 and not with_log, (stem, call.lineno)


# In a fresh interpreter with scipy blocked: import every module of the
# package, and run `verify` on a short grid of each family. Then unblock
# scipy, call the model's DOP853 test oracle once and report its values.
_NO_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now fails
import crossing_kit
modules = [m.name for m in pkgutil.iter_modules(crossing_kit.__path__)]
for name in modules:
    importlib.import_module("crossing_kit." + name)
import crossing_kit.cli as cli
report = {"modules": modules}
for name, kind, values in (
    ("model", "model-corpus", [1e-1, 1e-2, 1e-3, 1e-4]),
    ("schrodinger", "schrodinger-corpus", [1e-2, 5e-3, 2.5e-3, 1e-4]),
):
    with open(name + ".json", "w") as fh:
        json.dump({"problem": {"kind": kind, "index": 0},
                   "h_grid": {"values": values},
                   "output": {"csv": name + ".csv"}}, fh)
    report[name] = cli.main(["verify", "--config", name + ".json"])
del sys.modules["scipy"]
sys.path.insert(0, sys.argv[1])
from crossing_kit.normalform import model_corpus
from ode_oracles import ode_oracle
a = ode_oracle(model_corpus(1e-2)[0], (1.0, 0.5j), [-0.5, 0.0, 1.0])
report["oracle"] = [[z.real, z.imag] for z in a.ravel().tolist()]
print(json.dumps(report))
"""


def test_cli_runs_verify_without_loading_scipy_integrate(tmp_path):
    # scipy serves only the DOP853 test oracles in tests/: every module of
    # the package imports, and `verify` passes on either family, with
    # scipy unimportable; the oracle gives the same values in a fresh
    # interpreter as in this one
    src = str(Path(crossing_kit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(Path(__file__).parent)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    package = Path(crossing_kit.__file__).parent
    assert set(report["modules"]) == {p.stem for p in package.glob("*.py")} - {
        "__init__"
    }
    assert report["model"] == 0 and report["schrodinger"] == 0
    want = ode_oracle(model_corpus(1e-2)[0], (1.0, 0.5j), [-0.5, 0.0, 1.0])
    got = np.array([complex(*z) for z in report["oracle"]]).reshape(want.shape)
    assert (got == want).all()
