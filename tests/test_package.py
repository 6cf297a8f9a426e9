"""The package's public surface: ``crossing_kit.__all__`` against what
``__init__`` imports, the layering of its modules' imports, and that the
package imports and runs without scipy."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import crossing_kit
from crossing_kit import march, sweep
from crossing_kit.normalform import NormalFormProblem, model_corpus
from crossing_kit.schrodinger import SchrodingerProblem, schrodinger_corpus
from crossing_kit.transfer import Problem

from ode_oracles import ode_oracle
from quad10 import cum_quad10


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


def test_march_system_holds_what_only_a_family_knows():
    # the march works out the phase F and the Neumann chain count from
    # ``local``: a family hands it these five fields and no more
    names = [field.name for field in dataclasses.fields(march.System)]
    assert names == ["h", "support", "zone", "coupling", "local"]


def _names(node: ast.AST) -> set[str]:
    """The names a node defines, reads or imports."""
    names = {getattr(node, key, None) for key in ("name", "id", "attr")}
    names.update(alias.name for alias in getattr(node, "names", ()))
    return {n for n in names if isinstance(n, str)}


def test_march_holds_the_only_quadrature_rule():
    # every integral of the package is the march's Clenshaw-Curtis rule
    # (march.integral and the panels): no other module defines a rule of
    # its own, a _from_zero or a stored _GL_ table, or reads _cheb
    package = Path(crossing_kit.__file__).parent
    for path in package.glob("*.py"):
        if path.stem == "march":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for name in _names(node):
                bad = name in ("_from_zero", "_cheb") or name.startswith("_GL")
                assert not bad, (path.stem, name)


def _march_privates(tree: ast.AST) -> list[str]:
    """The _-prefixed names of crossing_kit.march that a module's ``tree``
    imports or reads, through any name the module binds to march."""
    found, bound = [], {"crossing_kit.march"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "crossing_kit.march":
            found += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.ImportFrom) and node.module == "crossing_kit":
            bound |= {a.asname or a.name for a in node.names if a.name == "march"}
        elif isinstance(node, ast.Import):
            bound |= {a.asname for a in node.names if a.name == "crossing_kit.march"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value) in bound:
                found.append(node.attr)
    return found


def test_the_oracles_are_independent_of_the_march():
    # the uniform Picard march, the pair's four-coefficient march and their
    # quadrature rule check the march: they share none of its private
    # helpers, and the rule takes its samples and dx and nothing else
    tests = Path(__file__).parent
    for name in ("uniform_plan", "pair_oracle", "quad10"):
        tree = ast.parse((tests / f"{name}.py").read_text(encoding="utf-8"))
        assert _march_privates(tree) == [], name
    probe = "from crossing_kit.march import _stops\nimport crossing_kit.march as m\nm._x"
    assert _march_privates(ast.parse(probe)) == ["_stops", "_x"]
    assert list(inspect.signature(cum_quad10).parameters) == ["values", "dx"]


def test_problems_are_h_free():
    # one problem interface: a problem is built once, for every h, and
    # predict and extract take h. No problem carries an h, and no module
    # makes a copy at another h or keeps a shared setup record
    assert {name for name in vars(Problem) if not name.startswith("_")} == {
        "order",
        "predict",
        "extract",
    }
    for family, corpus in (
        (NormalFormProblem, model_corpus),
        (SchrodingerProblem, schrodinger_corpus),
    ):
        assert "h" not in {field.name for field in dataclasses.fields(family)}
        assert Problem not in family.__mro__  # it meets the protocol, no more
        assert all(isinstance(prob, Problem) for prob in corpus())
        for method in (family.predict, family.extract):
            assert list(inspect.signature(method).parameters) == ["self", "h", "branch"]
    package = Path(crossing_kit.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for name in _names(node):
                assert name not in ("with_h", "shared", "setup"), (path.stem, name)
    assert list(inspect.signature(sweep._solve_pair).parameters) == ["problem", "h"]



def test_only_one_test_reads_the_march_line():
    # the march's counts are read off the SolveStats its DEBUG line carries:
    # the line's text appears in the test that pins it and nowhere else in
    # tests/ or scripts/
    phrases = (
        "Neumann rows per sweep",
        "panel batches of",
        "split by the Levin check",
        "down to level",
    )
    pins = {"test_one_debug_line_per_march", "test_only_one_test_reads_the_march_line"}
    root = Path(__file__).parents[1]
    for path in [*root.glob("tests/*.py"), *root.glob("scripts/*.py")]:
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.FunctionDef) and node.name in pins:
                for k in range(node.lineno - 1, node.end_lineno):
                    lines[k] = ""
        text = "\n".join(lines)
        found = [phrase for phrase in phrases if phrase in text]
        assert found == [], (path.name, found)


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
from quad10 import cum_quad10
a = ode_oracle(model_corpus()[0], 1e-2, (1.0, 0.5j), [-0.5, 0.0, 1.0])
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
    want = ode_oracle(model_corpus()[0], 1e-2, (1.0, 0.5j), [-0.5, 0.0, 1.0])
    got = np.array([complex(*z) for z in report["oracle"]]).reshape(want.shape)
    assert (got == want).all()
