"""Package layout: modules share only public names."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import hamflow

PACKAGE = pathlib.Path(hamflow.__file__).parent


def _private_sibling_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "hamflow"
        for alias in node.names:
            if sibling and alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules for hit in _private_sibling_imports(path)]
    assert found == []


def _public_functions():
    """(qualified name, function) for every public function, constructor and
    method defined in a hamflow module."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"hamflow.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not inspect.isclass(obj):
                yield f"{path.stem}.{name}", obj
                continue
            for attr in ["__init__"] + [a for a in vars(obj) if not a.startswith("_")]:
                yield f"{path.stem}.{name}.{attr}", getattr(obj, attr)


def test_newton_budget_is_decided_in_newton_solve_only():
    # the solvers above newton_solve all run its default budget, so none of
    # them passes max_iter along
    takers = [name for name, fn in _public_functions()
              if inspect.isfunction(fn) and "max_iter" in inspect.signature(fn).parameters]
    assert takers == ["core.newton_solve"]


def _defaulted_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)


def test_no_new_knobs():
    # a ratchet on the public defaulted parameters: a new option must remove
    # another, or raise this bound in the same diff and say why
    count = sum(n for path in sorted(PACKAGE.glob("*.py"))
                for n in _defaulted_parameters(path))
    assert count <= 98


_HOT_PATH = """
import sys
import numpy as np
import hamflow
from hamflow import bvp, hamel, problems
bc = bvp.BoundarySpec.type_ii(np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.4, -0.3]))
bvp.solve_shooting(problems.harmonic_oscillator(3), bc, 1.0, "midpoint", 20)
hamel.integrate_hamel(hamel.rigid_body_reduced([1.0, 2.0, 3.0]),
                      hamel.so3_left_trivialization(),
                      hamflow.PhasePoint([0.1, 0.2, 0.3], [0.5, -0.4, 0.3]), 1.0, 10)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_hot_path_imports_no_scipy():
    # importing scipy.linalg adds about 27 MB of resident memory and 0.3 s of import
    # time; the midpoint shooting and Hamel marches must run on numpy only
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _HOT_PATH], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
