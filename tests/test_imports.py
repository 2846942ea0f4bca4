"""Package layout: modules share only public names."""

import ast
import importlib
import inspect
import pathlib

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
    assert count <= 99
