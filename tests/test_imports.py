"""Package layout: modules share only public names."""

import ast
import dataclasses
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


def _public_defs(path):
    """(node, whether it is a method) for every public def of a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, id(node) in methods


def _options(node, method):
    """(name, position, default expression) of each defaulted parameter of a
    def; the position leaves ``self`` out and is None for a keyword-only
    parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, default in enumerate(args.defaults, start=first):
        yield positional[i].arg, i - method, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def test_no_new_knobs():
    # a ratchet on the public defaulted parameters: a new option must remove
    # another, or raise this bound in the same diff and say why
    count = sum(1 for path in sorted(PACKAGE.glob("*.py"))
                for node, method in _public_defs(path) for _ in _options(node, method))
    assert count <= 64


def _callee(func):
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _calls(path):
    """(callee name, positional arguments, keyword arguments by name) of every
    call in a file; ``partial(fn, ...)`` is a call of ``fn``, and ``**kwargs``
    shows as the keyword None."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if _callee(func) == "partial" and args:
                func, args = args[0], args[1:]
            yield _callee(func), args, {k.arg: k.value for k in node.keywords}


def _repository_calls():
    root = pathlib.Path(__file__).resolve().parents[1]
    return [call for tree in ("src", "tests", "perfbench")
            for path in sorted((root / tree).rglob("*.py")) for call in _calls(path)]


def _sets(name, position, args, keywords):
    """Whether a call with these arguments passes the parameter ``name``."""
    return name in keywords or None in keywords or position is not None and len(args) > position


def _public_fields():
    """(qualified name, class name, field name, position in ``__init__``) of
    every init-able defaulted field that a public dataclass declares itself."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"hamflow.{path.stem}")
        for name, cls in vars(module).items():
            if name.startswith("_") or not inspect.isclass(cls) \
                    or cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            own = cls.__dict__.get("__annotations__", {})
            for position, f in enumerate(f for f in dataclasses.fields(cls) if f.init):
                if f.name in own and (f.default is not dataclasses.MISSING
                                      or f.default_factory is not dataclasses.MISSING):
                    yield f"{path.stem}.{name}.{f.name}", name, f.name, position


def test_every_public_option_has_a_caller():
    # an option that no call in the repository sets has only ever run at its
    # default; with one value in use it should be a constant.  A dataclass
    # field is set by a constructor call or by dataclasses.replace
    calls = _repository_calls()
    unset = [f"{path.stem}.{node.name}({name})"
             for path in sorted(PACKAGE.glob("*.py")) for node, method in _public_defs(path)
             for name, position, _ in _options(node, method)
             if not any(callee == node.name and _sets(name, position, args, keywords)
                        for callee, args, keywords in calls)]
    unset += [qualified for qualified, cls, name, position in _public_fields()
              if not any(callee == cls and _sets(name, position, args, keywords)
                         or callee == "replace" and name in keywords
                         for callee, args, keywords in calls)]
    assert unset == []


def test_every_public_option_takes_two_values():
    # the value of an option in a call is the expression passed, or the
    # default where the call leaves it out; a call that spreads *args or
    # **kwargs counts as a value of its own.  An option that every call
    # gives one value should be a constant
    calls = _repository_calls()
    single = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, method in _public_defs(path):
            for name, position, default in _options(node, method):
                values = set()
                for i, (callee, args, keywords) in enumerate(calls):
                    if callee != node.name:
                        continue
                    if None in keywords or any(isinstance(a, ast.Starred) for a in args):
                        values.add(i)
                    elif name in keywords:
                        values.add(ast.unparse(keywords[name]))
                    elif position is not None and len(args) > position:
                        values.add(ast.unparse(args[position]))
                    else:
                        values.add(ast.unparse(default))
                if len(values) < 2:
                    single.append(f"{path.stem}.{node.name}({name})")
    assert single == []


def _scoped_nodes(path):
    """(qualified name of the enclosing def, node) for every node of a file."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield from visit(child, inner)

    return visit(ast.parse(path.read_text(), filename=str(path)), "")


def _attribute_writes(path, attr):
    """(qualified name of the enclosing def, line) of every assignment to an
    attribute named ``attr`` in a file, tuple targets included."""
    found = []
    for scope, node in _scoped_nodes(path):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == attr:
                        found.append((scope, node.lineno))
    return found


def test_newton_matrices_are_held_by_newton_solve_only():
    # newton_solve is the one place a Newton matrix is formed, reused and
    # dropped: only it, its run and a holder's constructor write a held inverse
    allowed = {"core.newton_solve", "core._newton", "core._HeldMatrix.__init__",
               "core._BandedMatrix.__init__"}
    writes = [f"{path.stem}.{scope}:{line}" for path in sorted(PACKAGE.glob("*.py"))
              for scope, line in _attribute_writes(path, "inverse")
              if f"{path.stem}.{scope}" not in allowed]
    assert writes == []


def test_marches_are_bound_in_integrate_and_sweep_only():
    # integrate and sweep bind their stepper once per march; minimize steps
    # by itself, so it binds its own.  A solver passes its tolerance instead
    callers = sorted(f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
                     for scope, node in _scoped_nodes(path)
                     if isinstance(node, ast.Call) and _callee(node.func) == "stepper_with_tol")
    assert callers == ["accelopt.minimize", "core.integrate", "core.sweep"]


def test_grids_are_checked_in_time_grid_only():
    # core.time_grid alone checks a step count and lays the solver nodes; the
    # problem types and the scipy reference check their own horizon
    n_checks, horizon_checks = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(path):
            site = f"{path.stem}.{scope}"
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(s, ast.Name) and s.id == "N" for s in sides) and any(
                        isinstance(s, ast.Constant) and s.value == 1 for s in sides):
                    n_checks.append(f"{site}:{node.lineno}")
            if isinstance(node, ast.Call) and _callee(node.func) == "check_horizon":
                horizon_checks.append(site)
    assert [site.split(":")[0] for site in n_checks] == ["core.time_grid"], n_checks
    assert sorted(horizon_checks) == ["adjoint.CostProblem.__post_init__",
                                      "core.time_grid",
                                      "integrators.reference_flow",
                                      "optcontrol.ControlProblem.__post_init__"]


def _private_reads(path):
    """Each ``obj._name`` read of a private attribute (not a dunder, ``obj``
    not ``self`` or ``cls``) that the module does not define itself: by a
    def or class of that name, an assignment to it, or a ``setattr``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Call) and _callee(node.func) in ("setattr", "__setattr__"):
            defined.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_") and not node.attr.startswith("__")
                and getattr(node.value, "id", None) not in ("self", "cls")
                and node.attr not in defined):
            yield f"{path.name}:{node.lineno} {ast.unparse(node)}"


def test_no_module_reads_another_modules_private_attributes():
    # test_no_private_cross_module_imports cannot see a private method called
    # on an object
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_reads(path)]
    assert found == []


_STEPS = {"euler_step", "rk4_step", "midpoint_step"}


def _stepper_decoding(path):
    """Each read of a stepper's ``func`` and each comparison with a registry
    step in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "func" \
                or isinstance(node, ast.Call) and _callee(node.func) == "getattr" \
                and any(isinstance(a, ast.Constant) and a.value == "func" for a in node.args):
            yield f"{path.name}:{node.lineno} reads func"
        if isinstance(node, ast.Compare) and any(
                _callee(side) in _STEPS for side in [node.left, *node.comparators]):
            yield f"{path.name}:{node.lineno} compares with a registry step"


def test_steppers_are_decoded_in_core_only():
    # core.stepper_scheme names the scheme a stepper runs; every other module
    # routes by that name
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
             for hit in _stepper_decoding(path)]
    assert found == []


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
