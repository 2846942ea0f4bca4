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
    # a ratchet on the public defaulted parameters and dataclass fields: a new
    # option must remove another, or raise its bound in the same diff and say why
    count = sum(1 for path in sorted(PACKAGE.glob("*.py"))
                for node, method in _public_defs(path) for _ in _options(node, method))
    assert count <= 64
    assert len(list(_public_fields())) <= 38


def _callee(func):
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _calls(path):
    """(callee name, positional arguments, keyword arguments by name) of every
    call in a file; ``partial(fn, ...)`` is a call of ``fn``.  A ``*args`` or
    ``**kwargs`` spread names no option: the positional arguments stop at the
    first ``*args``, and a ``**kwargs`` adds no keyword."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if _callee(func) == "partial" and args:
                func, args = args[0], args[1:]
            starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
            yield (_callee(func), args[:starred[0]] if starred else args,
                   {k.arg: k.value for k in node.keywords if k.arg is not None})


def _repository_calls():
    root = pathlib.Path(__file__).resolve().parents[1]
    return [call for tree in ("src", "tests", "perfbench")
            for path in sorted((root / tree).rglob("*.py")) for call in _calls(path)]


def _argument(name, position, args, keywords):
    """The expression a call passes for the parameter ``name``, or None."""
    if name in keywords:
        return keywords[name]
    if position is not None and len(args) > position:
        return args[position]
    return None


def _public_fields():
    """(qualified name, class name, field name, position in ``__init__``,
    default expression) of every init-able defaulted field that a public
    dataclass declares itself."""
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"hamflow.{path.stem}")
        for name, cls in vars(module).items():
            if name.startswith("_") or not inspect.isclass(cls) \
                    or cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            own = cls.__dict__.get("__annotations__", {})
            for position, f in enumerate(f for f in dataclasses.fields(cls) if f.init):
                if f.default is not dataclasses.MISSING:
                    default = repr(f.default)
                elif f.default_factory is not dataclasses.MISSING:
                    default = f"{f.default_factory.__name__}()"
                else:
                    continue
                if f.name in own:
                    yield f"{path.stem}.{name}.{f.name}", name, f.name, position, default


def _option_values():
    """(qualified name, default, the value each call gives) of every public
    option; a value is the expression passed, or None where the call leaves
    the option out.  A field's calls are its class's constructor calls and
    each ``dataclasses.replace`` that names it."""
    calls = _repository_calls()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, method in _public_defs(path):
            for name, position, default in _options(node, method):
                yield f"{path.stem}.{node.name}({name})", ast.unparse(default), [
                    _argument(name, position, args, keywords)
                    for callee, args, keywords in calls if callee == node.name]
    for qualified, cls, name, position, default in _public_fields():
        yield qualified, default, [
            _argument(name, position, args, keywords) if callee == cls else keywords[name]
            for callee, args, keywords in calls
            if callee == cls or callee == "replace" and name in keywords]


def test_every_public_option_has_a_caller():
    # an option that no call in the repository sets has only ever run at its
    # default; with one value in use it should be a constant.  A spread
    # (*args, **kwargs) sets no option
    unset = [qualified for qualified, _, values in _option_values()
             if all(value is None for value in values)]
    assert unset == []


def test_every_public_option_takes_two_values():
    # an option that every call gives one value should be a constant: the
    # default counts where a call leaves the option out, also when it spreads
    # *args or **kwargs.  An option that no call sets fails the test above
    single = [qualified for qualified, default, values in _option_values()
              if any(v is not None for v in values)
              and len({default if v is None else ast.unparse(v) for v in values}) < 2]
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


def test_closures_are_checked_in_validate_only():
    # a supplied closure is checked against differences when its owner's
    # validate() is called, which takes no options, and never on construction
    sites = sorted({f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
                    for scope, node in _scoped_nodes(path)
                    if isinstance(node, ast.Call) and _callee(node.func) == "check_closure"})
    assert sites == ["accelopt.BregmanConfig.validate", "adjoint.CostProblem.validate",
                     "core.HamiltonianProblem.validate", "hamel.Trivialization.validate",
                     "optcontrol.ControlProblem.validate"]
    for site in sites:
        module, cls, _ = site.split(".")
        validate = getattr(importlib.import_module(f"hamflow.{module}"), cls).validate
        assert list(inspect.signature(validate).parameters) == ["self"]


def test_costate_partials_are_called_in_one_place():
    # core.sweep gathers every partner's stage partials at one site, so a new
    # partner adds stages and a _partner branch, not another call of a partial
    sites = sorted((_callee(node.func), scope)
                   for scope, node in _scoped_nodes(PACKAGE / "core.py")
                   if isinstance(node, ast.Call) and _callee(node.func) in ("D_qf", "D_qg"))
    assert sites == [("D_qf", "sweep"), ("D_qg", "sweep")]


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
