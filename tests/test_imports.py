"""Package layout: modules share only public names."""

import ast
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
