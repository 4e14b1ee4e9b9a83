"""Module boundaries: no module imports another module's private name.

A leading underscore says "this module's business"; a module that
imports another's depends on that module's implementation detail.
Either the name is shared (make it public) or it is not (use the
public surface)."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _private_imports(path: Path, root: Path = SRC):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.startswith("__"):
                    yield f"{path.relative_to(root)}:{node.lineno}: " \
                          f"from {module} import {name}"


def test_no_cross_module_private_imports():
    found = [hit for path in sorted(SRC.rglob("*.py"))
             for hit in _private_imports(path)]
    assert not found, "\n".join(found)


def test_the_check_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .clone import _clone_node\nfrom . import ok\n")
    assert list(_private_imports(probe, tmp_path)) == [
        "probe.py:1: from .clone import _clone_node"]
