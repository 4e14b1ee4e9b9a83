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


#: the one module that reads a loop's ``horizontal`` mark
#: (``runs_as_kernel``), and the one pass that sets it
HORIZONTAL_READER = "ir/graph.py"
HORIZONTAL_WRITER = "passes/parallelize.py"


def _horizontal_accesses(path: Path, root: Path = SRC):
    """``(kind, where)`` of each read or write of the ``"horizontal"``
    node attribute: ``attrs["horizontal"]``, ``"horizontal" in attrs``,
    or ``attrs.get`` / ``.pop`` / ``.setdefault`` of that key."""
    rel = path.relative_to(root).as_posix()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Subscript):
            key, store = node.slice, not isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("get", "pop", "setdefault"):
            key, store = node.args[0], node.func.attr != "get"
        elif isinstance(node, ast.Compare) \
                and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            key, store = node.left, False
        else:
            continue
        if isinstance(key, ast.Constant) and key.value == "horizontal":
            yield ("write" if store else "read"), f"{rel}:{node.lineno}"


def _misplaced_horizontal(paths, root: Path = SRC):
    owner = {"read": HORIZONTAL_READER, "write": HORIZONTAL_WRITER}
    return [f"{where}: {kind}s the horizontal mark"
            for path in paths
            for kind, where in _horizontal_accesses(path, root)
            if path.relative_to(root).as_posix() != owner[kind]]


def test_one_module_decides_what_runs_as_a_kernel():
    found = _misplaced_horizontal(sorted(SRC.rglob("*.py")))
    assert not found, "\n".join(found)
    assert [kind for kind, _ in _horizontal_accesses(
        SRC / HORIZONTAL_READER)] == ["read"]
    assert [kind for kind, _ in _horizontal_accesses(
        SRC / HORIZONTAL_WRITER)] == ["write"]


def test_the_check_sees_a_horizontal_access(tmp_path):
    (tmp_path / "passes").mkdir()
    probe = tmp_path / "passes" / "probe.py"
    probe.write_text("if node.attrs.get('horizontal'):\n"
                     "    node.attrs['horizontal'] = False\n"
                     "x = node.attrs['horizontal']\n"
                     "y = 'horizontal' not in node.attrs\n"
                     "stats['horizontal_loops'] += 1\n"
                     "TensorSSAPipeline(horizontal=False)\n")
    assert sorted(_misplaced_horizontal([probe], tmp_path)) == [
        "passes/probe.py:1: reads the horizontal mark",
        "passes/probe.py:2: writes the horizontal mark",
        "passes/probe.py:3: reads the horizontal mark",
        "passes/probe.py:4: reads the horizontal mark"]
