"""Checks on the package's source text."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import situsearch

PACKAGE = Path(situsearch.__file__).parent

# Imported only for the benchmark tracer, which patches these names on the
# modules that look them up (ROADMAP item 2 moves that patching out).
TRACER_ONLY_IMPORTS = {
    ("search", "combine"),
    ("situation_model", "uniform_map"),
    ("evaluation", "workspace_snapshot_svg"),
}


def unused_imports(source: str) -> set[str]:
    """The names a module's imports bind that no expression of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path.read_text())
    }
    assert found == TRACER_ONLY_IMPORTS


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def reads_the_environment(source: str) -> bool:
    """Whether a module reads ``os.environ`` or ``os.getenv``, or imports either from os."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT_READERS for alias in node.names):
                return True
    return False


def test_no_module_reads_the_environment():
    # Every setting is a command-line option or a parameter, so none can come
    # back as an environment variable.
    found = [path.name for path in PACKAGE.glob("*.py") if reads_the_environment(path.read_text())]
    assert found == []


# Modules no process needs: salience is numpy alone (importing scipy.ndimage
# cost every process about 0.35 s and 18 MB), SVG text is escaped without
# xml.sax (which pulls in urllib, http, email and ssl), and multiprocessing is
# imported only when a pool starts.
UNUSED_MODULES = (
    "scipy",
    "ssl",
    "socket",
    "http.client",
    "email",
    "xml.sax",
    "multiprocessing",
    "concurrent.futures.process",
    "subprocess",
)


def test_importing_the_cli_loads_no_scipy():
    probe = "import sys, situsearch.cli; print(*sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "situsearch.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert [m for m in UNUSED_MODULES if m in loaded] == []


def has_global_statement(source: str) -> bool:
    return any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(source)))


def test_no_module_rebinds_a_module_global():
    # Module state held across calls is a cache with an owner, such as
    # functools.lru_cache, not a name a function rebinds.
    found = [path.name for path in PACKAGE.glob("*.py") if has_global_statement(path.read_text())]
    assert found == []


def instance_builds_outside_classes(source: str) -> list[int]:
    """The lines that read some ``__new__`` outside every class body."""

    def visit(node: ast.AST) -> list[int]:
        if isinstance(node, ast.ClassDef):
            return []
        here = [node.lineno] if isinstance(node, ast.Attribute) and node.attr == "__new__" else []
        return here + [line for child in ast.iter_child_nodes(node) for line in visit(child)]

    return visit(ast.parse(source))


def test_only_a_class_builds_its_instances():
    # An instance made outside its class, such as by object.__new__ and a
    # hand-written __dict__, bypasses the state the class keeps itself; a
    # copy goes through the class's own __getstate__ and __setstate__.
    found = {
        path.stem: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := instance_builds_outside_classes(path.read_text()))
    }
    assert found == {}


def test_only_gaussian_takes_an_out_array():
    # A conditioned map owns its density, so where a grid is built is decided
    # inside gaussian.py alone: no caller above it passes an array down.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "gaussian"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.arg) and node.arg == "out"
    ]
    assert found == []


# 107 -> 105: rasterize_2d's and conditioned_distribution's ``out=None`` are deleted.
SETTABLE_VALUES = 105


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def is_init_false(value: ast.expr | None) -> bool:
    """Whether a dataclass field's value is ``field(..., init=False, ...)``."""
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", None) is False for k in value.keywords)
    )


def settable_values(source: str) -> int:
    """A module's settable values, by its syntax tree: each defaulted parameter,
    positional or keyword-only, of a function or lambda; each field of a
    dataclass but those declared ``field(init=False)``; each ``add_argument``
    call; and each read of the environment."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and not is_init_false(stmt.value)
                for stmt in node.body
            )
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            count += 1
    return count


def test_settable_values():
    """The package's settable values, the count ROADMAP aim 2 tracks: the values a
    caller can set without editing the package, counted as ``settable_values``
    counts them. A change that adds or removes one updates SETTABLE_VALUES and
    cites the old and new count."""
    found = sum(settable_values(path.read_text()) for path in PACKAGE.glob("*.py"))
    assert found == SETTABLE_VALUES
