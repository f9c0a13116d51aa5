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
    # The package's __init__ imports its public names for its users.
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
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
