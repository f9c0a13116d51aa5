"""Checks on the package's source text."""

from __future__ import annotations

import ast
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
