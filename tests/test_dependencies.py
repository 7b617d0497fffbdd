"""Runtime dependencies: the library imports only the standard library,
numpy, PyYAML and itself, so a new dependency cannot creep in unnoticed."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sdprecode"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "sdprecode"}
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imported_roots(tree):
    """Top-level names of every absolute import in ``tree``, function-level
    ones included; relative imports stay inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_walk_sees_the_package():
    assert PACKAGE / "sim" / "engine.py" in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_only_allowed_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"line {line}: {name}" for line, name in _imported_roots(tree)
               if name not in ALLOWED]
    assert not foreign, f"{path.name} imports {foreign}"
