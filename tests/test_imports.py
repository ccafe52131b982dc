"""Every name a `legnet` module imports is used somewhere in that module."""

import ast
from pathlib import Path

import pytest

import legnet

MODULES = sorted(Path(legnet.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
