"""Every name a ``src/mclock`` module imports is used in that module.

A stand-in for a linter's unused-import rule, from the standard ``ast``
module alone: an import is used when its bound name appears as a name
anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "mclock"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names the module's imports bind that no name in the module reads, sorted."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_flags_only_unused_names():
    source = "import os, os.path\nimport numpy as np\nfrom a import b, c as d\nb(np.pi)\n"
    assert unused_imports(ast.parse(source)) == ["d", "os"]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
