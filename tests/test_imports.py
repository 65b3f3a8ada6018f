"""Every name a ``src/mclock`` module imports is used, and every private helper is named.

Stand-ins for a linter's unused-import and dead-code rules, from the
standard ``ast`` module alone. An import is used when its bound name appears
as a name anywhere in the module, annotations included. A module-level
``_private`` function or class is live when some ``src/mclock`` module names
it: as a name, an attribute or an imported name. Tests do not count, so a
helper only tests reach belongs in the tests.
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


def dead_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_private`` functions and classes no module names, as sorted "file:name"."""
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted(
        f"{file}:{node.name}"
        for file, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in named
    )


def test_flags_only_private_definitions_no_module_names():
    sources = {
        "a.py": "def _called(): pass\ndef _imported(): pass\ndef _dead(): pass\n"
                "class _DeadClass: pass\ndef __getattr__(name): pass\ndef public(): _called()\n"
                "def outer():\n    def _nested(): pass\n",
        "b.py": "from a import _imported\nimport c\nc._by_attribute()\n",
        "c.py": "def _by_attribute(): pass\n",
    }
    trees = {name: ast.parse(source) for name, source in sources.items()}
    assert dead_private_definitions(trees) == ["a.py:_DeadClass", "a.py:_dead"]


def test_every_private_definition_is_named_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    assert dead_private_definitions(trees) == []
