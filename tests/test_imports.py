"""Every import is used, every private helper is named, no tolerance check lets NaN pass,
only ``hilbert._check_small`` and two range checks raise on a tolerance,
only ``hilbert._freeze`` sets an array's flags, only ``hilbert._adopt`` decides whether a
record keeps an array, only ``hilbert._check_scalars`` judges a scalar's type,
``hilbert.BLOCK_BYTES`` is the one block size, and only the process entry writes
``sys.modules``.

Stand-ins for a linter's unused-import and dead-code rules, from the
standard ``ast`` module alone. An import is used when its bound name appears
as a name anywhere in the module, annotations included. A module-level
``_private`` function or class is live when some ``src/mclock`` module names
it: as a name, an attribute or an imported name. Tests do not count, so a
helper only tests reach belongs in the tests. A check that raises when a
value exceeds a ``TOL`` tolerance is written ``not value <= TOL.name``,
because every comparison with NaN is False. Apart from the range checks
on a declared fidelity and on a probability curve, no ``if`` raises on a
comparison with a ``TOL`` value: each residual goes to ``_check_small``,
the one place that scales a tolerance by max(1, scale). A record or
function freezes an array by calling ``_freeze``, not ``.setflags(``
itself, keeps or copies an array it is handed by calling ``_adopt``, not by
reading ``.flags.writeable`` or ``.base`` itself, and judges an integer or
real argument by calling ``_check_scalars``, not by naming a ``numbers``
ABC itself. Every blocked loop derives its block from ``BLOCK_BYTES``, so
no other module-level constant sizes one. Only ``__main__`` assigns to ``sys.modules`` or calls a
method that writes it, so importing mclock never changes what its importer
loads.
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


def _mentions_tol(node: ast.AST) -> bool:
    """Whether ``TOL.<name>`` appears anywhere in the expression."""
    return any(isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
               and sub.value.id == "TOL" for sub in ast.walk(node))


def nan_blind_tolerance_checks(tree: ast.Module) -> list[int]:
    """Lines of each ``if`` that raises on ``... > TOL...`` (or ``TOL... < ...``), sorted.

    NaN exceeds nothing, so such a check accepts it.
    """
    def exceeds_tol(test: ast.expr) -> bool:
        for cmp in ast.walk(test):
            if isinstance(cmp, ast.Compare):
                for left, op, right in zip([cmp.left, *cmp.comparators], cmp.ops,
                                           cmp.comparators):
                    if (isinstance(op, ast.Gt) and _mentions_tol(right)
                            or isinstance(op, ast.Lt) and _mentions_tol(left)):
                        return True
        return False

    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and any(isinstance(stmt, ast.Raise) for stmt in node.body)
        and exceeds_tol(node.test)
    )


def test_flags_only_raising_checks_that_nan_passes():
    source = ("if err > TOL.a:\n    raise E\n"
              "if not err <= TOL.a:\n    raise E\n"
              "if x < 0 or err > 2 * TOL.a:\n    raise E\n"
              "if TOL.a < err:\n    raise E\n"
              "if err > TOL.a:\n    log(err)\n"
              "if err > limit:\n    raise E\n")
    assert nan_blind_tolerance_checks(ast.parse(source)) == [1, 5, 7]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_tolerance_checks_reject_nan(path):
    assert nan_blind_tolerance_checks(ast.parse(path.read_text(encoding="utf-8"))) == []


# The two checks that judge a value against a range, not a residual against
# zero: a model's declared fidelity and a trajectory's probability curve.
RANGE_CHECKS = {"measurement.py:MeasurementModel", "dynamics.py:TimingTrajectory"}


def raising_tolerance_comparisons(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, enclosing module-level definition or "") of each ``if`` that raises on a
    comparison with a tolerance, sorted.

    A tolerance is ``TOL.<name>``, or a name that the same definition binds
    from an expression mentioning ``TOL``.
    """
    found = []
    for stmt in tree.body:
        bound = {target.id for node in ast.walk(stmt) if isinstance(node, ast.Assign)
                 and _mentions_tol(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}

        def mentions(node: ast.AST) -> bool:
            return _mentions_tol(node) or any(isinstance(sub, ast.Name) and sub.id in bound
                                              for sub in ast.walk(node))

        found.extend(
            (node.lineno, getattr(stmt, "name", ""))
            for node in ast.walk(stmt)
            if isinstance(node, ast.If)
            and any(isinstance(body, ast.Raise) for body in node.body)
            and any(isinstance(cmp, ast.Compare)
                    and any(map(mentions, [cmp.left, *cmp.comparators]))
                    for cmp in ast.walk(node.test))
        )
    return sorted(found)


def test_finds_every_raising_comparison_with_a_tolerance():
    source = ("def _check_small(dev, tol):\n    if not dev <= tol:\n        raise E\n"
              "class R:\n    def f(self, p):\n        slack = 2 * TOL.a\n"
              "        if not np.all(p <= 1 + slack):\n            raise E\n"
              "def g(x):\n    if abs(x) <= TOL.b:\n        return x\n"
              "    _check_small(abs(x), TOL.b)\n"
              "if not x < TOL.c:\n    raise E\n"
              "def h(x, slack):\n    if x > slack:\n        raise E\n")
    assert raising_tolerance_comparisons(ast.parse(source)) == [(7, "R"), (13, "")]


def test_only_check_small_and_the_range_checks_raise_on_a_tolerance():
    # Every residual check passes its TOL value to hilbert._check_small,
    # which alone applies residual <= tolerance x max(1, scale).
    found = {f"{path.name}:{name}" for path in sorted(SOURCE.glob("*.py"))
             for _, name in raising_tolerance_comparisons(
                 ast.parse(path.read_text(encoding="utf-8")))}
    assert found == RANGE_CHECKS


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


def setflags_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, enclosing module-level definition or "") of each ``.setflags(`` call, sorted."""
    return sorted(
        (node.lineno, getattr(stmt, "name", ""))
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setflags"
    )


def test_finds_every_setflags_call_with_its_definition():
    source = ("def _freeze(a):\n    a.setflags(write=False)\n"
              "class R:\n    def f(self, a):\n        a.setflags(write=False)\n"
              "b.setflags(write=False)\n"
              "def g(a):\n    a.flags.writeable = False\n    return setflags(a)\n")
    assert setflags_calls(ast.parse(source)) == [(2, "_freeze"), (5, "R"), (6, "")]


def test_only_hilbert_freeze_sets_array_flags():
    calls = {f"{path.name}:{name}" for path in sorted(SOURCE.glob("*.py"))
             for _, name in setflags_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert calls == {"hilbert.py:_freeze"}


def adoption_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, enclosing module-level definition or "") of each adoption read, sorted.

    An adoption read is ``.flags.writeable`` or ``.base``.
    """
    return sorted(
        (node.lineno, getattr(stmt, "name", ""))
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute)
        and (node.attr == "base" or node.attr == "writeable"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "flags")
    )


def test_finds_every_read_of_writeable_or_base_with_its_definition():
    source = ("def _adopt(a):\n    return not a.flags.writeable and a.base is None\n"
              "class R:\n    def f(self, a):\n        return a.base\n"
              "ok = b.flags.writeable\n"
              "def g(a):\n    return a.writeable, a.flags, a.based\n")
    assert adoption_reads(ast.parse(source)) == [(2, "_adopt"), (2, "_adopt"), (5, "R"),
                                                  (6, "")]


def test_only_hilbert_adopt_decides_what_a_record_keeps():
    reads = {f"{path.name}:{name}" for path in sorted(SOURCE.glob("*.py"))
             for _, name in adoption_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert reads == {"hilbert.py:_adopt"}


def numbers_abc_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, enclosing module-level definition or "") of each use of a ``numbers`` ABC, sorted.

    A use is an attribute ``numbers.<name>`` or a ``from numbers import``.
    """
    return sorted({
        (node.lineno, getattr(stmt, "name", ""))
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "numbers"
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
    })


def test_finds_every_use_of_a_numbers_abc_with_its_definition():
    source = ("import numbers\nfrom numbers import Integral\n"
              "def _check_scalars(kind):\n"
              "    rule = numbers.Integral if kind else numbers.Real\n"
              "class R:\n    def f(self, x):\n        return isinstance(x, (int, numbers.Real))\n"
              "ok = isinstance(y, int) or isinstance(y, np.numbers.Real)\n")
    assert numbers_abc_uses(ast.parse(source)) == [(2, ""), (4, "_check_scalars"), (7, "R")]


def test_only_hilbert_check_scalars_judges_a_scalar_type():
    uses = {f"{path.name}:{name}" for path in sorted(SOURCE.glob("*.py"))
            for _, name in numbers_abc_uses(ast.parse(path.read_text(encoding="utf-8")))}
    assert uses == {"hilbert.py:_check_scalars"}


MODULE_TABLE_WRITERS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}


def _is_sys_modules(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "modules"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def sys_modules_writes(tree: ast.Module) -> list[int]:
    """Lines that assign or delete ``sys.modules`` or an entry of it, or call a writing method on it."""
    lines = set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            if _is_sys_modules(target) or (isinstance(target, ast.Subscript)
                                           and _is_sys_modules(target.value)):
                lines.add(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MODULE_TABLE_WRITERS and _is_sys_modules(node.func.value)):
            lines.add(node.lineno)
    return sorted(lines)


def test_finds_every_write_to_sys_modules():
    source = ("import sys\nsys.modules.setdefault('_hashlib', None)\n"
              "sys.modules['a'] = None\ndel sys.modules['b']\n"
              "def f():\n    sys.modules.update(c=None)\n"
              "sys.modules = {}\n"
              "x = sys.modules.get('d')\nmodules = {}\nmodules['e'] = 1\nos.modules.pop('f')\n")
    assert sys_modules_writes(ast.parse(source)) == [2, 3, 4, 6, 7]


def test_only_the_entry_writes_sys_modules():
    # Blocking a module is the process entry's choice; a library import must
    # not change what its importer loads.
    writers = {path.name for path in sorted(SOURCE.glob("*.py"))
               if sys_modules_writes(ast.parse(path.read_text(encoding="utf-8")))}
    assert writers == {"__main__.py"}


BLOCK_WORDS = ("BLOCK", "CHUNK", "BATCH", "ROWS", "DRAWS", "AMPLITUDES")


def block_size_constants(tree: ast.Module) -> list[str]:
    """Module-level names assigned whose name says block, chunk, batch, rows, draws or amplitudes."""
    names = set()
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        names.update(target.id for target in targets if isinstance(target, ast.Name)
                     and any(word in target.id.upper() for word in BLOCK_WORDS))
    return sorted(names)


def test_finds_module_level_block_size_constants():
    source = ("BLOCK_ROWS = 1024\n_TALLY_DRAWS = 2**14\n_chunk: int = 5\nMAX_TRIALS = 10\n"
              "def f():\n    BLOCK = 2\n")
    assert block_size_constants(ast.parse(source)) == ["BLOCK_ROWS", "_TALLY_DRAWS", "_chunk"]


def test_block_bytes_is_the_one_block_size():
    constants = {f"{path.name}:{name}" for path in sorted(SOURCE.glob("*.py"))
                 for name in block_size_constants(ast.parse(path.read_text(encoding="utf-8")))}
    assert constants == {"hilbert.py:BLOCK_BYTES"}
