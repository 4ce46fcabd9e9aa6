"""``src/stablab`` ships only code that a command, a suite or the benchmark runs.

A public module-level function or class that no code in ``src/`` uses, as a
name or as an attribute, and that ``perfbench/`` never names, runs only under
the tests: it belongs in ``tests/``. A string in ``__all__`` is not a use.
Decorated click commands are entry points and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public file I/O, and the punctured-toric family that a suite is still to run
ALLOWED = {"dump_code", "dump_circuit", "punctured_toric_code"}


def _is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def unused_public_names(root: Path = ROOT) -> list[str]:
    """``module.name`` of each public definition in ``src/stablab`` that nothing runs."""
    defined = []
    used = set()
    for path in sorted((root / "src" / "stablab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not _is_click_command(node):
                    defined.append((path.stem, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    bench = "\n".join(path.read_text() for path in sorted((root / "perfbench").glob("*.py")))
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in ALLOWED and not re.search(rf"\b{name}\b", bench)
    ]


def test_src_defines_no_test_only_function_or_class():
    assert unused_public_names() == []
