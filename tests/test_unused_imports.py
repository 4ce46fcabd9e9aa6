"""No module in ``src/stablab`` or ``tests`` imports a name it never reads.

The repository has no linter; this stdlib ``ast`` scan stands in for its
unused-import rule. A name counts as read when it appears anywhere in the
module as a bare name (``np`` in ``np.zeros`` included), so an import is
flagged only when nothing in its module refers to it. ``from __future__``
imports are compiler directives and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "stablab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """``line name`` for each name an import in ``path`` binds and the module never reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for line, name in bound if name not in read]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path) for path in MODULES}
    assert {module: names for module, names in found.items() if names} == {}


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "print(os.sep, tau)\n"
    )
    assert unused_imports(module) == ["3 js", "4 pi"]
