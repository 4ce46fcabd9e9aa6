"""``src/stablab`` ships only code that a command, a suite or the benchmark runs.

A public module-level function or class that no code in ``src/`` uses, as a
name or as an attribute, and that ``perfbench/`` never names, runs only under
the tests: it belongs in ``tests/``. A string in ``__all__`` is not a use.
Decorated click commands are entry points and are exempt.

The same holds for parameters: a defaulted parameter of a public function or
method that no call in ``src/`` passes, by keyword or by position, is set
only by the tests, and should be a constant.
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


# the empty group needs its qubit count
ALLOWED_PARAMETERS = {"paulis.StabilizerGroup.__init__(n)"}


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> tuple[list[str], list[str]]:
    """(positional parameter names, names of the parameters with a default)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][int(is_method) :]
    defaulted = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def unset_parameters(root: Path = ROOT) -> list[str]:
    """``module.function(param)`` for each defaulted public parameter no call in ``src/`` sets.

    A call binds by name: ``f(...)`` and ``obj.f(...)`` reach every public
    function or method named ``f``, and a call of class ``C`` its
    ``__init__``. A call with ``*args`` or ``**kwargs`` sets every parameter.
    An argument that only forwards the caller's own defaulted parameter, as
    a bare name, sets the callee's parameter only if the caller's is set.
    """
    callees: dict[str, list[tuple[str, list[str], list[str]]]] = {}
    bodies = []  # (qualified name of the enclosing public def or None, its defaulted names, node)
    for path in sorted((root / "src" / "stablab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and not _is_click_command(node):
                qual = f"{path.stem}.{node.name}"
                positional, defaulted = _defaulted(node, False)
                callees.setdefault(node.name, []).append((qual, positional, defaulted))
                bodies.append((qual, defaulted, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                        qual = f"{path.stem}.{node.name}.{item.name}"
                        positional, defaulted = _defaulted(item, True)
                        key = node.name if item.name == "__init__" else item.name
                        callees.setdefault(key, []).append((qual, positional, defaulted))
                        bodies.append((qual, defaulted, item))
                    else:
                        bodies.append((None, [], item))
            else:
                bodies.append((None, [], node))

    set_by = {}  # (callee qual, param) -> set of (caller qual, param) it waits on; empty = set
    for caller, caller_defaults, body in bodies:
        for call in ast.walk(body):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
            for qual, positional, defaulted in callees.get(name, ()):
                passed = {p: v for p, v in zip(positional, call.args)}
                passed.update({k.arg: k.value for k in call.keywords if k.arg is not None})
                for param in defaulted:
                    if starred:
                        set_by[(qual, param)] = set()
                    elif param in passed:
                        value = passed[param]
                        if caller and isinstance(value, ast.Name) and value.id in caller_defaults:
                            waits = set_by.setdefault((qual, param), {(caller, value.id)})
                            if waits:
                                waits.add((caller, value.id))
                        else:
                            set_by[(qual, param)] = set()

    settled = {key for key, waits in set_by.items() if not waits}
    grown = True
    while grown:
        grown = False
        for key, waits in set_by.items():
            if key not in settled and waits & settled:
                settled.add(key)
                grown = True
    return sorted(
        f"{qual}({param})"
        for defs in callees.values()
        for qual, _, defaulted in defs
        for param in defaulted
        if (qual, param) not in settled
    )


def test_src_defines_no_test_only_parameter():
    assert unset_parameters() == sorted(ALLOWED_PARAMETERS)


def test_parameter_scan_follows_positions_keywords_classes_and_forwarding(tmp_path):
    package = tmp_path / "src" / "stablab"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "import click\n"
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return g(a, e=c)\n"
        "def g(x, e=0):\n"
        "    return h(x, y=e)\n"
        "def h(x, y=0):\n"
        "    return x\n"
        "class C:\n"
        "    def __init__(self, n=0):\n"
        "        self.n = n\n"
        "    def m(self, k=1):\n"
        "        return k\n"
        "@click.command()\n"
        "def cli(opt=0):\n"
        "    return f(1, 2, d=4), C(n=1), C().m()\n"
    )
    assert unset_parameters(tmp_path) == ["mod.C.m(k)", "mod.f(c)", "mod.g(e)", "mod.h(y)"]


# timing history (a committed benchmark file, a host's size) belongs in CHANGES.md
TIMING_HISTORY = re.compile(r"BENCH_|vCPU")


def docstrings_with_timing_history(root: Path = ROOT) -> list[str]:
    """``module:line`` of each docstring in ``src/stablab`` that names a ``BENCH_`` file or a host."""
    found = []
    for path in sorted((root / "src" / "stablab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc and TIMING_HISTORY.search(doc):
                    found.append(f"{path.stem}:{getattr(node, 'lineno', 1)}")
    return found


def test_src_docstrings_carry_no_timing_history():
    assert docstrings_with_timing_history() == []


def test_timing_history_scan_reads_module_class_and_function_docstrings(tmp_path):
    package = tmp_path / "src" / "stablab"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""Took 3 ms on a 2-vCPU host."""\n'
        "class C:\n"
        '    """Clean."""\n'
        "    def m(self):\n"
        '        """See BENCH_pr1.json."""\n'
        "def f():\n"
        '    """A string that is not a docstring may name one."""\n'
        "    return 'BENCH_pr1.json'\n"
    )
    assert docstrings_with_timing_history(tmp_path) == ["mod:1", "mod:4"]
