"""Every CLI option changes what the command prints or how it exits.

The table below maps each (command, option) that click declares to two
argument lists that differ only in that option. An option that no output
reads fails here: drop it, or make the command read it.
"""

import click
import pytest
from click.testing import CliRunner

from stablab.circuits import Gate, LayeredCircuit, dump_circuit, random_low_depth
from stablab.cli import main
from stablab.codes import build_code, dump_code

# placeholders for the input files a test writes first, and for an --out target
FIVE_FILE = "<five_qubit code file>"
TORIC2_FILE = "<toric2 code file>"
PREP_5 = "<H on wires 0 and 3 of 5, so that the first five_qubit check reads +1>"
PREP_5_OTHER = "<depth-2 Clifford prep on 5 wires>"
ROTATION_9 = "<depth-1 Clifford rotation on 9 wires>"
OUT = "<output file>"

FIVE = ["--builtin", "five_qubit"]
BOUNDS = {
    "--n": "1000", "--k": "500", "--d": "31", "--ell": "4", "--eps": "0.01",
    "--delta": "0.1", "--t": "3", "--f": "0.5", "--m": "5000", "--c-ell": "1.0",
}
FRONTIER = ["frontier", *FIVE, "--t-max", "1", "--budget", "4", "--strategy", "pauli-products"]
AMPLIFY = ["amplify", "check", *FIVE, "--n-states", "2"]
SPARSIFY = ["sparsify", *FIVE, "--samples", "50"]


def _bounds_eval(option=None, value=None):
    args = ["bounds", "eval"]
    for key, default in BOUNDS.items():
        args += [key, value if key == option else default]
    return args


def _with_and_without(base, *option):
    return [*base, *option], list(base)


def _code_pairs(command):
    """--builtin, --file and --out on a command that reads a code."""
    return {
        (command, "--builtin"): (
            [*command.split(), "--builtin", "five_qubit"],
            [*command.split(), "--builtin", "toric2"],
        ),
        (command, "--file"): ([*command.split(), "--file", FIVE_FILE], [*command.split(), "--file", TORIC2_FILE]),
        (command, "--out"): _with_and_without([*command.split(), *FIVE], "--out", OUT),
    }


OPTION_PAIRS = {
    **_code_pairs("code params"),
    ("code params", "--distance-cap"): (
        ["code", "params", *FIVE, "--distance-cap", "4"],
        ["code", "params", *FIVE, "--distance-cap", "2"],
    ),
    **_code_pairs("ham energy"),
    ("ham energy", "--circuit"): _with_and_without(["ham", "energy", *FIVE], "--circuit", PREP_5),
    ("ham energy", "--csv"): _with_and_without(["ham", "energy", *FIVE], "--csv"),
    ("circuit lightcone", "--file"): (
        ["circuit", "lightcone", "--file", PREP_5, "--region", "0"],
        ["circuit", "lightcone", "--file", PREP_5_OTHER, "--region", "0"],
    ),
    ("circuit lightcone", "--region"): (
        ["circuit", "lightcone", "--file", PREP_5, "--region", "0"],
        ["circuit", "lightcone", "--file", PREP_5, "--region", "0,1"],
    ),
    ("circuit lightcone", "--out"): _with_and_without(
        ["circuit", "lightcone", "--file", PREP_5, "--region", "0"], "--out", OUT
    ),
    **_code_pairs("syndrome build"),
    **_code_pairs("syndrome decohere"),
    ("syndrome decohere", "--circuit"): _with_and_without(["syndrome", "decohere", *FIVE], "--circuit", PREP_5),
    **_code_pairs("entropy audit"),
    ("entropy audit", "--circuit"): _with_and_without(["entropy", "audit", *FIVE], "--circuit", PREP_5),
    ("entropy audit", "--rotation"): _with_and_without(["entropy", "audit", *FIVE], "--rotation", ROTATION_9),
    **{
        ("bounds eval", option): (_bounds_eval(), _bounds_eval(option, other))
        for option, other in (
            ("--n", "2000"), ("--k", "400"), ("--d", "25"), ("--ell", "3"), ("--eps", "0.02"),
            ("--delta", "0.2"), ("--t", "1"), ("--f", "0.6"), ("--m", "6000"), ("--c-ell", "2.0"),
        )
    },
    ("bounds eval", "--out"): _with_and_without(_bounds_eval(), "--out", OUT),
    ("bounds suite", "--all"): _with_and_without(["bounds", "suite", "--check", "bounds-regime"], "--all"),
    ("bounds suite", "--check"): _with_and_without(["bounds", "suite"], "--check", "bounds-regime"),
    ("bounds suite", "--out"): _with_and_without(["bounds", "suite", "--check", "bounds-regime"], "--out", OUT),
    **_code_pairs("frontier"),
    ("frontier", "--t-max"): _with_and_without(FRONTIER, "--t-max", "0"),
    ("frontier", "--strategy"): _with_and_without(FRONTIER, "--strategy", "random-clifford"),
    ("frontier", "--budget"): _with_and_without(FRONTIER, "--budget", "5"),
    ("frontier", "--seed"): _with_and_without(FRONTIER, "--seed", "1"),
    ("frontier", "--format"): _with_and_without(FRONTIER, "--format", "csv"),
    **_code_pairs("amplify check"),
    ("amplify check", "--p"): _with_and_without(AMPLIFY, "--p", "3"),
    ("amplify check", "--t"): _with_and_without(AMPLIFY, "--t", "0"),
    ("amplify check", "--n-states"): _with_and_without(AMPLIFY, "--n-states", "3"),
    ("amplify check", "--seed"): _with_and_without(AMPLIFY, "--seed", "1"),
    **_code_pairs("sparsify"),
    ("sparsify", "--delta"): _with_and_without(SPARSIFY, "--delta", "0.5"),
    ("sparsify", "--seed"): _with_and_without(SPARSIFY, "--seed", "1"),
    ("sparsify", "--samples"): _with_and_without(SPARSIFY, "--samples", "60"),
}


def declared_options(group: click.Group = main, path: tuple[str, ...] = ()):
    """((command path, longest option name), is_flag) of every option under a click group."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from declared_options(command, path + (name,))
        else:
            for param in command.params:
                if isinstance(param, click.Option):
                    yield (" ".join(path + (name,)), max(param.opts, key=len)), param.is_flag


def _drop(args: list[str], option: str, is_flag: bool) -> list[str]:
    """args without every occurrence of option (and its value)."""
    out, i = [], 0
    while i < len(args):
        if args[i] == option:
            i += 1 if is_flag else 2
        else:
            out.append(args[i])
            i += 1
    return out


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    paths = {}
    for placeholder, name in ((FIVE_FILE, "five_qubit"), (TORIC2_FILE, "toric2")):
        paths[placeholder] = str(root / f"{name}.json")
        dump_code(build_code(name), paths[placeholder])
    paths[PREP_5] = str(root / "h03.json")
    layer = [Gate(qubits=(0,), name="H"), Gate(qubits=(3,), name="H")]
    dump_circuit(LayeredCircuit(m=5, layers=(tuple(layer),)), paths[PREP_5])
    for placeholder, m, depth in ((PREP_5_OTHER, 5, 2), (ROTATION_9, 9, 1)):
        paths[placeholder] = str(root / f"clifford-{m}.json")
        dump_circuit(random_low_depth(m, depth, "clifford", seed=4), paths[placeholder])
    paths[OUT] = str(root / "out.txt")
    return paths


def test_table_lists_every_declared_option():
    assert set(OPTION_PAIRS) == set(dict(declared_options()))


@pytest.mark.parametrize("key", sorted(OPTION_PAIRS), ids=" ".join)
def test_every_option_changes_stdout_or_exit_code(key, input_files):
    command, option = key
    first, second = OPTION_PAIRS[key]
    flag = dict(declared_options())[key]
    assert first != second and _drop(first, option, flag) == _drop(second, option, flag)
    runner = CliRunner()
    results = [runner.invoke(main, [input_files.get(a, a) for a in args]) for args in (first, second)]
    assert all(r.exception is None or isinstance(r.exception, SystemExit) for r in results)
    assert (results[0].exit_code, results[0].stdout) != (results[1].exit_code, results[1].stdout)
