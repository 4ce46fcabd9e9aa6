"""CLI surface: exit codes, golden outputs, byte stability."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import stablab
import stablab.channels
import stablab.cli
import stablab.suites
from stablab.circuits import dump_circuit, random_low_depth
from stablab.cli import main
from stablab.codes import build_code, dump_code, surface_code, toric_code
from stablab.hamiltonians import (
    amplify,
    build_code_hamiltonian,
    energy_report,
    sparsifier_deviation,
    sparsifier_sample_count,
    sparsify,
)
from stablab.io import FRONTIER_COLUMNS
from stablab.states import zero_mixture


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


GOLDEN_TORIC3_PARAMS = """\
{
  "css": true,
  "d": 3,
  "d_cap": 4,
  "k": 2,
  "locality": 4,
  "n": 18,
  "n_checks": 18,
  "name": "toric3"
}
"""


def test_code_params_toric3_golden(runner):
    result = invoke(runner, ["code", "params", "--builtin", "toric3"])
    assert result.exit_code == 0
    assert result.output == GOLDEN_TORIC3_PARAMS


def test_unknown_builtin_exits_2_with_name_list(runner):
    result = invoke(runner, ["code", "params", "--builtin", "nope"])
    assert result.exit_code == 2
    for name in ("five_qubit", "surface13", "surface5", "toric2", "toric3"):
        assert name in result.stderr


def test_code_source_must_be_exactly_one(runner, tmp_path):
    assert invoke(runner, ["code", "params"]).exit_code == 2
    path = tmp_path / "c.json"
    path.write_text('{"checks": ["ZZ"]}')
    result = invoke(
        runner, ["code", "params", "--builtin", "toric2", "--file", str(path)]
    )
    assert result.exit_code == 2


def test_code_params_from_file(runner, tmp_path):
    path = tmp_path / "rep3.json"
    path.write_text(json.dumps({"checks": ["ZZI", "IZZ"]}))
    result = invoke(runner, ["code", "params", "--file", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["n"] == 3 and payload["k"] == 1
    assert payload["name"] == "rep3"


def test_ham_energy_zero_state_five_qubit(runner):
    result = invoke(runner, ["ham", "energy", "--builtin", "five_qubit"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"per_term": [0.5, 0.5, 0.5, 0.5], "total": 2.0, "mean": 0.5}


def test_ham_energy_csv_one_row_per_term(runner):
    result = invoke(runner, ["ham", "energy", "--builtin", "toric2", "--csv"])
    lines = result.output.strip().split("\n")
    assert lines[0] == "term,energy"
    assert len(lines) == 1 + build_code("toric2").n_checks


def test_ham_energy_with_prep_circuit(runner, tmp_path):
    circ = {
        "m": 5,
        "layers": [[{"gate": "X", "qubits": [0]}]],
        "code_qubits": [0, 1, 2, 3, 4],
    }
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(circ))
    result = invoke(
        runner,
        ["ham", "energy", "--builtin", "five_qubit", "--circuit", str(path)],
    )
    assert result.exit_code == 0
    got = json.loads(result.output)
    # independent route to the same numbers
    from stablab.circuits import circuit_from_dict

    state = zero_mixture(5).apply_circuit(circuit_from_dict(circ))
    rep = energy_report(state, build_code_hamiltonian(build_code("five_qubit").group))
    assert got["per_term"] == pytest.approx(list(rep.per_term))
    assert got["total"] == pytest.approx(rep.total)


def test_circuit_lightcone_matches_library(runner, tmp_path):
    circ = {
        "m": 4,
        "layers": [
            [{"gate": "CX", "qubits": [0, 1]}, {"gate": "CX", "qubits": [2, 3]}],
            [{"gate": "CX", "qubits": [1, 2]}],
        ],
        "code_qubits": [0, 1, 2, 3],
    }
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(circ))
    result = invoke(
        runner, ["circuit", "lightcone", "--file", str(path), "--region", "3"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    # CX(1,2) in the last layer does not touch wire 3, so only the first
    # layer's CX(2,3) joins the cone
    assert payload["lightcone"] == [2, 3]
    assert payload["depth"] == 2


def test_malformed_circuit_reports_line_and_column(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 3,\n "layers": [[{"gate"')
    result = invoke(
        runner, ["circuit", "lightcone", "--file", str(path), "--region", "0"]
    )
    assert result.exit_code == 2
    assert ":2:" in result.stderr


def test_bad_region_spec_is_usage_error(runner, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"m": 2, "layers": [], "code_qubits": [0, 1]}))
    result = invoke(
        runner, ["circuit", "lightcone", "--file", str(path), "--region", "a,b"]
    )
    assert result.exit_code == 2


def test_syndrome_build_roundtrips_into_lightcone(runner, tmp_path):
    result = invoke(runner, ["syndrome", "build", "--builtin", "five_qubit"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["depth"] == 18
    assert payload["m"] == 9
    assert payload["depth"] <= payload["depth_bound_statement"]
    path = tmp_path / "synd.json"
    path.write_text(json.dumps(payload["circuit"]))
    cone = invoke(
        runner, ["circuit", "lightcone", "--file", str(path), "--region", "5"]
    )
    assert cone.exit_code == 0
    assert json.loads(cone.output)["m"] == 9


def test_syndrome_decohere_zero_state_uniform(runner):
    result = invoke(runner, ["syndrome", "decohere", "--builtin", "five_qubit"])
    payload = json.loads(result.output)
    assert payload["n_checks"] == 4
    assert len(payload["branches"]) == 16
    for branch in payload["branches"]:
        assert branch["probability"] == pytest.approx(1 / 16)
    assert payload["total_probability"] == pytest.approx(1.0)


def test_entropy_audit_zero_state(runner):
    result = invoke(runner, ["entropy", "audit", "--builtin", "five_qubit"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["k"] == 1
    assert payload["k"] <= payload["S_Theta"] <= payload["per_qubit_sum"] + 1e-9


def test_saved_clifford_prep_audits_on_the_tableau(runner, tmp_path):
    """A saved word circuit reloads as words: toric2's 16 wires need no dense path."""
    prep = tmp_path / "prep.json"
    dump_circuit(random_low_depth(8, 3, "clifford", seed=7), prep)
    result = invoke(runner, ["entropy", "audit", "--builtin", "toric2", "--circuit", str(prep)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["k"] <= payload["S_Theta"] <= payload["per_qubit_sum"] + 1e-9


def test_bounds_eval_example_has_all_entries(runner):
    result = invoke(
        runner,
        ["bounds", "eval", "--n", "1000", "--k", "500", "--d", "31",
         "--eps", "0.01", "--t", "3"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    expected = {
        "thm1", "thm2_rate", "thm3_distance", "cor1_warmup",
        "lem1_entropy", "lem2_agsp", "lem4_lineardist", "cor2_amplified",
    }
    assert set(payload) == expected
    for entry in payload.values():
        assert "applicable" in entry and "value" in entry


def test_bounds_eval_rejects_bad_epsilon(runner):
    result = invoke(runner, ["bounds", "eval", "--n", "10", "--eps", "2.0"])
    assert result.exit_code == 2


def test_bounds_suite_single_check_passes(runner):
    result = invoke(runner, ["bounds", "suite", "--check", "bounds-regime"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["all_passed"] is True
    assert payload["suites"]["bounds-regime"]["passed"] is True


def test_bounds_suite_failure_exits_1(runner, monkeypatch):
    monkeypatch.setitem(
        stablab.suites.SUITES, "bounds-regime", lambda: {"passed": False}
    )
    result = invoke(runner, ["bounds", "suite", "--check", "bounds-regime"])
    assert result.exit_code == 1
    assert "FAILED" in result.stderr
    assert "bounds-regime" in result.stderr


def test_rank_test_rejecting_a_region_below_distance_exits_3(runner, monkeypatch):
    """A logical below the distance contradicts the distance search: an internal error, not a failed check."""
    monkeypatch.setattr(stablab.channels, "_region_is_correctable", lambda group, region: False)
    result = invoke(runner, ["bounds", "suite", "--check", "local-indistinguishability"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Internal error: AssertionError: region (0,) holds a logical")


def test_bounds_suite_needs_all_xor_checks(runner):
    assert invoke(runner, ["bounds", "suite"]).exit_code == 2
    result = invoke(
        runner, ["bounds", "suite", "--all", "--check", "bounds-regime"]
    )
    assert result.exit_code == 2


def test_frontier_json_byte_stable(runner):
    args = [
        "frontier", "--builtin", "toric2", "--t-max", "1",
        "--strategy", "random-clifford", "--budget", "30", "--seed", "7",
    ]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["seed"] == 7
    assert [rec["t"] for rec in payload["records"]] == [0, 1]


GOLDEN_TORIC3_FRONTIER = """\
{
  "budget": 16,
  "code": "toric3",
  "records": [
    {
      "mean_energy": 0.25,
      "seed": 0,
      "strategy": "coordinate-descent",
      "t": 0,
      "total_energy": 4.5
    },
    {
      "mean_energy": 0.25,
      "seed": 0,
      "strategy": "coordinate-descent",
      "t": 1,
      "total_energy": 4.5
    },
    {
      "mean_energy": 0.25,
      "seed": 0,
      "strategy": "coordinate-descent",
      "t": 2,
      "total_energy": 4.5
    },
    {
      "mean_energy": 0.25,
      "seed": 0,
      "strategy": "coordinate-descent",
      "t": 3,
      "total_energy": 4.5
    }
  ],
  "seed": 0,
  "strategies": [
    "coordinate-descent",
    "pauli-products",
    "random-clifford"
  ],
  "t_max": 3
}
"""


def test_frontier_toric3_golden(runner):
    """All three strategies at budget 16: random-clifford draws 64 circuits a run."""
    args = ["frontier", "--builtin", "toric3", "--t-max", "3", "--budget", "16", "--seed", "0"]
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert result.output == GOLDEN_TORIC3_FRONTIER


def test_frontier_csv_header(runner):
    result = invoke(
        runner,
        ["frontier", "--builtin", "toric2", "--t-max", "0",
         "--strategy", "pauli-products", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == ",".join(FRONTIER_COLUMNS)
    assert lines[1].startswith("0,pauli-products,")


@pytest.mark.parametrize("code", [toric_code(4), toric_code(6), surface_code(4)], ids=lambda c: c.name)
def test_frontier_runs_on_codes_past_twenty_qubits(runner, tmp_path, code):
    path = tmp_path / f"{code.name}.json"
    dump_code(code, path)
    result = invoke(runner, ["frontier", "--file", str(path), "--t-max", "1", "--budget", "2"])
    assert result.exit_code == 0, result.output
    records = json.loads(result.output)["records"]
    assert [rec["t"] for rec in records] == [0, 1]
    assert all("product_minimum" not in rec for rec in records)


def test_frontier_labels_a_product_minimum_that_ran_out_of_nodes(runner, tmp_path):
    # three disjoint five_qubit codes: the product search cannot settle them within its budget
    checks = [
        "I" * (5 * c) + str(g) + "I" * (5 * (2 - c))
        for c in range(3)
        for g in build_code("five_qubit").group.generators
    ]
    path = tmp_path / "five_x3.json"
    path.write_text(json.dumps({"checks": checks}))
    args = ["frontier", "--file", str(path), "--t-max", "1", "--strategy", "pauli-products"]
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert [rec["product_minimum"] for rec in json.loads(result.output)["records"]] == ["upper bound"] * 2
    result = invoke(runner, args + ["--format", "csv"])
    lines = result.output.strip().split("\n")
    assert lines[0] == ",".join(FRONTIER_COLUMNS + ("product_minimum",))
    assert all(line.endswith(",upper bound") for line in lines[1:])


def _bounds_eval(**override):
    """`bounds eval` on n = 10 with in-premise values except the overrides."""
    opts = {"n": 10, "k": 2, "d": 3, "ell": 2, "eps": 0.01, "t": 1, **override}
    args = ["bounds", "eval"]
    for key, value in opts.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


# placeholders in argument lists for input files a test writes first
NON_CLIFFORD_PREP = "<non-Clifford prep on {m} wires>"
RANK_23_CODE = "<23 independent Z checks>"


def _materialize(arg, tmp_path):
    """Write the file an argument placeholder names and return its path."""
    for m in (5, 8, 18):
        if arg == NON_CLIFFORD_PREP.format(m=m):
            t_gate = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2**-0.5, 2**-0.5]]]
            circ = {"m": m, "layers": [[{"gate": {"dense": t_gate}, "qubits": [0]}]]}
            path = tmp_path / f"t{m}.json"
            path.write_text(json.dumps(circ))
            return str(path)
    if arg == RANK_23_CODE:
        checks = ["I" * q + "Z" + "I" * (22 - q) for q in range(23)]
        path = tmp_path / "z23.json"
        path.write_text(json.dumps({"checks": checks}))
        return str(path)
    return arg


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize(
    "args, env",
    [
        (["frontier", "--builtin", "five_qubit", "--t-max", "-1"], {}),
        (["frontier", "--builtin", "five_qubit", "--budget", "0"], {}),
        (["amplify", "check", "--builtin", "five_qubit", "--p", "0"], {}),
        (["amplify", "check", "--builtin", "five_qubit", "--n-states", "0"], {}),
        (["sparsify", "--builtin", "five_qubit", "--samples", "0"], {}),
        (["sparsify", "--builtin", "five_qubit", "--delta", "0"], {}),
        (["sparsify", "--builtin", "five_qubit", "--seed", "-1"], {}),
        (["sparsify", "--builtin", "five_qubit"], {"STABLAB_DENSE_LIMIT": "abc"}),
        *(
            (_bounds_eval(**bad), {})
            for bad in (
                {"k": 0}, {"k": 20}, {"d": 0}, {"d": 11},
                {"ell": 0}, {"n_checks": 0}, {"t": -1}, {"m": 0},
            )
        ),
        # inputs past the dense limit
        (["entropy", "audit", "--builtin", "toric2", "--circuit", NON_CLIFFORD_PREP.format(m=8)], {}),
        (["ham", "energy", "--builtin", "toric3", "--circuit", NON_CLIFFORD_PREP.format(m=18)], {}),
        (["ham", "energy", "--builtin", "five_qubit", "--circuit", NON_CLIFFORD_PREP.format(m=5)],
         {"STABLAB_DENSE_LIMIT": "4"}),
        # the negative control's 3-qubit mixture marginal
        (["bounds", "suite", "--check", "local-indistinguishability"], {"STABLAB_DENSE_LIMIT": "2"}),
        # more sectors than the syndrome enumeration lists
        (["sparsify", "--file", RANK_23_CODE, "--samples", "4"], {}),
        # a sample count that is not finite (delta^2 underflows) or past the cap
        (["sparsify", "--builtin", "five_qubit", "--delta", "1e-300"], {}),
        (["sparsify", "--builtin", "five_qubit", "--delta", "1e-4"], {}),
        (["sparsify", "--builtin", "five_qubit", "--samples", str(2**20 + 1)], {}),
        (_bounds_eval(c_ell="nan"), {}),
        (_bounds_eval(c_ell="inf"), {}),
        # loop counts past their ceilings
        (["frontier", "--builtin", "five_qubit", "--t-max", "100000", "--budget", "1"], {}),
        (["frontier", "--builtin", "five_qubit", "--t-max", "1", "--budget", str(10**30)], {}),
        (["amplify", "check", "--builtin", "five_qubit", "--n-states", str(10**30)], {}),
        # a distance search cap below 1
        (["code", "params", "--builtin", "toric3", "--distance-cap", "0"], {}),
        (["code", "params", "--builtin", "toric3", "--distance-cap", "-1"], {}),
    ],
)
def test_invalid_input_exits_2_with_one_line_error(runner, args, env, tmp_path):
    args = [_materialize(arg, tmp_path) for arg in args]
    result = invoke(runner, args, env=env)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.stderr


@pytest.mark.parametrize("command", [["frontier"], ["amplify", "check"], ["sparsify"]])
def test_negative_seed_error_names_the_option(runner, command):
    result = invoke(runner, [*command, "--builtin", "five_qubit", "--seed", "-1"])
    assert result.exit_code == 2
    assert "'--seed'" in result.stderr


def test_internal_error_exits_3_without_traceback(runner, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("simulated\nfailure")

    monkeypatch.setattr(stablab.cli, "code_parameters", boom)
    result = invoke(runner, ["code", "params", "--builtin", "five_qubit"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "Internal error: RuntimeError: simulated failure\n"
    assert "Traceback" not in result.output


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(Path(stablab.__file__).resolve().parents[1])
    code = "import sys, stablab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert out.stdout.strip() == "False"


def test_amplify_check_passes_and_reports_seed(runner):
    result = invoke(
        runner,
        ["amplify", "check", "--builtin", "five_qubit", "--p", "2", "--t", "1",
         "--n-states", "5", "--seed", "3"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout, parse_constant=_reject_constant)
    assert payload["holds"] is True
    assert payload["seed"] == 3
    assert payload["violations"] == 0


def test_sparsify_uses_lemma_sample_count(runner):
    result = invoke(runner, ["sparsify", "--builtin", "five_qubit", "--seed", "0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["samples"] == 2560
    assert payload["seed"] == 0
    assert payload["within_delta"] is True


@pytest.mark.parametrize("name", ["toric3", "surface13"])
def test_sparsify_runs_past_the_dense_cap(runner, name):
    result = invoke(runner, ["sparsify", "--builtin", name, "--seed", "2"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    group = build_code(name).group
    assert payload["samples"] == sparsifier_sample_count(group.n, 0.25, group.locality)
    sparse = sparsify(amplify(build_code_hamiltonian(group, "mean"), 1), payload["samples"], seed=2)
    assert payload["deviation"] == sparsifier_deviation(sparse)
    assert payload["within_delta"] is True


def test_out_writes_identical_bytes(runner, tmp_path):
    target = tmp_path / "params.json"
    written = invoke(
        runner, ["code", "params", "--builtin", "toric3", "--out", str(target)]
    )
    assert written.exit_code == 0
    assert written.output.strip() == str(target)
    assert target.read_text() == GOLDEN_TORIC3_PARAMS


@pytest.mark.parametrize(
    "args",
    [
        ["frontier", "--builtin", "toric2", "--t-max", "1", "--budget", "8"],
        ["frontier", "--builtin", "toric2", "--t-max", "1", "--budget", "8", "--format", "csv"],
        ["ham", "energy", "--builtin", "five_qubit", "--csv"],
    ],
)
def test_out_file_holds_the_stdout_bytes(runner, tmp_path, args):
    printed = invoke(runner, args)
    assert printed.exit_code == 0
    target = tmp_path / "payload"
    written = invoke(runner, args + ["--out", str(target)])
    assert written.exit_code == 0
    assert written.output == f"{target}\n"
    assert target.read_bytes() == printed.stdout_bytes


def test_help_lists_every_subcommand(runner):
    result = invoke(runner, ["--help"])
    for name in ("code", "ham", "circuit", "syndrome", "entropy", "bounds",
                 "frontier", "amplify", "sparsify"):
        assert name in result.output


# --- fuzz: malformed and boundary input reaches every command ---

FUZZ_CODE_FILES = {
    "empty": "",
    "not-an-object": "[]",
    "no-checks": "{}",
    "empty-check-list": '{"checks": []}',
    "dependent-checks": '{"checks": ["ZZI", "IZZ", "ZIZ"]}',
    "identity-check": '{"checks": ["III"]}',
    "minus-identity-product": '{"checks": ["ZZI", "IZZ", "-ZIZ"]}',
    "minus-identity-check": '{"checks": ["-III"]}',
    "check-not-a-string": '{"checks": ["ZZ", 5]}',
    "null-column": '{"css": {"hx": [[null]], "hz": []}}',
    "row-not-a-list": '{"css": {"hx": [3], "hz": []}}',
    "infinite-n": '{"css": {"hx": [[0, 1]], "hz": [[0, 1]], "n": Infinity}}',
    "nan-n": '{"css": {"hx": [[0, 1]], "hz": [[0, 1]], "n": NaN}}',
    "float-column": '{"css": {"hx": [[0.5, 1.9]], "hz": [[0, 1]]}}',
    "bool-column": '{"css": {"hx": [[true, 1]], "hz": [[0, 1]]}}',
    "float-n": '{"checks": ["ZZ"], "n": 2.0}',
}
FUZZ_CIRCUIT_FILES = {
    "empty": "",
    "zero-wires": '{"m": 0, "layers": []}',
    "infinite-wires": '{"m": Infinity, "layers": []}',
    "null-layers": '{"m": 5, "layers": null}',
    "null-qubits": '{"m": 5, "layers": [[{"gate": "H", "qubits": null}]]}',
    "repeated-qubit": '{"m": 2, "layers": [[{"gate": "CX", "qubits": [0, 0]}]]}',
    "nan-dense-gate": '{"m": 5, "layers": [[{"gate": {"dense": [[NaN, 0], [0, 1]]}, "qubits": [0]}]]}',
    "five-wires": '{"m": 5, "layers": [[{"gate": "H", "qubits": [0]}]]}',
    "float-wire": '{"m": 5, "layers": [[{"gate": "H", "qubits": [0.5]}]]}',
    "float-m": '{"m": 5.0, "layers": []}',
    "bool-code-qubit": '{"m": 5, "code_qubits": [true], "layers": []}',
    "float-word-position": '{"m": 5, "layers": [[{"gate": {"word": [["H", [0.0]]]}, "qubits": [0, 1]}]]}',
}
HUGE = str(10**30)


def _fuzz_cases():
    for name in FUZZ_CODE_FILES:
        code = f"code:{name}"
        for args in (
            ["code", "params", "--file", code],
            ["ham", "energy", "--file", code],
            ["syndrome", "build", "--file", code],
            ["syndrome", "decohere", "--file", code],
            ["entropy", "audit", "--file", code],
            ["frontier", "--file", code, "--t-max", "1", "--budget", "2"],
            ["amplify", "check", "--file", code, "--n-states", "1"],
            ["sparsify", "--file", code, "--samples", "4"],
        ):
            yield args
    for name in FUZZ_CIRCUIT_FILES:
        circ = f"circuit:{name}"
        yield ["circuit", "lightcone", "--file", circ, "--region", "0"]
        yield ["ham", "energy", "--builtin", "five_qubit", "--circuit", circ]
        yield ["entropy", "audit", "--builtin", "five_qubit", "--rotation", circ]
    for region in ("", "-1", "99", "0,0", "nan"):
        yield ["circuit", "lightcone", "--file", "circuit:five-wires", "--region", region]
    for opt in ("eps", "delta", "f", "c_ell"):
        for value in ("nan", "inf", "-inf", "1e-320"):
            yield _bounds_eval(**{"delta": 0.1, "f": 0.5, opt: value})
    for override in ({"t": HUGE, "m": "5"}, {"n": HUGE, "t": HUGE, "m": HUGE}, {"ell": HUGE}, {"c_ell": "1e-300", "eps": "1e-300"}):
        yield _bounds_eval(**override)
    yield ["bounds", "suite", "--check", "nope"]
    yield ["bounds", "suite", "--check", "bounds-regime"]
    for opt, value in (("--t", HUGE), ("--t", "1023"), ("--t", "1024"), ("--p", HUGE), ("--p", "23"), ("--seed", "-1")):
        yield ["amplify", "check", "--builtin", "five_qubit", "--n-states", "1", opt, value]
    for opt, value in (("--t-max", "-1"), ("--seed", "-1"), ("--seed", HUGE)):
        yield ["frontier", "--builtin", "five_qubit", "--budget", "1", opt, value]
    for value in ("nan", "inf", "-inf", "-1", "1e-320"):
        yield ["sparsify", "--builtin", "five_qubit", "--delta", value]
    yield ["sparsify", "--builtin", "five_qubit", "--samples", HUGE]
    yield ["code", "params", "--builtin", "five_qubit", "--distance-cap", "-1"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for kind, files in (("code", FUZZ_CODE_FILES), ("circuit", FUZZ_CIRCUIT_FILES)):
        for name, text in files.items():
            path = root / f"{kind}-{name}.json"
            path.write_text(text)
            paths[f"{kind}:{name}"] = str(path)
    return paths


@pytest.mark.parametrize("args", list(_fuzz_cases()), ids=" ".join)
def test_malformed_and_boundary_input_never_crashes(runner, fuzz_files, args):
    """Exit 0, 1 or 2 only: a malformed input is a usage error, never an internal one."""
    args = [fuzz_files.get(arg, arg) for arg in args]
    result = invoke(runner, args)
    assert result.exit_code in (0, 1, 2), result.stderr
    assert "Traceback" not in result.output
    assert "Internal error" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        *(["code", "params", "--file", f"code:{name}"] for name in ("float-column", "bool-column", "float-n")),
        *(
            ["circuit", "lightcone", "--file", f"circuit:{name}", "--region", "0"]
            for name in ("float-wire", "float-m", "bool-code-qubit", "float-word-position")
        ),
    ],
    ids=" ".join,
)
def test_non_integer_json_counts_and_wires_exit_2(runner, fuzz_files, args):
    """0.5 is no wire 0 and true is no column 1: the loaders refuse them."""
    result = invoke(runner, [fuzz_files.get(arg, arg) for arg in args])
    assert result.exit_code == 2
    assert "must be an integer" in result.stderr
