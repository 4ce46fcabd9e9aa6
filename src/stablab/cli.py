"""Command-line front end.

Every command prints canonical JSON (sorted keys, two-space indent) so the
same invocation always produces the same bytes; pass --out to write the
payload atomically instead. Randomized commands embed their seed in the
output. Exit codes: 0 success, 1 a checked inequality came back false,
2 usage errors (including unknown built-ins, file parse errors and
out-of-range options), 3 an internal error (one line on stderr, no
traceback), so that a crash never reads as a failed bound.

The dense-simulation ceiling honors the STABLAB_DENSE_LIMIT environment
variable, which must be a positive integer (else exit 2); an input that
needs a dense path past it also exits 2. There is no interactive mode.
"""

from __future__ import annotations

import math
import sys

import click

from .bounds import BoundInputs, depth_lower_bounds
from .channels import entropy_audit
from .circuits import circuit_to_dict, lightcone, load_circuit, random_low_depth
from .codes import BUILTIN_CODES, build_code, code_parameters, load_code
from .frontier import (
    MAX_FRONTIER_BUDGET,
    MAX_FRONTIER_DEPTH,
    STRATEGIES,
    frontier_search,
    merge_frontiers,
)
from .hamiltonians import (
    MAX_GAP_DEPTH,
    amplification_gap_check,
    amplify,
    build_code_hamiltonian,
    energy_report,
    sparsifier_deviation,
    sparsifier_sample_count,
    sparsify,
)
from .io import canonical_json, frontier_csv, write_text
from .states import (
    DenseLimitError,
    apply_circuit_vec,
    dense_qubit_limit,
    require_dense,
    zero_mixture,
    zero_vector,
)
from .suites import SUITES, run_suites
from .syndrome import build_syndrome_circuit, decohere


# ceiling for `amplify check --n-states`, one gap check per sampled state
MAX_GAP_STATES = 10_000


def _pick_code(builtin: str | None, file_path: str | None):
    if (builtin is None) == (file_path is None):
        raise click.UsageError("pass exactly one of --builtin or --file")
    if builtin is not None:
        if builtin not in BUILTIN_CODES:
            names = ", ".join(sorted(BUILTIN_CODES))
            raise click.UsageError(f"unknown built-in code '{builtin}'; choices: {names}")
        return build_code(builtin)
    try:
        return load_code(file_path)
    except (OSError, ValueError) as err:
        raise click.UsageError(str(err))


def _load_circuit(path: str):
    try:
        return load_circuit(path)
    except (OSError, ValueError) as err:
        raise click.UsageError(str(err))


def _prepared_state(n: int, circuit_path: str | None):
    """|0^n> pushed through an optional prep circuit; dense only if needed."""
    if circuit_path is None:
        return zero_mixture(n)
    circuit = _load_circuit(circuit_path)
    if circuit.m != n:
        raise click.UsageError(f"prep circuit acts on {circuit.m} wires, code has {n}")
    if circuit.is_clifford:
        return zero_mixture(n).apply_circuit(circuit)
    require_dense(n)
    return apply_circuit_vec(zero_vector(n), circuit)


def _emit_text(text: str, out: str | None):
    """Print text, or write it atomically to out and print the path."""
    if out is not None:
        write_text(out, text)
        click.echo(out)
    else:
        click.echo(text, nl=False)


def _emit(payload, out: str | None):
    _emit_text(canonical_json(payload), out)


_code_options = [
    click.option("--builtin", default=None, help="built-in code name"),
    click.option(
        "--file", "file_path", default=None, type=click.Path(), help="code JSON file"
    ),
]


def _with_code_options(fn):
    for opt in reversed(_code_options):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.exceptions.Abort):
            raise
        except DenseLimitError as err:
            raise click.UsageError(str(err))
        except Exception as err:
            message = " ".join(str(err).split())
            click.echo(f"Internal error: {type(err).__name__}: {message}", err=True)
            ctx.exit(3)


@click.group(cls=_Main)
def main():
    """Stabilizer-code laboratory: codes, circuits, bounds, search."""
    try:
        dense_qubit_limit()
    except ValueError as err:
        raise click.UsageError(str(err))


@main.group()
def code():
    """Code construction and parameters."""


@code.command("params")
@_with_code_options
@click.option(
    "--distance-cap", default=4, show_default=True, type=click.IntRange(min=1), help="distance search cap"
)
@click.option("--out", default=None, type=click.Path(), help="write JSON here instead")
def code_params(builtin, file_path, distance_cap, out):
    """Report [[n, k, d]] and check locality for a code."""
    chosen = _pick_code(builtin, file_path)
    params = code_parameters(chosen.group, distance_cap=distance_cap)
    payload = params.as_dict()
    payload["name"] = chosen.name
    payload["n_checks"] = chosen.n_checks
    payload["css"] = chosen.css is not None
    _emit(payload, out)


@main.group()
def ham():
    """Code Hamiltonian energies."""


@ham.command("energy")
@_with_code_options
@click.option("--circuit", "circuit_path", default=None, type=click.Path(), help="prep circuit JSON")
@click.option("--csv", "as_csv", is_flag=True, help="one row per term instead of JSON")
@click.option("--out", default=None, type=click.Path())
def ham_energy(builtin, file_path, circuit_path, as_csv, out):
    """Per-check and total energy of a prepared state."""
    chosen = _pick_code(builtin, file_path)
    state = _prepared_state(chosen.group.n, circuit_path)
    report = energy_report(state, build_code_hamiltonian(chosen.group))
    if as_csv:
        lines = ["term,energy"]
        lines.extend(f"{i},{v!r}" for i, v in enumerate(report.per_term))
        _emit_text("\n".join(lines) + "\n", out)
        return
    payload = {
        "per_term": list(report.per_term),
        "total": report.total,
        "mean": report.mean,
    }
    _emit(payload, out)


@main.group()
def circuit():
    """Layered circuit inspection."""


@circuit.command("lightcone")
@click.option("--file", "file_path", required=True, type=click.Path(), help="circuit JSON file")
@click.option("--region", "region_spec", required=True, help="comma-separated wire list")
@click.option("--out", default=None, type=click.Path())
def circuit_lightcone(file_path, region_spec, out):
    """Backward lightcone of a region through a circuit."""
    loaded = _load_circuit(file_path)
    try:
        region = tuple(int(tok) for tok in region_spec.split(",") if tok.strip())
    except ValueError:
        raise click.UsageError(f"--region must be comma-separated ints, got '{region_spec}'")
    try:
        cone = lightcone(loaded, region)
    except ValueError as err:
        raise click.UsageError(str(err))
    payload = {
        "m": loaded.m,
        "depth": loaded.depth,
        "entangling_depth": loaded.entangling_depth,
        "region": sorted(region),
        "lightcone": sorted(cone),
    }
    _emit(payload, out)


@main.group()
def syndrome():
    """Syndrome extraction circuits and measurement."""


@syndrome.command("build")
@_with_code_options
@click.option("--out", default=None, type=click.Path())
def syndrome_build(builtin, file_path, out):
    """Emit the extraction circuit with its depth bounds."""
    chosen = _pick_code(builtin, file_path)
    built = build_syndrome_circuit(chosen.group)
    payload = {
        "depth": built.depth,
        "depth_bound_constructive": built.depth_bound_constructive,
        "depth_bound_statement": built.depth_bound_statement,
        "m": built.circuit.m,
        "circuit": circuit_to_dict(built.circuit),
    }
    _emit(payload, out)


@syndrome.command("decohere")
@_with_code_options
@click.option("--circuit", "circuit_path", default=None, type=click.Path(), help="prep circuit JSON")
@click.option("--out", default=None, type=click.Path())
def syndrome_decohere(builtin, file_path, circuit_path, out):
    """Measure every check; report the syndrome branch distribution."""
    chosen = _pick_code(builtin, file_path)
    state = _prepared_state(chosen.group.n, circuit_path)
    dec = decohere(state, chosen.group)
    payload = {
        "n_checks": dec.n_checks,
        "total_probability": dec.total_probability,
        "branches": [
            {"syndrome": list(bits), "probability": p} for bits, p, _ in dec.branches
        ],
    }
    _emit(payload, out)


@main.group()
def entropy():
    """Entropy of encoded mixed states."""


@entropy.command("audit")
@_with_code_options
@click.option("--circuit", "circuit_path", default=None, type=click.Path(), help="prep circuit JSON")
@click.option(
    "--rotation",
    "rotation_path",
    default=None,
    type=click.Path(),
    help="audit rotation circuit JSON (default: the extraction circuit)",
)
@click.option("--out", default=None, type=click.Path())
def entropy_audit_cmd(builtin, file_path, circuit_path, rotation_path, out):
    """Check k <= S(Theta) <= sum of rotated single-qubit entropies."""
    chosen = _pick_code(builtin, file_path)
    state = _prepared_state(chosen.group.n, circuit_path)
    if rotation_path is None:
        rotation = build_syndrome_circuit(chosen.group).circuit
    else:
        rotation = _load_circuit(rotation_path)
        wires = chosen.n + chosen.n_checks
        if rotation.m != wires:
            raise click.UsageError(
                f"rotation circuit acts on {rotation.m} wires, data + syndrome register has {wires}"
            )
    payload = entropy_audit(state, chosen.group, rotation)
    _emit(payload, out)


@main.group()
def bounds():
    """Depth lower bound formulas and check suites."""


@bounds.command("eval")
@click.option("--n", required=True, type=int, help="physical qubits")
@click.option("--k", default=None, type=int, help="logical qubits")
@click.option("--d", default=None, type=int, help="distance")
@click.option("--ell", default=None, type=int, help="check locality")
@click.option("--eps", default=None, type=float, help="energy fraction")
@click.option("--delta", default=None, type=float, help="trace distance")
@click.option("--t", default=None, type=int, help="candidate depth")
@click.option("--f", default=None, type=float, help="code-space fidelity")
@click.option("--m", default=None, type=int, help="total circuit qubits")
@click.option("--c-ell", default=1.0, type=float, show_default=True, help="rate-bound constant")
@click.option("--out", default=None, type=click.Path())
def bounds_eval(n, k, d, ell, eps, delta, t, f, m, c_ell, out):
    """Evaluate every bound formula; inapplicable entries say why."""
    try:
        inputs = BoundInputs(n=n, k=k, d=d, ell=ell, epsilon=eps, delta=delta, t=t, f=f, m=m, c_ell=c_ell)
        payload = depth_lower_bounds(inputs)
    except (ValueError, ArithmeticError) as err:
        # a closed form on in-range inputs can still leave the float range
        raise click.UsageError(str(err))
    _emit(payload, out)


@bounds.command("suite")
@click.option("--all", "run_all", is_flag=True, help="run every registered check")
@click.option(
    "--check",
    "checks",
    multiple=True,
    type=click.Choice(sorted(SUITES)),
    help="run a named check (repeatable)",
)
@click.option("--out", default=None, type=click.Path())
def bounds_suite(run_all, checks, out):
    """Run the named inequality suites; exit 1 on any failure."""
    if run_all == bool(checks):
        raise click.UsageError("pass --all or at least one --check, not both")
    names = list(SUITES) if run_all else list(checks)
    reports, all_passed = run_suites(names)
    payload = {"suites": reports, "all_passed": all_passed}
    _emit(payload, out)
    if not all_passed:
        failed = sorted(name for name, rep in reports.items() if not rep["passed"])
        click.echo(f"FAILED: {', '.join(failed)}", err=True)
        sys.exit(1)


@main.command("frontier")
@_with_code_options
@click.option("--t-max", default=3, show_default=True, type=click.IntRange(min=0, max=MAX_FRONTIER_DEPTH))
@click.option(
    "--strategy",
    "strategies",
    multiple=True,
    type=click.Choice(STRATEGIES),
    help="search strategy (repeatable; default: all)",
)
@click.option(
    "--budget",
    default=300,
    show_default=True,
    type=click.IntRange(min=1, max=MAX_FRONTIER_BUDGET),
    help="energy evaluations per strategy",
)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--format",
    "fmt",
    default="json",
    type=click.Choice(["json", "csv"]),
    show_default=True,
)
@click.option("--out", default=None, type=click.Path())
def frontier_cmd(builtin, file_path, t_max, strategies, budget, seed, fmt, out):
    """Best energy found at each depth, merged across strategies."""
    chosen = _pick_code(builtin, file_path)
    if not strategies:
        strategies = STRATEGIES
    runs = [
        frontier_search(chosen, t_max, strategy, budget=budget, seed=seed)
        for strategy in strategies
    ]
    merged = merge_frontiers(*runs)
    if fmt == "csv":
        _emit_text(frontier_csv(merged), out)
        return
    payload = {
        "code": chosen.name,
        "seed": seed,
        "budget": budget,
        "t_max": t_max,
        "strategies": sorted(strategies),
        "records": [rec.row() for rec in merged],
    }
    _emit(payload, out)


@main.group("amplify")
def amplify_group():
    """Energy gap amplification."""


@amplify_group.command("check")
@_with_code_options
@click.option("--p", default=2, show_default=True, type=click.IntRange(min=1), help="amplification power")
@click.option(
    "--t",
    default=1,
    show_default=True,
    type=click.IntRange(min=0, max=MAX_GAP_DEPTH),
    help="prep depth of sampled states",
)
@click.option(
    "--n-states", default=20, show_default=True, type=click.IntRange(min=1, max=MAX_GAP_STATES)
)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", default=None, type=click.Path())
def amplify_check(builtin, file_path, p, t, n_states, seed, out):
    """Gap inequality over random depth-t states; exit 1 on a violation."""
    chosen = _pick_code(builtin, file_path)
    group = chosen.group
    hamiltonian = build_code_hamiltonian(group, "mean")
    violations = 0
    worst = float("inf")
    for trial in range(n_states):
        prep = random_low_depth(group.n, t, family="clifford", seed=seed + trial)
        state = zero_mixture(group.n).apply_circuit(prep)
        try:
            rep = amplification_gap_check(state, hamiltonian, p, t)
        except ValueError as err:
            raise click.UsageError(str(err))
        worst = min(worst, rep.lhs - rep.rhs)
        if not rep.holds:
            violations += 1
    payload = {
        "code": chosen.name,
        "p": p,
        "t": t,
        "n_states": n_states,
        "seed": seed,
        "violations": violations,
        "worst_margin": worst,
        "holds": violations == 0,
    }
    _emit(payload, out)
    if violations:
        click.echo(f"FAILED: {violations} amplification violations", err=True)
        sys.exit(1)


@main.command("sparsify")
@_with_code_options
@click.option("--delta", default=0.25, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--samples", default=None, type=click.IntRange(min=1), help="override the lemma sample count"
)
@click.option("--out", default=None, type=click.Path())
def sparsify_cmd(builtin, file_path, delta, seed, samples, out):
    """One sampled sparsifier draw and its spectral deviation."""
    if not (math.isfinite(delta) and delta > 0):
        raise click.BadParameter(f"{delta} is not a positive finite number", param_hint="'--delta'")
    chosen = _pick_code(builtin, file_path)
    group = chosen.group
    amp = amplify(build_code_hamiltonian(group, "mean"), 1)
    try:
        if samples is None:
            samples = sparsifier_sample_count(group.n, delta, group.locality)
        deviation = sparsifier_deviation(sparsify(amp, samples, seed=seed))
    except ValueError as err:
        raise click.UsageError(str(err))
    payload = {
        "code": chosen.name,
        "delta": delta,
        "seed": seed,
        "samples": samples,
        "deviation": deviation,
        "within_delta": deviation <= delta,
    }
    _emit(payload, out)


if __name__ == "__main__":
    main()
