"""Suite registry plumbing; the full battery runs in test_acceptance."""

from dataclasses import replace

import pytest

from stablab import syndrome
from stablab.suites import SUITES, run_suites


def test_registry_names_are_kebab_case():
    for name in SUITES:
        assert name == name.lower()
        assert " " not in name and "_" not in name


def test_unknown_suite_name_raises():
    with pytest.raises(KeyError, match="unknown suites"):
        run_suites(["no-such-check"])


def test_subset_run_reports_each_name():
    reports, ok = run_suites(["bounds-regime", "zero-state-distance"])
    assert set(reports) == {"bounds-regime", "zero-state-distance"}
    assert ok is True
    for rep in reports.values():
        assert rep["passed"] is True


def test_every_suite_takes_no_arguments():
    import inspect

    for name, fn in SUITES.items():
        assert not inspect.signature(fn).parameters, name


def test_syndrome_projector_suite_catches_a_dropped_controlled_gate(monkeypatch):
    """The suite's sector-sum reference does not run the extraction circuit."""
    real = syndrome.build_syndrome_circuit

    def drop_one_controlled_gate(group):
        built = real(group)
        layers = list(built.circuit.layers)
        t = next(i for i, layer in enumerate(layers) if any(len(g.qubits) == 2 for g in layer))
        j = next(j for j, g in enumerate(layers[t]) if len(g.qubits) == 2)
        layers[t] = layers[t][:j] + layers[t][j + 1 :]
        return replace(built, circuit=replace(built.circuit, layers=tuple(layers)))

    assert SUITES["syndrome-projector"]()["passed"]
    monkeypatch.setattr(syndrome, "build_syndrome_circuit", drop_one_controlled_gate)
    report = SUITES["syndrome-projector"]()
    assert report["passed"] is False
    assert report["max_deviation"] > 1e-3
