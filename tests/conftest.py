import sys

import pytest

from stablab import paulis


@pytest.fixture
def no_dense_operators(monkeypatch):
    """Make paulis.dense_matrix raise at every name it is bound to."""
    real = paulis.dense_matrix

    def refuse(p):
        raise AssertionError(f"dense matrix of {p} built on a production path")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "stablab"]:
        for attr in [a for a, value in vars(module).items() if value is real]:
            monkeypatch.setattr(module, attr, refuse)
