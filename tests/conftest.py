import pytest

from abelerg import linalg


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that grows by one entry per linalg.operator_norm call."""
    calls = []
    original = linalg.operator_norm
    monkeypatch.setattr(linalg, "operator_norm",
                        lambda A: calls.append(1) or original(A))
    return calls
