import numpy as np
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


@pytest.fixture
def hermitian_part_max_eig():
    """Largest eigenvalue of (T + T*)/2, as a function of T.

    In an inner-product space this equals max Re W(T), the rightmost point
    of the numerical range's real part; tests use it to build instances.
    """
    def max_eig(T):
        T = np.asarray(T, dtype=np.complex128)
        return float(np.linalg.eigvalsh((T + T.conj().T) / 2.0)[-1])
    return max_eig
