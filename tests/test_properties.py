"""Property tests, drawn by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abelerg import certify, linalg
from test_certify import assert_sweeps_match_reference


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20), N_max=st.integers(0, 300),
       buffered=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.5, 1.5),
       alphas=st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True), min_size=1, max_size=4))
def test_batched_sweeps_equal_per_prefix_reference(n, N_max, buffered, seed,
                                                   radius, alphas):
    # a few sums per buffer, so most sweeps end on a partial one; the
    # odd byte count checks that a partial matrix is not buffered
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    T *= radius / np.sqrt(2.0 * n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "STACK_CHUNK_BYTES",
                   buffered * 16 * n * n + n * n)
        assert_sweeps_match_reference(T, N_max, alphas)
