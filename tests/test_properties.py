"""Property tests, drawn by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abelerg import certify, linalg
from test_certify import assert_sweeps_match_reference
from test_verdict_score import verdict_score


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


# derandomized: a flip this draws is a fixed failing example, not a flake
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(sorted(set(certify.DEFAULT_KIND_CYCLE))))
def test_verdicts_keep_under_unitary_similarity_transpose_and_conjugate(
        seed, kind):
    T = certify.generate_instances(seed, 1, (2, 12), kinds=(kind,))[0].matrix
    Q = verdict_score.haar_unitary(np.random.default_rng(seed), len(T))
    says = verdict_score.verdicts(T)[:2]
    for relative in verdict_score.relatives(T, Q):
        assert verdict_score.verdicts(relative)[:2] == says
