"""resample_forbidden_targets against the masked-loop re-draw it replaced.

The kernel re-draws colliding entries through flat indices.  The oracle
below is the historical boolean-mask loop, kept verbatim: it re-compares
the full arrays every pass and assigns the re-draws in C order.  Both must
leave identical targets *and* the generator in the identical state, for a
broadcast ``(n, 1)`` ``forbidden`` over an ``(n, k)`` block, for a
same-shape 1-d ``forbidden``, and for non-contiguous ``targets`` views
(which must be updated in place).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rand import RandomSource, resample_forbidden_targets


def _masked_loop_oracle(source, targets, forbidden, n):
    mask = targets == forbidden
    while np.any(mask):
        targets[mask] = source.integers(0, n, size=int(mask.sum()))
        mask = targets == forbidden
    return targets


def _cases(n, k):
    """(targets-builder, forbidden) pairs; builders return (base, view)."""
    own = np.arange(n)[:, None]
    repeated = np.repeat(np.arange(n), k)

    def block(rng):
        base = rng.integers(0, n, size=(n, k))
        return base, base

    def strided_block(rng):
        base = rng.integers(0, n, size=(n, 2 * k))
        return base, base[:, ::2]

    def transposed_block(rng):
        base = rng.integers(0, n, size=(k, n))
        return base, base.T

    def flat(rng):
        base = rng.integers(0, n, size=n * k)
        return base, base

    def strided_flat(rng):
        base = rng.integers(0, n, size=2 * n * k)
        return base, base[::2]

    return {
        "block/broadcast": (block, own),
        "strided-block/broadcast": (strided_block, own),
        "transposed-block/broadcast": (transposed_block, own),
        "flat/same-shape": (flat, repeated),
        "strided-flat/same-shape": (strided_flat, repeated),
    }


def _run_both(n, k, seed, case):
    build, forbidden = _cases(n, k)[case]
    kernel_source = RandomSource(seed)
    oracle_source = RandomSource(seed)
    kernel_base, kernel_view = build(kernel_source)
    oracle_base, oracle_view = build(oracle_source)

    returned = resample_forbidden_targets(kernel_source, kernel_view, forbidden, n)
    _masked_loop_oracle(oracle_source, oracle_view, forbidden, n)

    assert returned is kernel_view
    assert np.array_equal(kernel_base, oracle_base)
    assert not np.any(kernel_view == forbidden)
    assert (
        kernel_source.generator.bit_generator.state
        == oracle_source.generator.bit_generator.state
    )
    return kernel_source, oracle_source


@pytest.mark.parametrize("case", sorted(_cases(2, 1)))
@pytest.mark.parametrize("k", [1, 3, 15])
@pytest.mark.parametrize("n", [2, 3, 50])
def test_resample_matches_masked_loop_oracle(n, k, case):
    kernel_source, oracle_source = _run_both(n, k, seed=1000 * n + k, case=case)
    # The follow-on stream is the same too.
    assert np.array_equal(
        kernel_source.integers(0, 1 << 40, size=8),
        oracle_source.integers(0, 1 << 40, size=8),
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    k=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    case=st.sampled_from(sorted(_cases(2, 1))),
)
def test_resample_matches_masked_loop_oracle_property(n, k, seed, case):
    _run_both(n, k, seed, case)
