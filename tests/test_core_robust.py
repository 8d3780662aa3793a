"""Tests for the Section-5 failure-tolerant algorithms (Theorem 1.4)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.robust import (
    _first_good_pulls,
    default_pulls_per_iteration,
    robust_approximate_quantile,
)
from repro.exceptions import ConfigurationError
from repro.faults import CrashRestart, FaultInjector, MessageDrop
from repro.gossip.failures import PerNodeFailures
from repro.gossip.network import PullBatch
from repro.utils.rand import RandomSource
from repro.utils.stats import rank_error


def test_default_pulls_grow_with_mu():
    assert default_pulls_per_iteration(0.0) == 4
    assert default_pulls_per_iteration(0.5) > default_pulls_per_iteration(0.2)
    assert default_pulls_per_iteration(0.9) > default_pulls_per_iteration(0.5)
    with pytest.raises(ConfigurationError):
        default_pulls_per_iteration(1.0)


def test_accurate_under_moderate_failures(medium_values):
    phi, eps, mu = 0.5, 0.1, 0.3
    result = robust_approximate_quantile(
        medium_values, phi=phi, eps=eps, failure_model=mu, rng=1
    )
    assert rank_error(medium_values, result.estimate, phi) <= eps
    assert result.good_fraction > 0.5
    assert result.answered_fraction > 0.9


def test_accurate_under_heavy_failures(medium_values):
    phi, eps, mu = 0.75, 0.15, 0.5
    result = robust_approximate_quantile(
        medium_values, phi=phi, eps=eps, failure_model=mu, rng=2
    )
    assert rank_error(medium_values, result.estimate, phi) <= eps
    # most answering nodes should individually be within eps
    finite = result.estimates[np.isfinite(result.estimates)]
    errors = [rank_error(medium_values, float(v), phi) for v in finite]
    assert np.mean(np.asarray(errors) <= eps) > 0.8


def test_rounds_increase_with_mu(medium_values):
    light = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, failure_model=0.1, rng=3
    )
    heavy = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, failure_model=0.6, rng=3
    )
    assert heavy.rounds > light.rounds
    assert heavy.pulls_per_iteration > light.pulls_per_iteration


def test_per_node_failure_model(medium_values):
    probs = np.zeros(medium_values.size)
    probs[: medium_values.size // 2] = 0.4
    model = PerNodeFailures(probs)
    result = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, failure_model=model, rng=4
    )
    assert rank_error(medium_values, result.estimate, 0.5) <= 0.1


def test_no_failures_degenerates_gracefully(medium_values):
    result = robust_approximate_quantile(
        medium_values, phi=0.25, eps=0.1, failure_model=0.0, rng=5
    )
    assert result.good_fraction == 1.0
    assert result.answered_fraction == 1.0
    assert rank_error(medium_values, result.estimate, 0.25) <= 0.1


def test_extra_spread_rounds_increase_coverage(medium_values):
    few = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, failure_model=0.6, rng=6,
        extra_spread_rounds=0,
    )
    many = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, failure_model=0.6, rng=6,
        extra_spread_rounds=20,
    )
    assert many.answered_fraction >= few.answered_fraction


def test_summary_keys(medium_values):
    result = robust_approximate_quantile(
        medium_values, phi=0.5, eps=0.1, failure_model=0.2, rng=7
    )
    summary = result.summary()
    assert summary["n"] == medium_values.size
    assert 0.0 <= summary["good_fraction"] <= 1.0


def test_validation_errors(medium_values):
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(medium_values, phi=2.0, eps=0.1, failure_model=0.1)
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(medium_values, phi=0.5, eps=0.0, failure_model=0.1)
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(
            medium_values, phi=0.5, eps=0.1, failure_model=0.1, pulls_per_iteration=2
        )
    with pytest.raises(ConfigurationError):
        robust_approximate_quantile(
            medium_values, phi=0.5, eps=0.1, failure_model=0.1, final_samples=4
        )


def test_nan_values_rejected(medium_values):
    values = medium_values.astype(float)
    values[3] = np.nan
    with pytest.raises(ConfigurationError, match="NaN"):
        robust_approximate_quantile(values, phi=0.5, eps=0.1, failure_model=0.1)


def test_infinite_values_accepted(medium_values):
    values = medium_values.astype(float)
    values[:4] = [np.inf, -np.inf, np.inf, -np.inf]
    result = robust_approximate_quantile(
        values, phi=0.5, eps=0.1, failure_model=0.1, rng=9
    )
    assert rank_error(values, result.estimate, 0.5) <= 0.1


# ---- first-good-pull selection ------------------------------------------------

def _loop_first_good(batch, good, count):
    """Per-node reference: scan each row for its first ``count`` good pulls."""
    goodmask = batch.ok & good[batch.partners]
    n = goodmask.shape[0]
    chosen = np.full((n, count), -1, dtype=int)
    enough = np.zeros(n, dtype=bool)
    for node in range(n):
        cols = np.nonzero(goodmask[node])[0]
        if cols.size >= count:
            chosen[node] = cols[:count]
            enough[node] = True
    stays = good & enough
    idx = np.nonzero(stays)[0]
    picked = np.stack([batch.values[idx, chosen[idx, j]] for j in range(count)], axis=1)
    return stays, picked


def _assert_same_selection(batch, good, count):
    stays, picked = _first_good_pulls(batch, good, count)
    want_stays, want_picked = _loop_first_good(batch, good, count)
    np.testing.assert_array_equal(stays, want_stays)
    assert picked.shape == (int(want_stays.sum()), count)
    assert picked.dtype == batch.values.dtype
    assert picked.tobytes() == want_picked.tobytes()
    return stays, picked


def test_first_good_pulls_hand_built_rows():
    # Node 4 is not good, so every pull of node 4 is bad.
    good = np.array([True, True, True, True, False])
    partners = np.array([
        [1, 2, 3, 1],   # node 0: four good pulls, keeps the first two
        [0, 4, 4, 4],   # node 1: one good pull (partner 4 is not good)
        [4, 0, 4, 1],   # node 2: exactly two good pulls, at columns 1 and 3
        [0, 1, 2, 0],   # node 3: its pulls failed except columns 2 and 3
        [0, 1, 2, 3],   # node 4: good pulls, but the puller was not good
    ])
    ok = np.ones(partners.shape, dtype=bool)
    ok[3, :2] = False
    values = 10.0 * np.arange(partners.size, dtype=float).reshape(partners.shape)
    batch = PullBatch(partners=partners, values=values, ok=ok)

    stays, picked = _assert_same_selection(batch, good, 2)
    np.testing.assert_array_equal(stays, [True, False, True, True, False])
    np.testing.assert_array_equal(picked, [[0.0, 10.0], [90.0, 110.0], [140.0, 150.0]])


def test_first_good_pulls_count_equals_k_and_empty_rows():
    good = np.ones(3, dtype=bool)
    partners = np.array([[1, 2, 1], [0, 2, 0], [0, 1, 1]])
    ok = np.array([[True, True, True], [True, False, True], [False] * 3])
    values = np.arange(9, dtype=np.float32).reshape(3, 3)
    batch = PullBatch(partners=partners, values=values, ok=ok)

    stays, picked = _assert_same_selection(batch, good, 3)
    np.testing.assert_array_equal(stays, [True, False, False])
    np.testing.assert_array_equal(picked, [[0.0, 1.0, 2.0]])

    # No node has enough good pulls: an empty selection, not an error.
    stays, picked = _assert_same_selection(batch, np.zeros(3, dtype=bool), 1)
    assert not stays.any() and picked.shape == (0, 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_first_good_pulls_matches_per_node_loop(n, k, data):
    count = data.draw(st.integers(min_value=1, max_value=k))
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    p_ok = data.draw(st.floats(min_value=0.0, max_value=1.0))
    p_good = data.draw(st.floats(min_value=0.0, max_value=1.0))
    gen = np.random.default_rng(seed)
    batch = PullBatch(
        partners=gen.integers(0, n, size=(n, k)),
        values=gen.standard_normal((n, k)),
        ok=gen.random((n, k)) < p_ok,
    )
    _assert_same_selection(batch, gen.random(n) < p_good, count)


# ---- stream pins --------------------------------------------------------------
#
# sha256 prefixes over every output of seeded robust runs: the estimates'
# bytes, then the estimate, rounds, messages, bits, good fraction and
# answered fraction.  Captured on the per-node-loop selection that the
# array selection replaced; the two must agree bit for bit.  The grid covers
# both failure models, float32, no spreading rounds, a 2-tournament schedule
# with delta < 1 (phi = 0.2 and 0.8: the coin branch, min and max) and a
# drop + crash injector.  The crash pin records a known defect on purpose:
# under crash faults every node loses good status (good = answered = 0,
# estimate NaN).  A pin changes only with a CHANGES.md note saying why.

def _pin_values(n, seed):
    return RandomSource(seed).random(n) * 100.0


def _pin_digest(result):
    digest = hashlib.sha256(np.ascontiguousarray(result.estimates).tobytes())
    digest.update(repr((
        result.estimate, result.rounds, result.metrics.messages,
        result.metrics.total_bits, result.good_fraction, result.answered_fraction,
    )).encode())
    return digest.hexdigest()[:16]


def _half_failing(n):
    probs = np.zeros(n)
    probs[: n // 2] = 0.4
    return PerNodeFailures(probs)


ROBUST_PINS = {
    "mu0": (dict(seed=1, n=2048, phi=0.5, failure_model=0.0), "af32a0b9675c1426"),
    "mu0.1": (dict(seed=2, n=2048, phi=0.5, failure_model=0.1), "481c20a2d69ad399"),
    "mu0.3": (dict(seed=3, n=20_000, phi=0.5, failure_model=0.3), "ae19b4ed9853a800"),
    "per_node": (
        dict(seed=4, n=2048, phi=0.5, failure_model=_half_failing(2048)),
        "7e525e02385175ff",
    ),
    "float32": (
        dict(seed=5, n=2048, phi=0.5, failure_model=0.1, dtype=np.float32),
        "7c18ddeb0099ab6d",
    ),
    "no_spread": (
        dict(seed=6, n=2048, phi=0.5, failure_model=0.3, extra_spread_rounds=0),
        "c323553bf0372698",
    ),
    "coin_min": (dict(seed=7, n=2048, phi=0.2, failure_model=0.1), "65eef3173bb707b8"),
    "coin_max": (dict(seed=8, n=2048, phi=0.8, failure_model=0.1), "76de7f2227f8617c"),
    "drop_crash": (
        dict(
            seed=9, n=2048, phi=0.5, failure_model=0.0,
            faults=FaultInjector([MessageDrop(0.1), CrashRestart(0.1)], rng=3),
        ),
        "e88314974ada46c2",
    ),
}


@pytest.mark.parametrize("name", sorted(ROBUST_PINS))
def test_robust_stream_pinned(name):
    config, expected = ROBUST_PINS[name]
    config = dict(config)
    seed = config.pop("seed")
    values = _pin_values(config.pop("n"), 40 + seed)
    result = robust_approximate_quantile(values, eps=0.1, rng=seed, **config)
    assert _pin_digest(result) == expected
