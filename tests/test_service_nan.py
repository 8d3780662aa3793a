"""QuantileService rejects NaN at every entry point; ±inf stays accepted.

NaN has no rank.  Before the check, ``rank_of(nan)`` answered the bottom
bracket without a degraded flag, ``update_value(i, nan)`` was accepted and
the next incremental rebuild refreshed no lane, and a build over values
holding one NaN served NaN grid answers.
"""

import numpy as np
import pytest

from repro.core.service import QuantileService
from repro.exceptions import ConfigurationError


@pytest.fixture
def service(small_values) -> QuantileService:
    return QuantileService(small_values, eps=0.1, rng=3)


def test_build_rejects_nan_values(small_values):
    values = np.asarray(small_values, dtype=float).copy()
    values[7] = np.nan
    with pytest.raises(ConfigurationError, match="NaN"):
        QuantileService(values, eps=0.1, rng=3)


def test_build_accepts_infinite_values(small_values):
    values = np.asarray(small_values, dtype=float).copy()
    values[0], values[1] = -np.inf, np.inf
    service = QuantileService(values, eps=0.1, rng=3)
    assert np.all(np.isfinite(service.grid_answers))


def test_update_value_rejects_nan(service):
    before = service._array.copy()
    with pytest.raises(ConfigurationError, match="NaN"):
        service.update_value(3, float("nan"))
    assert np.array_equal(service._array, before)
    service.update_value(3, float("inf"))
    assert service._array[3] == np.inf


def test_rank_of_rejects_nan(service):
    with pytest.raises(ConfigurationError, match="NaN"):
        service.rank_of(float("nan"))
    assert service.queries_answered == 0
    assert service.rank_of(float("-inf")).phi == pytest.approx(0.05)
    assert service.rank_of(float("inf")).phi == pytest.approx(0.95)
