"""QuantileService query serving against the reference numpy formulation.

The oracle below answers ``quantile`` (grid source) and ``rank_of`` the
way the serving layer's numpy formulation does: the nearest lane by
``argmin(abs(grid - phi))`` (lowest lane on a tie), the bracket count by
``count_nonzero(grid_answers < value)``, ``np.clip`` on the estimate and
``np.max`` over the lane drift.  Every ``QueryAnswer`` field the service
serves must equal the oracle's bit for bit — compared through ``repr``,
which tells ``0.1`` from its neighbouring doubles, ``-0.0`` from ``0.0``
and a Python ``float`` from ``np.float64`` — in every service state and
after every point that invalidates the served state: ``update_value``, a
full rebuild, an incremental rebuild, a failed-validation rebuild and
``advance_churn``.
"""

import numpy as np
import pytest

from repro.core.service import QuantileService, QueryAnswer
from repro.faults import FaultInjector, MessageDrop
from repro.topology import ChurnProcess
from repro.utils.rand import RandomSource

EPS = 0.1


def _oracle_grid_bracket(service: QuantileService, phi: float):
    grid = service.grid
    if grid.size == 0:
        return None
    index = int(np.argmin(np.abs(grid - phi)))
    distance = float(abs(grid[index] - phi))
    accuracy = distance + service._query_accuracy
    lane_drift = float(min(service.lane_drift()[index], 1.0))
    stale = lane_drift > service._staleness_threshold
    if stale:
        accuracy += lane_drift
    return QueryAnswer(
        phi=float(phi),
        value=float(service.grid_answers[index]),
        source="grid",
        accuracy=accuracy,
        grid_index=index,
        degraded=stale,
        epoch=service.epoch,
    )


def _oracle_rank_of(service: QuantileService, value: float) -> QueryAnswer:
    value = float(value)
    below = int(np.count_nonzero(service.grid_answers < value))
    estimate = float(np.clip((below + 0.5) * service.eps, 0.0, 1.0))
    accuracy = service.eps + service._query_accuracy
    drift = service.lane_drift()
    worst = float(min(np.max(drift, initial=0.0), 1.0))
    stale = worst > service._staleness_threshold
    if stale:
        accuracy += worst
    return QueryAnswer(
        phi=estimate,
        value=value,
        source="grid",
        accuracy=accuracy,
        degraded=stale,
        epoch=service.epoch,
    )


def _phis(grid: np.ndarray) -> list:
    """A dense sweep, every grid point, every exact midpoint, 0 and 1."""
    midpoints = (grid[:-1] + grid[1:]) / 2.0
    sweep = np.linspace(0.0, 1.0, 257)
    phis = [0.0, 1.0, 0, 1]
    phis += [float(phi) for phi in sweep]
    phis += list(grid) + [float(phi) for phi in grid]
    phis += list(midpoints) + [float(phi) for phi in midpoints]
    # One ulp either side of each midpoint: the nearest lane flips there.
    phis += [float(np.nextafter(m, 0.0)) for m in midpoints]
    phis += [float(np.nextafter(m, 1.0)) for m in midpoints]
    return phis


def _probes(answers: np.ndarray) -> list:
    """Each served answer exactly, values in between and around, ±inf."""
    ordered = np.unique(answers[~np.isnan(answers)])
    finite = ordered[np.isfinite(ordered)]
    probes = [float(value) for value in ordered] + list(ordered)
    probes += [float(value) for value in (finite[:-1] + finite[1:]) / 2.0]
    probes += [float(np.nextafter(value, -np.inf)) for value in finite]
    probes += [float(np.nextafter(value, np.inf)) for value in finite]
    if finite.size:
        probes += [float(finite[0]) - 1.0, float(finite[-1]) + 1.0]
    probes += [0.0, -0.0, float("inf"), float("-inf")]
    return probes


def _check(service: QuantileService) -> None:
    """Every query the service serves equals the oracle's answer."""
    for phi in _phis(service.grid):
        want = _oracle_grid_bracket(service, phi)
        degraded_before = service.answers_degraded
        for prefer in ("grid", "auto"):
            got = service.quantile(phi, prefer=prefer)
            assert repr(got) == repr(want), (phi, prefer)
        assert service.answers_degraded - degraded_before == 2 * want.degraded
    for value in _probes(service.grid_answers):
        want = _oracle_rank_of(service, value)
        grid_before = service.answers_grid
        got = service.rank_of(value)
        assert repr(got) == repr(want), value
        assert service.answers_grid == grid_before + 1


def _churn_service(seed: int, n: int = 160):
    values = RandomSource(seed).random(n) * 100.0
    churn = ChurnProcess(n, churn_rate=0.03, rng=seed + 1)
    service = QuantileService(
        values, eps=EPS, rng=seed, max_lanes=4, churn_process=churn,
        max_rebuild_retries=2, rebuild_backoff=2,
    )
    return service, values, churn


def _shift_band(service, values, churn, lo, hi) -> None:
    """Move one quantile band of the active values far upward."""
    active = churn.active
    low, high = np.quantile(values[active], [lo, hi])
    band = np.flatnonzero(active & (values >= low) & (values < high))
    top = float(values[active].max())
    for offset, index in enumerate(band):
        values[index] = 2.0 * top + offset
        service.update_value(int(index), values[index])


@pytest.mark.parametrize("seed", [3, 11])
def test_served_answers_match_the_oracle_through_every_invalidation(seed):
    service, values, churn = _churn_service(seed)
    _check(service)

    _shift_band(service, values, churn, 0.3, 0.5)
    _check(service)
    assert service.degraded

    service.advance_churn(6)
    _check(service)

    report = service.rebuild(incremental=True)
    assert report.mode == "incremental"
    _check(service)

    report = service.rebuild(incremental=False)
    assert report.mode == "full"
    _check(service)

    # A failed-validation rebuild: with every message dropped the stale
    # lanes fail the rank self-check and stay suspect (infinite drift)
    # beside fresh lanes.
    _shift_band(service, values, churn, 0.6, 0.8)
    service.attach_faults(FaultInjector(MessageDrop(1.0), rng=seed))
    report = service.rebuild(incremental=True)
    assert not report.validated
    drift = service.lane_drift()
    assert np.isinf(drift).any() and np.isfinite(drift).any()
    _check(service)

    service.advance_churn(3)
    _check(service)

    service.attach_faults(None)
    service.rebuild(incremental=True)
    _check(service)


def test_nan_and_infinite_grid_answers_match_the_oracle():
    service, values, churn = _churn_service(5)
    answers = service.grid_answers
    # Out of order on purpose: the served counts must not assume the
    # answers ascend along the grid.
    answers[0] = np.inf
    answers[2] = np.nan
    answers[4] = -np.inf
    answers[6] = np.nan
    _check(service)

    _shift_band(service, values, churn, 0.2, 0.4)
    _check(service)
    service.advance_churn(4)
    _check(service)


def test_build_over_infinite_values_serves_nan_lanes_like_the_oracle():
    """Lanes whose every node estimate is infinite answer NaN at build."""
    values = RandomSource(9).random(120) * 10.0
    values[:48] = np.inf
    values[48:60] = -np.inf
    service = QuantileService(values, eps=0.2, rng=9, max_lanes=2)
    assert np.isnan(service.grid_answers).any()
    _check(service)
    service.update_value(70, -np.inf)
    _check(service)


@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_grid_sizes_match_the_oracle(eps):
    values = RandomSource(17).random(200)
    service = QuantileService(values, eps=eps, rng=17, max_lanes=8)
    _check(service)
    service.update_value(0, 5.0)
    _check(service)
