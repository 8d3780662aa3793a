"""sha256 stream pins for multi-lane tournament runs.

The single-lane pins in ``tests/test_engine_equivalence.py`` fix every
``L = 1`` stream, and ``tests/test_pull_surface_pins.py`` fixes raw pull
batches; these pins fix what the multi-lane phases compute on top of the
shared partner stream:

* the fused ``estimate_all_ranks`` grid at eps = 0.05 (19 lanes in one
  chunk), in float64 and float32;
* one ``QuantileService`` lifecycle: build, 200 ``update_value`` writes,
  an incremental rebuild, and the grid answers after both;
* the exact driver's 2-lane sandwich ``approximate_quantile`` pair;
* 4-lane ``run_two_tournament`` and ``run_three_tournament`` runs with
  per-lane schedules of different length, under mu = 0.2 plus a
  ``FaultInjector`` with ``MessageDelay`` and ``CrashRestart(reset_values=
  True)``.

Each digest covers the output bytes (in C order, whatever the memory
layout), the round count and the ``metrics.summary()`` message and bit
totals.  Captured before the multi-lane value arrays moved to column-major
storage; a pin changes only with a CHANGES.md note saying why.
"""

import hashlib

import numpy as np
import pytest

from repro.core.all_quantiles import estimate_all_ranks
from repro.core.approx_quantile import approximate_quantile
from repro.core.service import QuantileService
from repro.core.three_tournament import run_three_tournament
from repro.core.two_tournament import run_two_tournament
from repro.faults import CrashRestart, FaultInjector, MessageDelay
from repro.gossip.network import GossipNetwork
from repro.utils.rand import RandomSource


def _digest(*parts):
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def _values(n, seed):
    return RandomSource(seed).random(n) * 100.0


MULTILANE_PINS = {
    "all_ranks/float64": "333fed2cd98df0c6",
    "all_ranks/float32": "e1226bc730fe371d",
    "service": "9772f1ba0a247560",
    "sandwich": "dac97f0fe95e8b5f",
    "two_tournament": "c1b8a821a19eb8fb",
    "three_tournament": "bb17197bf873d09f",
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_fused_all_ranks_nineteen_lanes_pinned(dtype):
    result = estimate_all_ranks(_values(300, 41), eps=0.05, rng=17, dtype=dtype)
    assert result.grid.size == 19 and result.chunks == 1
    assert _digest(
        result.quantile_estimates,
        result.grid_values,
        result.rounds,
        result.metrics.summary(),
    ) == MULTILANE_PINS[f"all_ranks/{dtype}"]


def test_service_lifecycle_pinned():
    values = _values(400, 43)
    service = QuantileService(values, eps=0.05, rng=19)
    built = service.grid_answers.copy()
    build_summary = service.gossip_metrics.summary()
    writes = RandomSource(44)
    indices = writes.integers(0, values.size, size=200)
    for index, value in zip(indices, writes.random(200) * 150.0):
        service.update_value(int(index), float(value))
    report = service.rebuild(incremental=True)
    assert report.lanes_rebuilt > 0
    assert _digest(
        built,
        build_summary,
        service.grid_answers,
        report,
        service.gossip_metrics.summary(),
    ) == MULTILANE_PINS["service"]


def test_sandwich_pair_pinned():
    # The exact driver's Step-3 pair: two lanes over the same rank keys.
    keys = np.empty(500)
    keys[np.argsort(_values(500, 45), kind="stable")] = np.arange(1, 501)
    result = approximate_quantile(
        np.stack([keys, keys], axis=1), phi=(0.33, 0.43), eps=0.05, rng=23
    )
    assert _digest(
        result.estimates,
        result.estimate,
        result.rounds,
        result.metrics.summary(),
    ) == MULTILANE_PINS["sandwich"]


def _faulty_network(seed):
    matrix = RandomSource(seed).random((200, 4)) * 100.0
    faults = FaultInjector(
        [
            MessageDelay(0.3, max_delay=2),
            CrashRestart(0.1, downtime=2, reset_values=True),
        ],
        rng=seed + 1,
    )
    return GossipNetwork(matrix, rng=seed + 2, failure_model=0.2, faults=faults)


def test_four_lane_two_tournament_under_faults_pinned():
    net = _faulty_network(47)
    result = run_two_tournament(
        net, phi=[0.1, 0.3, 0.6, 0.95], eps=[0.05, 0.1, 0.2, 0.02],
        track_band=False,
    )
    assert _digest(
        result.final_values,
        net.values,
        result.rounds,
        net.metrics.summary(),
        sorted(net.faults.counters.items()),
    ) == MULTILANE_PINS["two_tournament"]


def test_four_lane_three_tournament_under_faults_pinned():
    net = _faulty_network(53)
    result = run_three_tournament(
        net, eps=[0.2, 0.05, 0.1, 0.02], track_band=False
    )
    assert _digest(
        result.final_values,
        net.values,
        result.rounds,
        net.metrics.summary(),
        sorted(net.faults.counters.items()),
    ) == MULTILANE_PINS["three_tournament"]
