"""Multi-lane values stay lanes-first (column-major) through every path.

No stream pin can see a memory layout: a silent fallback to row-major
storage keeps every value and digest, and only costs a per-lane copy on
each pull.  These tests assert the layout itself, after every way a
network creates or adopts its value matrix.
"""

import numpy as np
import pytest

from repro.core.three_tournament import run_three_tournament
from repro.core.two_tournament import run_two_tournament
from repro.faults import CrashRestart, FaultInjector, MessageDelay
from repro.gossip.network import GossipNetwork
from repro.utils.rand import RandomSource

N, LANES = 96, 4


def _matrix(seed=3):
    matrix = np.ascontiguousarray(RandomSource(seed).random((N, LANES)) * 10.0)
    assert matrix.flags.c_contiguous and not matrix.flags.f_contiguous
    return matrix


def _assert_lanes_first(array):
    assert array.shape == (N, LANES)
    for lane in range(LANES):
        assert array[:, lane].flags.c_contiguous


def test_construction_from_row_major_matrix():
    matrix = _matrix()
    net = GossipNetwork(matrix, rng=1)
    _assert_lanes_first(net.values)
    _assert_lanes_first(net.initial_values)
    assert np.array_equal(net.values, matrix)
    assert not np.shares_memory(net.values, matrix)


@pytest.mark.parametrize("copy", [True, False])
def test_set_values_with_row_major_array(copy):
    net = GossipNetwork(_matrix(), rng=1)
    replacement = _matrix(seed=4)
    net.set_values(replacement, copy=copy)
    _assert_lanes_first(net.values)
    assert np.array_equal(net.values, replacement)


def test_set_values_adopts_column_major_array_without_copy():
    net = GossipNetwork(_matrix(), rng=1)
    replacement = np.asfortranarray(_matrix(seed=4))
    net.set_values(replacement, copy=False)
    assert net.values is replacement


def test_reset_restores_lanes_first_copy():
    net = GossipNetwork(_matrix(), rng=1)
    net.set_values(np.zeros((N, LANES)))
    net.reset()
    _assert_lanes_first(net.values)
    assert np.array_equal(net.values, _matrix())
    assert not np.shares_memory(net.values, net.initial_values)


def test_snapshot_is_an_independent_lanes_first_copy():
    net = GossipNetwork(_matrix(), rng=1)
    snap = net.snapshot()
    _assert_lanes_first(snap)
    assert not np.shares_memory(snap, net.values)
    snap[:] = -1.0
    assert np.array_equal(net.values, _matrix())


class _LayoutRecorder:
    """Wrap ``set_values`` to check the stored layout after every adopt.

    An adopted (``copy=False``) array must be taken as is: a phase that
    builds its new values row-major would pay a conversion copy here.
    """

    def __init__(self, net):
        self.calls = 0
        original = net.set_values

        def checked(values, copy=True):
            original(values, copy=copy)
            _assert_lanes_first(net.values)
            if not copy:
                assert net.values is values
            self.calls += 1

        net.set_values = checked


@pytest.mark.parametrize("failure_model", [None, 0.2])
def test_tournament_iterations_keep_lanes_first(failure_model):
    net = GossipNetwork(_matrix(), rng=2, failure_model=failure_model)
    recorder = _LayoutRecorder(net)
    run_two_tournament(
        net, phi=[0.2, 0.4, 0.6, 0.8], eps=[0.1, 0.2, 0.05, 0.1],
        track_band=False,
    )
    two_iterations = recorder.calls
    assert two_iterations > 0
    three = run_three_tournament(
        net, eps=[0.2, 0.05, 0.1, 0.1], track_band=False
    )
    assert recorder.calls > two_iterations
    _assert_lanes_first(net.values)
    _assert_lanes_first(three.final_values)


def test_faulted_pull_batches_keep_lanes_first():
    faults = FaultInjector(
        [
            MessageDelay(0.5, max_delay=2),
            CrashRestart(0.3, downtime=1, reset_values=True),
        ],
        rng=7,
    )
    net = GossipNetwork(_matrix(), rng=5, failure_model=0.1, faults=faults)
    for _ in range(4):
        batch = net.pull(3)
        assert batch.values.shape == (N, 3, LANES)
        _assert_lanes_first(net.values)
        net.set_values(net.values * 2.0 + 1.0, copy=False)
        _assert_lanes_first(net.values)
    assert net.faults.counters["delay"] > 0
    assert net.faults.counters["restart"] > 0
    for past in net._delay_history:
        _assert_lanes_first(past)


def test_clean_pull_batch_is_backed_by_a_lanes_first_block():
    net = GossipNetwork(_matrix(), rng=5)
    batch = net.pull(3)
    block = batch.values.transpose(2, 0, 1)
    assert block.shape == (LANES, N, 3) and block.flags.c_contiguous


def test_row_major_override_pulls_the_same_batch_as_its_column_major_twin():
    override = _matrix(seed=9) - 5.0
    batches = []
    for values in (override, np.asfortranarray(override)):
        net = GossipNetwork(_matrix(), rng=6, failure_model=0.2)
        batches.append(net.pull(3, values=values))
    row_major, column_major = batches
    assert np.array_equal(row_major.partners, column_major.partners)
    assert np.array_equal(row_major.ok, column_major.ok)
    assert np.array_equal(row_major.values, column_major.values, equal_nan=True)
