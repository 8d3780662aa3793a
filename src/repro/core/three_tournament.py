"""Algorithm 2 — 3-TOURNAMENT: approximate the median.

Every iteration each node pulls the values of three uniformly random nodes
and adopts the *median* of the three.  The fraction of nodes holding values
outside the band ``[1/2 - eps, 1/2 + eps]`` follows ``l_{i+1} = 3 l_i^2 -
2 l_i^3``: it shrinks geometrically for the first O(log 1/eps) iterations
and doubly exponentially afterwards, reaching ``O(n^{-1/3})`` after
``O(log 1/eps + log log n)`` iterations.  A final vote — sample ``K = O(1)``
nodes and output the median of the sample — then lands inside the band with
high probability (Lemma 2.17).

Like Algorithm 1 the phase is lane-wise: on a multi-lane network each lane
runs its own ``eps`` schedule on the shared partner stream (short lanes
idle, rounds = max over lanes) and the final vote is one shared
``K``-round pull whose per-lane sample medians become the per-lane outputs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.results import PhaseIterationStats, TournamentPhaseResult
from repro.core.schedules import ThreeTournamentSchedule, three_tournament_schedule
from repro.core.two_tournament import (
    _lane_view,
    fill_failed_pulls,
    normalize_schedules,
    per_lane,
)
from repro.exceptions import ConfigurationError
from repro.gossip.network import GossipNetwork
from repro.obs.tracer import get_tracer
from repro.utils.stats import empirical_quantile

#: Default size of the final vote.  The paper only requires K = O(1); an odd
#: constant around 15 makes the failure probability (4e / n^{2/3})^{K/2}
#: negligible for every network size the library simulates.
DEFAULT_FINAL_SAMPLES = 15


def median_band_thresholds(values: np.ndarray, eps: float) -> Tuple[float, float]:
    """Values bounding the band ``[1/2 - eps, 1/2 + eps]`` of ``values``."""
    lo_value = empirical_quantile(values, max(0.0, 0.5 - eps))
    hi_value = empirical_quantile(values, min(1.0, 0.5 + eps))
    return lo_value, hi_value


def _median_of_three(
    first: np.ndarray,
    second: np.ndarray,
    third: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Element-wise median of three arrays without sorting.

    ``max(min(a, b), min(max(a, b), c))`` selects exactly the element a
    3-sort would put in the middle — four element-wise passes instead of a
    per-row sort, and bit-identical output values.  ``out`` receives the
    medians when given (it doubles as the ``min(a, b)`` scratch).
    """
    lo = np.minimum(first, second, out=out)
    hi = np.maximum(first, second)
    np.minimum(hi, third, out=hi)
    return np.maximum(lo, hi, out=lo)


def run_three_tournament(
    network: GossipNetwork,
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, ThreeTournamentSchedule, Sequence[ThreeTournamentSchedule]
    ] = None,
    final_samples: int = DEFAULT_FINAL_SAMPLES,
    track_band: bool = True,
) -> TournamentPhaseResult:
    """Run Algorithm 2 on ``network`` (in place).

    Returns a :class:`TournamentPhaseResult` whose ``final_values`` are the
    per-node *outputs* of the algorithm: the median of ``final_samples``
    uniformly sampled values after the tournament iterations (per lane on a
    multi-lane network).  The band statistics track the fraction of nodes
    outside the ``[1/2 - eps, 1/2 + eps]`` band of the phase's *input*
    values after every iteration (single-lane runs only).
    """
    if final_samples < 1 or final_samples % 2 == 0:
        raise ConfigurationError("final_samples must be a positive odd integer")
    lanes = network.lanes
    epss = per_lane(eps, lanes, "eps")
    schedules = normalize_schedules(
        schedule,
        lanes,
        ThreeTournamentSchedule,
        lambda lane: three_tournament_schedule(epss[lane], network.n),
    )

    if track_band:
        if lanes != 1:
            raise ConfigurationError(
                "track_band is a single-lane instrument; run fused lanes "
                "with track_band=False"
            )
        initial = network.snapshot()
        lo_value, hi_value = median_band_thresholds(initial, epss[0])

    stats: List[PhaseIterationStats] = []
    can_fail = network.can_fail
    single = network.values.ndim == 1
    num_iterations = max((s.num_iterations for s in schedules), default=0)
    # The span covers the tournament iterations *and* the final vote — the
    # algorithm's whole round budget.  Observation only: wall time and
    # counter snapshots, never the RNG.
    with get_tracer().span("three_tournament", network.metrics) as phase_span:
        phase_span.annotate(
            lanes=lanes,
            iterations=num_iterations,
            final_samples=final_samples,
        )
        for step in range(num_iterations):
            current = network.snapshot() if can_fail else None
            batch = network.pull(3, label="3-tournament")
            vals = _lane_view(
                fill_failed_pulls(batch, current, single), single
            )                                               # (n, 3, L)
            live = _lane_view(network.values, single)       # (n, L)
            # Each lane's medians go straight into its contiguous column of
            # a lanes-first array (empty_like keeps the network's layout),
            # which the network adopts as is; a lane whose schedule is
            # exhausted copies its old column instead.  Lane by lane, every
            # pass stays in cache.
            new_values = np.empty_like(live)
            for lane, lane_schedule in enumerate(schedules):
                column = new_values[:, lane]
                if step >= lane_schedule.num_iterations:
                    column[:] = live[:, lane]                # lane idles
                else:
                    _median_of_three(
                        vals[:, 0, lane], vals[:, 1, lane], vals[:, 2, lane],
                        out=column,
                    )
            updated = new_values[:, 0] if single else new_values
            network.set_values(updated, copy=False)
            if track_band:
                n = network.n
                iteration = schedules[0].iterations[step]
                low = float(np.count_nonzero(updated < lo_value)) / n
                high = float(np.count_nonzero(updated > hi_value)) / n
                stats.append(
                    PhaseIterationStats(
                        iteration=iteration.index,
                        predicted=iteration.l_after,
                        high_fraction=high,
                        low_fraction=low,
                        band_fraction=1.0 - low - high,
                    )
                )

        # Final vote: every node samples `final_samples` values and outputs
        # the median of its sample (Algorithm 2, line 8) — one shared pull
        # batch, per-lane medians.
        current = network.snapshot() if can_fail else None
        batch = network.pull(final_samples, label="3-tournament-vote")
        vals = _lane_view(
            fill_failed_pulls(batch, current, single), single
        )                                                   # (n, K, L)
        # partition places the middle order statistic exactly where a full
        # sort would; the selected values are identical.  Votes partition
        # lane by lane, in place, so each pass runs over one contiguous
        # (n, K) block of the freshly gathered lanes-first pull and writes
        # one contiguous column of the column-major outputs.
        mid = final_samples // 2
        outputs = np.empty_like(_lane_view(network.values, single))
        for lane in range(vals.shape[2]):
            sample = vals[:, :, lane]
            sample.partition(mid, axis=1)
            outputs[:, lane] = sample[:, mid]
        if single:
            outputs = outputs[:, 0]

    return TournamentPhaseResult(
        final_values=outputs,
        iterations=num_iterations,
        rounds=3 * num_iterations + final_samples,
        stats=stats,
    )
