"""Algorithm 1 — 2-TOURNAMENT: shift the target quantile band to the median.

Every iteration each node pulls the values of two uniformly random nodes and
adopts the *minimum* of the two (when the heavy side lies above the band;
the symmetric case adopts the maximum).  This squares the fraction of nodes
holding above-band values each iteration.  In the final iteration the
tournament is only performed with probability ``delta`` so that the
above-band mass lands at ``T = 1/2 - eps`` instead of overshooting, which
places the entire band ``[phi - eps, phi + eps]`` onto the quantiles around
the median (Lemma 2.11).

The phase is *lane-wise*: on a multi-lane network (see
:class:`~repro.gossip.network.GossipNetwork`) each lane runs its own
``(phi, eps)`` schedule on the shared partner stream.  Lane schedules may
differ in length; a lane whose schedule is exhausted idles (keeps its
values) while the longer lanes finish, so the fused phase executes
``max``-of-lanes rounds — the paper's Step-3 accounting, by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.results import PhaseIterationStats, TournamentPhaseResult
from repro.core.schedules import TwoTournamentSchedule, two_tournament_schedule
from repro.exceptions import ConfigurationError
from repro.gossip.network import GossipNetwork, PullBatch
from repro.obs.tracer import get_tracer
from repro.utils.stats import empirical_quantile


def band_thresholds(
    initial_values: np.ndarray, phi: float, eps: float
) -> Tuple[float, float]:
    """Values bounding the target band ``[phi - eps, phi + eps]`` of the inputs."""
    lo_q = max(0.0, phi - eps)
    hi_q = min(1.0, phi + eps)
    lo_value = empirical_quantile(initial_values, lo_q)
    hi_value = empirical_quantile(initial_values, hi_q)
    return lo_value, hi_value


def measure_band(
    values: np.ndarray, lo_value: float, hi_value: float
) -> Tuple[float, float, float]:
    """Fractions of ``values`` below, inside, and above ``[lo_value, hi_value]``."""
    n = values.size
    low = float(np.count_nonzero(values < lo_value)) / n
    high = float(np.count_nonzero(values > hi_value)) / n
    return low, 1.0 - low - high, high


def per_lane(value, lanes: int, what: str) -> List:
    """Normalize a scalar-or-sequence phase parameter to one entry per lane."""
    if np.isscalar(value):
        return [value] * lanes
    values = list(value)
    if len(values) != lanes:
        raise ConfigurationError(
            f"need one {what} per lane ({lanes}), got {len(values)}"
        )
    return values


def _lane_view(array: np.ndarray, single: bool) -> np.ndarray:
    """View a value array as lanes-last.

    ``single`` says whether the owning network stores 1-d (lane-less)
    values; its arrays gain a trailing lane axis, while the arrays of a
    true multi-lane network (including ``(n, 1)``) pass through untouched.
    """
    return array[..., None] if single else array


def fill_failed_pulls(
    batch: PullBatch, current: Optional[np.ndarray], single: bool
) -> np.ndarray:
    """The batch's pulled values with failed pulls replaced by ``current``.

    ``current`` is the pre-iteration snapshot (a failed pull leaves the
    node's own value in play), or ``None`` when no pull can fail.  The
    fallback is written into the freshly gathered batch in place, once for
    every lane, so the pull keeps its lanes-first backing block.  Shared
    by both tournament phases.
    """
    vals = batch.values
    if current is not None:
        failed = ~batch.ok if single else ~batch.ok[:, :, None]
        fallback = current[:, None] if single else current[:, None, :]
        np.copyto(vals, fallback, where=failed)
    return vals


def normalize_schedules(schedule, lanes: int, schedule_class, build) -> List:
    """One schedule per lane from a None / single / sequence argument.

    Shared by both tournament phases: ``None`` builds per-lane schedules
    via ``build(lane)``, a bare ``schedule_class`` instance is accepted for
    single-lane networks only, and a sequence must provide exactly one
    schedule per lane.
    """
    if schedule is None:
        return [build(lane) for lane in range(lanes)]
    if isinstance(schedule, schedule_class):
        if lanes != 1:
            raise ConfigurationError(
                "a multi-lane phase needs one schedule per lane"
            )
        return [schedule]
    schedules = list(schedule)
    if len(schedules) != lanes:
        raise ConfigurationError(
            f"need one schedule per lane ({lanes}), got {len(schedules)}"
        )
    return schedules


def run_two_tournament(
    network: GossipNetwork,
    phi: Union[float, Sequence[float]],
    eps: Union[float, Sequence[float]],
    schedule: Union[
        None, TwoTournamentSchedule, Sequence[TwoTournamentSchedule]
    ] = None,
    track_band: bool = True,
) -> TournamentPhaseResult:
    """Run Algorithm 1 on ``network`` (in place) and return phase statistics.

    The network's value array is overwritten with the post-phase values.
    Nodes whose pull failed in a round (only possible when the network has a
    failure model attached) keep their previous value for that iteration;
    the failure-aware variant with the Section-5 guarantees lives in
    :mod:`repro.core.robust`.

    On a multi-lane network ``phi`` / ``eps`` (or ``schedule``) may be
    per-lane sequences; band tracking is a single-lane instrument and must
    be disabled for fused runs.
    """
    lanes = network.lanes
    phis = per_lane(phi, lanes, "phi")
    epss = per_lane(eps, lanes, "eps")
    schedules = normalize_schedules(
        schedule,
        lanes,
        TwoTournamentSchedule,
        lambda lane: two_tournament_schedule(phis[lane], epss[lane]),
    )

    if track_band:
        if lanes != 1:
            raise ConfigurationError(
                "track_band is a single-lane instrument; run fused lanes "
                "with track_band=False"
            )
        initial = network.snapshot()
        lo_value, hi_value = band_thresholds(initial, phis[0], epss[0])

    stats: List[PhaseIterationStats] = []
    can_fail = network.can_fail
    single = network.values.ndim == 1
    num_iterations = max((s.num_iterations for s in schedules), default=0)
    # The span reads wall time and metric counters only; the random stream
    # is identical with or without a tracer installed.
    with get_tracer().span("two_tournament", network.metrics) as phase_span:
        phase_span.annotate(lanes=lanes, iterations=num_iterations)
        for step in range(num_iterations):
            # The fallback value for failed pulls is the pre-iteration
            # value; on the failure-free path every pull succeeds and the
            # snapshot copy is skipped entirely.
            current = network.snapshot() if can_fail else None
            batch = network.pull(2, label="2-tournament")
            vals = _lane_view(
                fill_failed_pulls(batch, current, single), single
            )                                               # (n, 2, L)
            live = _lane_view(network.values, single)       # (n, L)
            # empty_like keeps the network's lanes-first layout: every
            # lane's result is one contiguous column, adopted as is.
            new_values = np.empty_like(live)
            for lane, lane_schedule in enumerate(schedules):
                if step >= lane_schedule.num_iterations:
                    new_values[:, lane] = live[:, lane]      # lane idles
                    continue
                iteration = lane_schedule.iterations[step]
                first = vals[:, 0, lane]
                second = vals[:, 1, lane]
                pick = (
                    np.minimum if lane_schedule.direction == "min"
                    else np.maximum
                )
                if iteration.delta >= 1.0:
                    pick(first, second, out=new_values[:, lane])
                else:
                    winners = pick(first, second)
                    coin = network.rng.random(network.n)
                    do_tournament = coin < iteration.delta
                    # With probability 1 - delta the node copies a single
                    # random value instead (Algorithm 1, lines 9-11); we
                    # reuse the first pull for that copy, exactly one
                    # sampled value.
                    new_values[:, lane] = np.where(
                        do_tournament, winners, first
                    )

            updated = new_values[:, 0] if single else new_values
            network.set_values(updated, copy=False)
            if track_band:
                low, band, high = measure_band(updated, lo_value, hi_value)
                iteration = schedules[0].iterations[step]
                stats.append(
                    PhaseIterationStats(
                        iteration=iteration.index,
                        predicted=iteration.h_after
                        if iteration.delta >= 1.0
                        else schedules[0].threshold,
                        high_fraction=high,
                        low_fraction=low,
                        band_fraction=band,
                    )
                )

    return TournamentPhaseResult(
        final_values=network.snapshot(),
        iterations=num_iterations,
        rounds=2 * num_iterations,
        stats=stats,
    )
