"""Section 5 — failure-tolerant tournament algorithms (Theorem 1.4).

Under the failure model of Section 5 (node ``v`` fails in round ``i`` with
probability ``p_{v,i} <= mu``), the tournament algorithms are made robust by
pulling ``Theta(1/(1-mu) * log(1/(1-mu)))`` partners per iteration instead
of two or three.  A pull is *good* if the pulling node did not fail and the
contacted node was good at the end of the previous iteration; a node stays
good as long as it collects enough good pulls, and only good pulls feed the
tournament.  Lemma 5.2 shows a constant fraction of nodes stays good
throughout, so all concentration arguments carry over with ``n`` replaced by
the good-node count.  Each pull batch selects every node's first good pulls
in one array pass: the good pulls, listed row by row, sit at per-node
offsets given by a cumulative count.

After the final vote, ``t`` extra spreading rounds let all but an expected
``n / 2^t`` nodes adopt an answer from a node that already has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.schedules import three_tournament_schedule, two_tournament_schedule
from repro.core.three_tournament import _median_of_three
from repro.exceptions import ConfigurationError
from repro.faults.injectors import FaultInjector
from repro.gossip.failures import FailureModel, resolve_failure_model
from repro.gossip.metrics import NetworkMetrics
from repro.gossip.network import GossipNetwork, PullBatch
from repro.utils.rand import RandomSource


def default_pulls_per_iteration(mu: float) -> int:
    """The paper's Θ(1/(1-µ) · log(1/(1-µ))) pull count (Lemma 5.2), >= 4."""
    if not 0.0 <= mu < 1.0:
        raise ConfigurationError("mu must be in [0, 1)")
    if mu == 0.0:
        return 4
    scale = 1.0 / (1.0 - mu)
    return max(4, int(math.ceil(4.0 * scale * math.log(4.0 * scale))) + 1)


def _first_good_pulls(
    batch: PullBatch, good: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes that stay good and the values of their first good pulls.

    A pull is good if the puller acted and the partner was good; a good
    node stays good if it made at least ``count`` good pulls.  Returns the
    stay-good mask and a ``(stays, count)`` array of those nodes' first
    ``count`` good pulled values, in pull order.  Boolean indexing lists
    every good pull row by row, so node ``v``'s ``j``-th good pull sits at
    ``starts[v] + j`` of that flat list.
    """
    goodmask = batch.ok & good[batch.partners]
    per_node = np.count_nonzero(goodmask, axis=1)
    starts = np.cumsum(per_node) - per_node
    stays = good & (per_node >= count)
    flat = batch.values[goodmask]
    return stays, flat[starts[stays, None] + np.arange(count)]


@dataclass
class RobustQuantileResult:
    """Outcome of the robust ε-approximate φ-quantile computation."""

    phi: float
    eps: float
    n: int
    estimates: np.ndarray          # NaN for nodes that never learned an answer
    estimate: float
    rounds: int
    metrics: NetworkMetrics
    good_fraction: float
    answered_fraction: float
    pulls_per_iteration: int

    def summary(self) -> dict:
        return {
            "phi": self.phi,
            "eps": self.eps,
            "n": self.n,
            "rounds": self.rounds,
            "good_fraction": self.good_fraction,
            "answered_fraction": self.answered_fraction,
        }


def robust_approximate_quantile(
    values: Union[np.ndarray, list, tuple],
    phi: float,
    eps: float,
    failure_model: Union[float, FailureModel],
    rng: Union[None, int, RandomSource] = None,
    pulls_per_iteration: Optional[int] = None,
    final_samples: int = 15,
    extra_spread_rounds: int = 12,
    dtype=None,
    faults: Optional[FaultInjector] = None,
) -> RobustQuantileResult:
    """Theorem 1.4: ε-approximate φ-quantile despite per-round node failures.

    Parameters
    ----------
    failure_model:
        Either a float ``mu`` (uniform per-round failure probability) or a
        :class:`FailureModel`.
    pulls_per_iteration:
        Number of partners pulled per tournament iteration; defaults to the
        paper's Θ(1/(1-µ) log 1/(1-µ)).
    extra_spread_rounds:
        The parameter ``t`` of Theorem 1.4: after the computation, ``t``
        extra rounds in which answer-less nodes pull answers, leaving all
        but ~``n/2^t`` nodes with a correct output.
    dtype:
        Value dtype of the underlying gossip network (float64 default,
        float32 opt-in); the returned estimates stay float64.
    faults:
        Optional :class:`~repro.faults.FaultInjector` layered on top of the
        Section-5 failure model — the Theorem-1.4 machinery was designed
        for exactly this abuse: ``pulls_per_iteration`` sizing uses the
        *combined* suppression bound (``failure_model`` mu unioned with the
        injector's crash/drop bound) so good-pull counting stays honest
        under injected chaos.
    """
    if not 0.0 <= phi <= 1.0:
        raise ConfigurationError("phi must be in [0, 1]")
    if not 0.0 < eps < 0.5:
        raise ConfigurationError("eps must be in (0, 0.5)")
    model = resolve_failure_model(failure_model)
    if pulls_per_iteration is None:
        # Size pulls for the union suppression rate: a pull can be lost to
        # the failure model OR to an injected crash/drop, independently.
        mu = model.mu
        if faults is not None:
            mu = min(1.0 - (1.0 - mu) * (1.0 - faults.mu_bound()), 0.999)
        pulls_per_iteration = default_pulls_per_iteration(mu)
    if pulls_per_iteration < 3:
        raise ConfigurationError("pulls_per_iteration must be at least 3")
    if final_samples < 1 or final_samples % 2 == 0:
        raise ConfigurationError("final_samples must be a positive odd integer")

    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size < 4:
        raise ConfigurationError("values must be a 1-d array with at least 4 entries")
    if np.isnan(array).any():
        # NaN is the estimates' marker for "no answer", and it has no rank.
        raise ConfigurationError("values must not contain NaN")
    n = array.size
    network = GossipNetwork(
        array,
        rng=rng,
        failure_model=model,
        keep_history=False,
        dtype=dtype,
        faults=faults,
    )
    good = np.ones(n, dtype=bool)
    k_pulls = int(pulls_per_iteration)

    # ---- Phase I: robust 2-TOURNAMENT -----------------------------------------
    schedule1 = two_tournament_schedule(phi, eps)
    take_min = schedule1.direction == "min"
    for iteration in schedule1.iterations:
        new_values = network.snapshot()
        batch = network.pull(k_pulls, label="robust-2-tournament")
        good, picked = _first_good_pulls(batch, good, 2)
        first, second = picked[:, 0], picked[:, 1]
        winners = np.minimum(first, second) if take_min else np.maximum(first, second)
        if iteration.delta < 1.0:
            coin = network.rng.random(winners.size)
            winners = np.where(coin < iteration.delta, winners, first)
        new_values[good] = winners
        network.set_values(new_values, copy=False)

    # ---- Phase II: robust 3-TOURNAMENT ----------------------------------------
    schedule2 = three_tournament_schedule(eps / 4.0, n)
    for _iteration in schedule2.iterations:
        new_values = network.snapshot()
        batch = network.pull(k_pulls, label="robust-3-tournament")
        good, picked = _first_good_pulls(batch, good, 3)
        new_values[good] = _median_of_three(picked[:, 0], picked[:, 1], picked[:, 2])
        network.set_values(new_values, copy=False)

    # ---- Final vote ------------------------------------------------------------
    vote_pulls = max(k_pulls, int(math.ceil(final_samples / max(1e-9, 1.0 - model.mu))) + 2)
    batch = network.pull(vote_pulls, label="robust-vote")
    answered, picked = _first_good_pulls(batch, good, final_samples)
    middle = final_samples // 2
    estimates = np.full(n, np.nan)
    estimates[answered] = np.partition(picked, middle, axis=1)[:, middle]

    # ---- Extra spreading rounds (the "+t" of Theorem 1.4) ----------------------
    for _ in range(int(extra_spread_rounds)):
        have = np.isfinite(estimates)
        if np.all(have):
            break
        batch = network.pull(1, label="robust-spread", values=estimates)
        pulled = batch.values[:, 0]
        adopt = (~have) & batch.ok[:, 0] & np.isfinite(pulled)
        estimates[adopt] = pulled[adopt]

    finite = estimates[np.isfinite(estimates)]
    estimate = float(np.median(finite)) if finite.size else float("nan")
    return RobustQuantileResult(
        phi=phi,
        eps=eps,
        n=n,
        estimates=estimates,
        estimate=estimate,
        rounds=network.metrics.rounds,
        metrics=network.metrics,
        good_fraction=float(np.mean(good)),
        answered_fraction=float(np.mean(np.isfinite(estimates))),
        pulls_per_iteration=k_pulls,
    )
