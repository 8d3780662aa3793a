#!/usr/bin/env python
"""Distributed database percentile monitoring.

A cluster of database shards wants latency percentiles (p50 / p95 / p99) of
the values it stores without funnelling them through a coordinator.  The
example compares three gossip approaches on a heavy-tailed (Zipf-like)
value distribution:

* the exact tournament algorithm (Theorem 1.1) for an auditable p99,
* the ε-approximate tournament algorithm (Theorem 1.2) for cheap dashboards,
* the direct-sampling baseline, to show the 1/ε² round blow-up it needs.

It then runs a :class:`~repro.core.service.QuantileService` lifecycle for a
live dashboard: one fused gossip pass builds the ε-grid, percentile and
rank-of queries are answered from it without further rounds, a slice of
shards gets slower, and an incremental rebuild refreshes the drifted
lanes.  The script exits non-zero if any served answer misses its target
rank by more than ``eps + query_accuracy``.

Run with::

    python examples/distributed_database.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro import approximate_quantile, exact_quantile
from repro.baselines import sampling_quantile
from repro.core.service import QuantileService
from repro.datasets import zipf_values
from repro.utils.stats import empirical_quantile, rank_error


def _serve(service: QuantileService, latencies: np.ndarray, label: str) -> int:
    """Serve percentile and rank-of queries; count answers off target.

    A grid answer is within ``eps / 2 + query_accuracy`` of its target
    inside the grid's coverage, plus up to ``eps / 2`` of drift before its
    lane is served as degraded: ``eps + query_accuracy`` in all.  Percentile
    queries therefore stay inside the coverage ``[eps / 2, 1 - eps / 2]``.
    """
    eps = service.eps
    tolerance = eps + eps / 2.0  # the default query accuracy is eps / 2
    grid = service.grid
    coverage = np.linspace(grid[0] - eps / 2.0, grid[-1] + eps / 2.0, 25)
    misses = 0
    for phi in (0.5, 0.95, *coverage):
        answer = service.quantile(float(phi))
        misses += rank_error(latencies, answer.value, answer.phi) > tolerance
    for probe in np.quantile(latencies, np.linspace(0.02, 0.98, 25)):
        answer = service.rank_of(float(probe))
        misses += rank_error(latencies, float(probe), answer.phi) > tolerance
    p95 = service.quantile(0.95)
    print(
        f"{label}: p95 {p95.value:8.2f} ms (epoch {p95.epoch}, "
        f"{service.queries_answered} queries, {misses} off target)"
    )
    return misses


def serve_dashboard(latencies: np.ndarray) -> int:
    """Build, query, update and incrementally rebuild a QuantileService."""
    latencies = latencies.copy()
    service = QuantileService(latencies.copy(), eps=0.05, rng=7)
    print(f"service built in {service.rounds} rounds "
          f"({service.grid.size} grid lanes)")
    misses = _serve(service, latencies, "served   ")

    # A fifth of the shards slow down 3x, so most lanes drift.
    rng = np.random.default_rng(11)
    slowed = rng.choice(latencies.size, size=latencies.size // 5, replace=False)
    for shard in slowed:
        latencies[shard] *= 3.0
        service.update_value(int(shard), float(latencies[shard]))
    drifted = service.stale_lanes().size
    report = service.rebuild(incremental=True)
    print(
        f"rebuild  : {report.lanes_rebuilt} of {drifted} drifted lanes, "
        f"{report.chunks_run} of {report.full_chunks} chunks, "
        f"{report.rounds} rounds, validated {report.validated}"
    )
    misses += _serve(service, latencies, "refreshed")
    return misses + (not report.validated)


def main() -> int:
    n = 2048
    latencies = zipf_values(n, exponent=1.8, rng=23) * 3.0  # milliseconds
    print(f"{n} shards, heavy-tailed latencies (max {latencies.max():.0f} ms)")
    print()

    for label, phi in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        truth = empirical_quantile(latencies, phi)
        approx = approximate_quantile(latencies, phi=phi, eps=0.02, rng=1)
        print(
            f"{label}: true {truth:8.2f} ms | approximate {approx.estimate:8.2f} ms "
            f"(rank error {rank_error(latencies, approx.estimate, phi):.4f}, "
            f"{approx.rounds} rounds)"
        )

    print()
    phi = 0.99
    exact = exact_quantile(latencies, phi=phi, rng=5)
    print(
        f"exact p99 via gossip  : {exact.value:.2f} ms "
        f"(matches truth: {exact.value == empirical_quantile(latencies, phi)}, "
        f"{exact.rounds} rounds)"
    )

    sampled = sampling_quantile(latencies, phi=phi, eps=0.02, rng=6)
    print(
        f"sampling baseline p99 : {sampled.estimate:.2f} ms "
        f"({sampled.rounds} rounds — the 1/eps^2 penalty)"
    )

    print()
    return 1 if serve_dashboard(latencies) else 0


if __name__ == "__main__":
    sys.exit(main())
