"""The three benchmark workloads: inputs from a seed, one timed operation each.

Every workload is closed loop with one caller: the benchmark issues its
next operation only after the previous one returned.  A workload builds
all of its inputs from ``--seed`` (values, the φ order, query streams,
update indices and every seed handed to the program), keeps its own
sorted copy of the inputs as ground truth, and checks every answer
against that copy.  The program sees only the generated inputs and the
derived integer seeds.

The program is reached through module attributes (``exact.exact_
quantile(...)``, not a name imported into this file), so the traced run
can wrap each public callable where its caller looks it up.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

# ``importlib`` because ``repro.core`` re-exports functions under some of
# its submodules' names (``repro.core.exact_quantile`` is the function).
exact = importlib.import_module("repro.core.exact_quantile")
robust = importlib.import_module("repro.core.robust")
service = importlib.import_module("repro.core.service")
generators = importlib.import_module("repro.datasets.generators")

#: The φ targets of the quantile workloads.  Each run executes whole
#: cycles over all three (in a seed-shuffled order per cycle), so every
#: run measures the same mix: rounds and times depend on φ.
PHIS = (0.1, 0.5, 0.9)


@dataclass
class OpResult:
    """One operation as the benchmark saw it."""

    wall_s: float
    rounds: float = 0.0
    messages: float = 0.0
    bits: float = 0.0
    answered_frac: float = 0.0
    rank_error: float = float("nan")
    ok: bool = False
    error: str = ""
    #: Everything that must be bit-identical between a traced and an
    #: untraced run of the same operation: answers, rounds, messages, bits.
    fingerprint: str = ""
    #: Workload-specific samples: query latencies, rebuild time, counters
    #: the traced run reports per module.
    extra: Dict[str, object] = field(default_factory=dict)


def derived_seed(*key: int) -> int:
    """A 32-bit seed derived from the workload seed and an operation key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def rank_error(sorted_values: np.ndarray, value: float, phi: float) -> float:
    """Distance from φ to the rank interval of ``value``, as a share of n.

    With ties a value occupies the ranks ``(count(< v), count(<= v)]``;
    the exact ⌈φn⌉-th value therefore has error 0.
    """
    if not math.isfinite(value):
        return float("inf")
    n = sorted_values.size
    below = np.searchsorted(sorted_values, value, side="left") / n
    upto = np.searchsorted(sorted_values, value, side="right") / n
    if below <= phi <= upto:
        return 0.0
    return float(min(abs(phi - below), abs(phi - upto)))


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def _metric_counts(result: OpResult, metrics, n: int) -> None:
    result.rounds = float(metrics.rounds)
    result.messages = metrics.messages / n
    result.bits = metrics.total_bits / n


class Workload:
    """Base class: seeded inputs, a warm-up, and ``run_op(i)``."""

    name = ""
    n = 0
    #: Operations per cycle; a run executes whole cycles.
    cycle = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        rng = np.random.default_rng(derived_seed(self.seed, 0))
        # Whole cycles over PHIS, each cycle in its own shuffled order.
        self.phis: List[float] = [
            PHIS[j] for _ in range(64) for j in rng.permutation(len(PHIS))
        ]

    def op_seed(self, index: int) -> int:
        return derived_seed(self.seed, 1, index)

    def warm_up(self) -> None:
        """One small operation through the same code path (untimed)."""

    def run_op(self, index: int) -> OpResult:
        raise NotImplementedError


class ExactWorkload(Workload):
    """Algorithm 3 at n = 5·10⁴ on tied sensor readings.

    Every operation reads a fresh field (a new snapshot of the sensors):
    the rounds an exact query needs depend on the ties around its target,
    so a run averages over several fields instead of repeating one.
    """

    name = "exact-5e4"
    n = 50_000
    cycle = len(PHIS)

    @staticmethod
    def _field(n: int, seed: int) -> np.ndarray:
        readings = generators.sensor_temperature_field(n, rng=seed)
        # 0.01 °C resolution: ~2.3 k distinct values at n = 5·10⁴, many ties.
        return np.round(readings, 2)

    def warm_up(self) -> None:
        exact.exact_quantile(
            self._field(4096, derived_seed(self.seed, 3)), 0.5,
            rng=derived_seed(self.seed, 4), fidelity="simulated",
        )

    def run_op(self, index: int) -> OpResult:
        phi = self.phis[index]
        values = self._field(self.n, derived_seed(self.seed, 2, index))
        ordered = np.sort(values)
        started = time.perf_counter()
        try:
            answer = exact.exact_quantile(
                values, phi, rng=self.op_seed(index), fidelity="simulated"
            )
        except Exception as exc:  # a raising operation counts as failed
            return OpResult(time.perf_counter() - started, error=repr(exc))
        result = OpResult(time.perf_counter() - started)
        _metric_counts(result, answer.metrics, self.n)
        expected = float(ordered[math.ceil(phi * self.n) - 1])
        result.answered_frac = 1.0 if math.isfinite(answer.value) else 0.0
        result.rank_error = rank_error(ordered, answer.value, phi)
        result.ok = answer.value == expected
        result.fingerprint = _digest(
            answer.value, answer.rounds, answer.metrics.messages,
            answer.metrics.total_bits,
        )
        result.extra["core.exact.iterations"] = answer.iterations
        return result


class RobustWorkload(Workload):
    """Theorem 1.4 at n = 5·10⁴ with per-transmission failures µ = 0.1.

    Every operation asks for the median.
    """

    name = "robust-5e4"
    n = 50_000
    eps = 0.1
    mu = 0.1
    #: The t of Theorem 1.4 (the program's default extra spreading rounds).
    spread_rounds = 12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(derived_seed(self.seed, 2))
        self.values = rng.standard_normal(self.n)
        self.sorted = np.sort(self.values)

    def warm_up(self) -> None:
        rng = np.random.default_rng(derived_seed(self.seed, 3))
        robust.robust_approximate_quantile(
            rng.standard_normal(4096), 0.5, eps=self.eps,
            failure_model=self.mu, rng=derived_seed(self.seed, 4),
        )

    def run_op(self, index: int) -> OpResult:
        phi = 0.5
        started = time.perf_counter()
        try:
            answer = robust.robust_approximate_quantile(
                self.values, phi, eps=self.eps, failure_model=self.mu,
                rng=self.op_seed(index),
                extra_spread_rounds=self.spread_rounds,
            )
        except Exception as exc:
            return OpResult(time.perf_counter() - started, error=repr(exc))
        result = OpResult(time.perf_counter() - started)
        _metric_counts(result, answer.metrics, self.n)
        result.answered_frac = answer.answered_fraction
        result.rank_error = rank_error(self.sorted, answer.estimate, phi)
        result.ok = (
            result.rank_error <= self.eps
            and answer.answered_fraction >= 1.0 - 2.0 ** -self.spread_rounds
        )
        result.fingerprint = _digest(
            answer.estimates, answer.rounds, answer.metrics.messages,
            answer.metrics.total_bits,
        )
        return result


class ServiceWorkload(Workload):
    """One QuantileService lifecycle: build, query burst, updates, rebuild."""

    name = "service-5e4"
    n = 50_000
    eps = 0.05
    #: The service's default per-lane query accuracy (eps / 2); a grid
    #: answer must sit within eps + query_accuracy of its target.
    tolerance = eps + eps / 2.0
    queries = 10_000
    #: 8 % of the nodes: enough drift that the rebuild redoes about half
    #: of the lanes.
    updates = 4_000
    #: Shift of every updated value, in standard deviations: large enough
    #: that lane drift crosses the rebuild threshold.
    shift = 1.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(derived_seed(self.seed, 2))
        self.values = rng.standard_normal(self.n)
        self.sorted = np.sort(self.values)

    def _plan(self, rng: np.random.Generator, values: np.ndarray,
              queries: int, updates: int):
        """Query targets, rank probes, updated nodes and the new values."""
        phis = rng.uniform(0.01, 0.99, size=queries // 2)
        probes = rng.choice(values, size=queries // 2)
        updated = rng.choice(values.size, size=updates, replace=False)
        shifted = values.copy()
        shifted[updated] += self.shift
        return phis, probes, updated, shifted

    def _lifecycle(self, values, seed, plan) -> dict:
        """Build, serve the query burst, apply the updates, rebuild."""
        phis, probes, updated, shifted = plan
        clock = time.perf_counter
        # A copy: the service adopts a float64 input array and updates it
        # in place.
        svc = service.QuantileService(values.copy(), eps=self.eps, rng=seed)
        built = svc.grid_answers.copy()
        latencies = np.empty(2 * phis.size)
        quantile_values = np.empty(phis.size)
        rank_answers = np.empty(probes.size)
        rank_bounds = np.empty(probes.size)
        for j in range(phis.size):
            t0 = clock()
            answer = svc.quantile(phis[j])
            t1 = clock()
            ranked = svc.rank_of(probes[j])
            t2 = clock()
            latencies[2 * j] = t1 - t0
            latencies[2 * j + 1] = t2 - t1
            quantile_values[j] = answer.value
            rank_answers[j] = ranked.phi
            rank_bounds[j] = ranked.accuracy
        for node in updated:
            svc.update_value(int(node), float(shifted[node]))
        t0 = clock()
        report = svc.rebuild(incremental=True)
        rebuild_s = clock() - t0
        return dict(
            svc=svc, built=built, latencies=latencies, rebuild_s=rebuild_s,
            report=report, quantile_values=quantile_values,
            rank_answers=rank_answers, rank_bounds=rank_bounds,
        )

    def warm_up(self) -> None:
        rng = np.random.default_rng(derived_seed(self.seed, 3))
        values = rng.standard_normal(4096)
        plan = self._plan(rng, values, 16, 400)
        self._lifecycle(values, derived_seed(self.seed, 4), plan)

    def run_op(self, index: int) -> OpResult:
        rng = np.random.default_rng(derived_seed(self.seed, 5, index))
        plan = self._plan(rng, self.values, self.queries, self.updates)
        started = time.perf_counter()
        try:
            run = self._lifecycle(self.values, self.op_seed(index), plan)
        except Exception as exc:
            return OpResult(time.perf_counter() - started, error=repr(exc))
        result = OpResult(time.perf_counter() - started)
        svc = run["svc"]
        metrics = svc.gossip_metrics
        _metric_counts(result, metrics, self.n)
        result.answered_frac = float(np.mean(np.isfinite(svc.result.grid_values)))
        grid = svc.grid
        built_errors = [
            rank_error(self.sorted, float(value), float(phi))
            for value, phi in zip(run["built"], grid)
        ]
        rebuilt_sorted = np.sort(plan[3])
        rebuilt_errors = [
            rank_error(rebuilt_sorted, float(value), float(phi))
            for value, phi in zip(svc.grid_answers, grid)
        ]
        true_ranks = (
            np.searchsorted(self.sorted, plan[1], side="right") / self.n
        )
        ranks_ok = np.abs(run["rank_answers"] - true_ranks) <= run["rank_bounds"]
        result.rank_error = float(np.median(built_errors))
        result.ok = (
            max(built_errors) <= self.tolerance
            and max(rebuilt_errors) <= self.tolerance
            and bool(np.all(ranks_ok))
            and run["report"].validated
        )
        result.fingerprint = _digest(
            run["built"], svc.grid_answers, run["quantile_values"],
            run["rank_answers"], metrics.rounds, metrics.messages,
            metrics.total_bits,
        )
        result.extra["query_latencies_s"] = run["latencies"]
        result.extra["rebuild_s"] = run["rebuild_s"]
        result.extra["core.service.rebuild_lanes"] = run["report"].lanes_rebuilt
        return result


WORKLOADS = {
    cls.name: cls
    for cls in (ExactWorkload, ServiceWorkload, RobustWorkload)
}
