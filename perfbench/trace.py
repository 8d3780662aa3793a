"""The traced run: per-module spans recorded from outside the program.

:class:`TraceSession` wraps the public callables of each module where
their callers look them up (a class attribute, or every ``repro.*``
module that bound the function by name), installs a ``repro.obs``
:class:`~repro.obs.tracer.Tracer` for the program's own phase spans and
``on_round`` hook, runs one operation, and restores every original.
Wrappers only time and count: they pass the same arguments through and
return the same results, so a traced operation is bit-identical to an
untraced one (the benchmark checks this on every traced operation).

A span's self time is its wall time minus the wall time of its child
spans.  Summed over all spans of an operation, self times equal the
wall time of the root spans; the rest of the operation's wall time is
reported as the unattributed remainder.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.aggregates.extrema as extrema
import repro.aggregates.push_sum as push_sum
import repro.core.approx_quantile as approx
import repro.core.robust as robust
import repro.core.service as service
import repro.core.tokens as tokens
import repro.gossip.engine as engine
import repro.gossip.failures as failures
import repro.gossip.metrics as gossip_metrics
import repro.gossip.network as network
import repro.topology.sampler as sampler
import repro.utils.rand as rand
from repro.obs.tracer import Tracer, use_tracer

#: Span name -> (module row of the per-module table, per-layer self-time
#: metric or None).  Names without a dot are the program's own phase
#: spans; dotted names are the benchmark's wrappers.
SPANS = {
    "exact_quantile": ("core.exact", "core.exact.self_s"),
    "sandwich": ("core.exact", "core.exact.sandwich.self_s"),
    "extrema": ("core.exact", "core.exact.extrema.self_s"),
    "counting": ("core.exact", "core.exact.counting.self_s"),
    "tokens": ("core.exact", "core.exact.tokens.self_s"),
    "final_query": ("core.exact", "core.exact.final_query.self_s"),
    "core.approx": ("core.approx", "core.approx.self_s"),
    "approx_quantile": ("core.approx", "core.approx.self_s"),
    "two_tournament": ("core.tournaments", "core.tournaments.self_s"),
    "three_tournament": ("core.tournaments", "core.tournaments.self_s"),
    "core.robust": ("core.robust", "core.robust.self_s"),
    "core.service.build": ("core.service", "core.service.self_s"),
    "core.service.query": ("core.service", "core.service.query_self_s"),
    "core.service.update": ("core.service", "core.service.self_s"),
    "core.service.rebuild": ("core.service", "core.service.self_s"),
    "service_build": ("core.service", "core.service.self_s"),
    "service_rebuild": ("core.service", "core.service.self_s"),
    "all_ranks": ("core.all_quantiles", "core.all_quantiles.self_s"),
    "grid_chunk": ("core.all_quantiles", "core.all_quantiles.self_s"),
    "core.tokens": ("core.tokens", "core.tokens.self_s"),
    "gossip.network.init": ("gossip.network", "gossip.network.init_self_s"),
    "gossip.pull": ("gossip.network", "gossip.pull.self_s"),
    "topology.sampler.draw": ("topology.sampler", "topology.sampler.draw.self_s"),
    "utils.rand.resample": ("utils.rand", "utils.rand.resample.self_s"),
    "gossip.engine": ("gossip.engine", "gossip.engine.self_s"),
    "aggregates.push_sum.act": ("aggregates.push_sum", "aggregates.push_sum.act_self_s"),
    "aggregates.push_sum.receive": ("aggregates.push_sum", "aggregates.push_sum.receive_self_s"),
    "aggregates.extrema": ("aggregates.extrema", "aggregates.extrema.self_s"),
    "gossip.failures.mask": ("gossip.failures", "gossip.failures.mask.self_s"),
    "gossip.metrics.account": ("gossip.metrics", "gossip.metrics.account.self_s"),
}

#: Every per-layer metric the traced run reports: name -> (unit, better).
#: Values are per traced operation (means over the run's traced
#: operations); a module that a workload bypasses reports 0.
PER_LAYER = {
    "core.exact.self_s": ("s", "lower"),
    **{
        f"core.exact.{phase}.{what}": (unit, "lower")
        for phase in ("sandwich", "extrema", "counting", "tokens", "final_query")
        for what, unit in (("self_s", "s"), ("rounds", "rounds"))
    },
    "core.exact.iterations": ("count", "lower"),
    "core.approx.self_s": ("s", "lower"),
    "core.tournaments.self_s": ("s", "lower"),
    "core.robust.self_s": ("s", "lower"),
    "core.service.build_s": ("s", "lower"),
    "core.service.query_self_s": ("s", "lower"),
    "core.service.self_s": ("s", "lower"),
    "core.service.rebuild_lanes": ("count", "lower"),
    "core.service.query_p50_us": ("us", "lower"),
    "core.service.query_p99_us": ("us", "lower"),
    "core.service.rebuild_s": ("s", "lower"),
    "core.all_quantiles.grid_chunks": ("count", "lower"),
    "core.all_quantiles.self_s": ("s", "lower"),
    "core.tokens.calls": ("count", "lower"),
    "core.tokens.self_s": ("s", "lower"),
    "gossip.network.init_self_s": ("s", "lower"),
    "gossip.pull.calls": ("count", "lower"),
    "gossip.pull.rounds": ("rounds", "lower"),
    "gossip.pull.self_s": ("s", "lower"),
    "gossip.pull.ok_frac": ("fraction", "higher"),
    "gossip.pull.bytes_gathered": ("bytes_computed", "lower"),
    "topology.sampler.draw.calls": ("count", "lower"),
    "topology.sampler.draw.partners": ("count", "lower"),
    "topology.sampler.draw.self_s": ("s", "lower"),
    "utils.rand.resample.calls": ("count", "lower"),
    "utils.rand.resample.redrawn": ("count", "lower"),
    "utils.rand.resample.self_s": ("s", "lower"),
    "utils.rand.partner_useful_frac": ("fraction", "higher"),
    "gossip.engine.runs": ("count", "lower"),
    "gossip.engine.rounds": ("rounds", "lower"),
    "gossip.engine.self_s": ("s", "lower"),
    "gossip.engine.round_p50_us": ("us", "lower"),
    "aggregates.push_sum.act_self_s": ("s", "lower"),
    "aggregates.push_sum.receive_self_s": ("s", "lower"),
    "aggregates.push_sum.calls": ("count", "lower"),
    "aggregates.extrema.self_s": ("s", "lower"),
    "gossip.failures.mask.calls": ("count", "lower"),
    "gossip.failures.mask.self_s": ("s", "lower"),
    "gossip.metrics.account.calls": ("count", "lower"),
    "gossip.metrics.account.self_s": ("s", "lower"),
    "obs.trace_overhead_frac": ("fraction", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "rank_error_p50": ("fraction", "lower"),
    "failed_frac": ("fraction", "lower"),
}

#: Program phases whose rounds the trace reports (from the phase spans).
EXACT_PHASES = ("sandwich", "extrema", "counting", "tokens", "final_query")

#: Rows of the per-module table, in print order.
MODULE_ROWS = (
    "core.exact", "core.approx", "core.tournaments", "core.robust", "core.service",
    "core.all_quantiles", "core.tokens", "gossip.network",
    "topology.sampler", "utils.rand", "gossip.engine",
    "aggregates.push_sum", "aggregates.extrema", "gossip.failures",
    "gossip.metrics",
)


class _CountingSource:
    """Stands in for a RandomSource and counts the entries it re-draws.

    The re-draw kernel calls only ``integers``; forwarding it unchanged
    keeps the random stream identical.
    """

    __slots__ = ("_source", "_counts")

    def __init__(self, source, counts) -> None:
        self._source = source
        self._counts = counts

    def integers(self, low, high=None, size=None):
        self._counts["utils.rand.resample.redrawn"] += int(np.prod(size))
        return self._source.integers(low, high, size=size)


class _BenchTracer(Tracer):
    """The repo tracer plus per-round engine times for ``round_p50_us``."""

    def __init__(self, session: "TraceSession") -> None:
        super().__init__()
        self._session = session

    def on_round(self, record, elapsed: float) -> None:
        super().on_round(record, elapsed)
        if self._session.engine_depth:
            self._session.engine_round_s.append(elapsed)


class TraceSession:
    """Patches the program for one traced operation at a time."""

    def __init__(self) -> None:
        self.tracer: Optional[_BenchTracer] = None
        self.counts: Dict[str, float] = defaultdict(float)
        self.engine_round_s: List[float] = []
        self.engine_depth = 0
        self._restore: List[Callable[[], None]] = []

    # -- wrapping ---------------------------------------------------------------
    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        session = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with session.tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch_method(self, cls, attr: str, wrapper_of) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._restore.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it."""
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        functools.partial(setattr, module, attr, original)
                    )

    def _install(self) -> None:
        counts = self.counts
        span = self._span

        def count(key: str):
            def after(args, result):
                counts[key] += 1
            return after

        def after_pull(args, batch):
            counts["gossip.pull.calls"] += 1
            counts["gossip.pull.rounds"] += batch.k
            ok = batch.ok
            attempted = ok.size
            good = attempted if ok.strides == (0, 0) else int(np.count_nonzero(ok))
            counts["gossip.pull.attempted"] += attempted
            counts["gossip.pull.ok"] += good
            counts["gossip.pull.bytes_gathered"] += batch.values.nbytes

        def after_draw(args, partners):
            counts["topology.sampler.draw.calls"] += 1
            counts["topology.sampler.draw.partners"] += partners.size

        self._patch_method(network.GossipNetwork, "pull",
                           lambda f: span("gossip.pull", f, after_pull))
        self._patch_method(network.GossipNetwork, "__init__",
                           lambda f: span("gossip.network.init", f))
        for attr in ("draw_block", "draw_round"):
            self._patch_method(sampler.UniformSampler, attr,
                               lambda f: span("topology.sampler.draw", f, after_draw))
        for cls in (failures.NoFailures, failures.UniformFailures):
            self._patch_method(cls, "failure_mask", lambda f: span(
                "gossip.failures.mask", f, count("gossip.failures.mask.calls")))
        for attr in ("begin_round", "record_rounds_batch"):
            self._patch_method(gossip_metrics.NetworkMetrics, attr, lambda f: span(
                "gossip.metrics.account", f, count("gossip.metrics.account.calls")))
        self._patch_method(push_sum.PushSumProtocol, "act_batch",
                           lambda f: span("aggregates.push_sum.act", f))
        self._patch_method(push_sum.PushSumProtocol, "receive_batch", lambda f: span(
            "aggregates.push_sum.receive", f, count("aggregates.push_sum.calls")))
        for cls in (extrema.ExtremaProtocol, extrema.ExtremaPairProtocol):
            for attr in ("act_batch", "receive_batch"):
                self._patch_method(cls, attr,
                                   lambda f: span("aggregates.extrema", f))
        for attr in ("__init__", "rebuild", "update_value", "quantile", "rank_of"):
            name = {"__init__": "build", "quantile": "query",
                    "rank_of": "query", "update_value": "update"}.get(attr, attr)
            self._patch_method(
                service.QuantileService, attr,
                lambda f, name=name: span(f"core.service.{name}", f),
            )

        original_resample = rand.resample_forbidden_targets

        @functools.wraps(original_resample)
        def resample(source, targets, forbidden, n):
            counts["utils.rand.resample.calls"] += 1
            with self.tracer.span("utils.rand.resample"):
                return original_resample(
                    _CountingSource(source, counts), targets, forbidden, n
                )

        self._patch_function(original_resample, resample)
        for fn in (engine.run_protocol_vectorized, engine.run_protocol_loop):
            self._patch_function(fn, self._engine_wrapper(fn))
        self._patch_function(tokens.distribute_tokens, span(
            "core.tokens", tokens.distribute_tokens, count("core.tokens.calls")))
        self._patch_function(robust.robust_approximate_quantile, span(
            "core.robust", robust.robust_approximate_quantile))
        self._patch_function(approx.approximate_quantile, span(
            "core.approx", approx.approximate_quantile))

    def _engine_wrapper(self, fn: Callable) -> Callable:
        session = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            session.engine_depth += 1
            try:
                with session.tracer.span("gossip.engine"):
                    result = fn(*args, **kwargs)
            finally:
                session.engine_depth -= 1
            session.counts["gossip.engine.runs"] += 1
            session.counts["gossip.engine.rounds"] += result.rounds
            return result

        return wrapper

    def _uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- one traced operation ---------------------------------------------------
    def run(self, op: Callable[[], object]):
        """Run ``op`` traced; returns ``(op result, per-op layer dict)``."""
        self.tracer = _BenchTracer(self)
        self.counts.clear()
        self.engine_round_s = []
        try:
            self._install()
            with use_tracer(self.tracer):
                result = op()
        finally:
            self._uninstall()
        return result, self._layers(result.wall_s)

    def _layers(self, op_s: float) -> Dict[str, float]:
        spans = self.tracer.spans
        child_wall = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_wall[span.parent] += span.wall_s
        layers: Dict[str, float] = defaultdict(float)
        rows: Dict[str, float] = defaultdict(float)
        for span in spans:
            row, metric = SPANS.get(span.name, ("other", None))
            self_s = span.wall_s - child_wall[span.index]
            rows[row] += self_s
            if metric is not None:
                layers[metric] += self_s
            if span.name in EXACT_PHASES:
                layers[f"core.exact.{span.name}.rounds"] += span.rounds
            elif span.name == "grid_chunk":
                layers["core.all_quantiles.grid_chunks"] += 1
            elif span.name == "core.service.build":
                layers["core.service.build_s"] += span.wall_s
        rooted = sum(span.wall_s for span in spans if span.parent is None)
        layers["trace.op_s"] = op_s
        layers["trace.unattributed_s"] = op_s - rooted
        for key in (
            "core.tokens.calls", "gossip.pull.calls", "gossip.pull.rounds",
            "gossip.pull.bytes_gathered", "topology.sampler.draw.calls",
            "topology.sampler.draw.partners", "utils.rand.resample.calls",
            "utils.rand.resample.redrawn", "gossip.engine.runs",
            "gossip.engine.rounds", "aggregates.push_sum.calls",
            "gossip.failures.mask.calls", "gossip.metrics.account.calls",
            "gossip.pull.ok", "gossip.pull.attempted",
        ):
            layers[key] += self.counts[key]
        layers["_engine_round_s"] = list(self.engine_round_s)
        layers["_rows"] = dict(rows)
        return layers
