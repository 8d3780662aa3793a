"""The vectorised pull surface of the uniform gossip model.

The tournament algorithms of the paper only ever *pull the current value of
a uniformly random node*.  A :class:`GossipNetwork` therefore stores the
current value of every node in a single numpy array and executes one round
(all n nodes pull one random partner) as a single gather.  Round, message
and bit accounting, and the Section-5 failure model, are applied per round
through one batched accounting call.

Multi-lane networks
-------------------
A network may carry ``L`` *lanes*: the value array becomes an ``(n, L)``
column-stacked matrix and every node's message carries its ``L`` working
values.  One partner matrix is drawn per round and shared across lanes —
exactly the paper's Step-3 trick of running the lower and upper ε/2
approximation of Algorithm 3 in the same O(log n)-round window, with one
O(log n)-bit message carrying both working values.  Each round is recorded
once, with the per-lane payload bits folded into the message size.
``L = 1`` (a 1-d value array) is bit-identical to the historical
single-lane partner and value streams.

The ``(n, L)`` matrix is stored lanes-first: column-major (Fortran order),
so every lane is one contiguous column.  A pull gathers each lane straight
from its column without a per-lane copy, and the tournament phases write
their per-lane results back as contiguous columns.  Every array the network
creates or adopts — the constructor's copy, :attr:`initial_values`,
:meth:`set_values`, :meth:`snapshot`, :meth:`reset` and the delay ring —
keeps that order; only memory layout changes, never a value or a stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injectors import FaultInjector, RoundFaults
from repro.gossip.failures import (
    FailureModel,
    NoFailures,
    resolve_failure_model,
    round_failures,
)
from repro.gossip.messages import BITS_PER_VALUE, tournament_message_bits
from repro.gossip.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.topology.dynamic import TopologyProcess, resolve_topology_process
from repro.topology.graphs import Topology
from repro.topology.sampler import resolve_peer_sampler
from repro.utils.rand import RandomSource

#: Value dtypes a network may run on.  float64 is the default; float32
#: halves the memory traffic of the per-round ``(n, k, L)`` gathers and is
#: exact for integer-valued payloads below 2**24 (e.g. the exact-quantile
#: driver's rank keys).
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def resolve_value_dtype(dtype) -> np.dtype:
    """Normalize a user-supplied value dtype (``None`` -> float64)."""
    resolved = np.dtype(np.float64 if dtype is None else dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise ConfigurationError(
            f"unsupported value dtype {resolved}; choose float32 or float64"
        )
    return resolved


@dataclass
class PullBatch:
    """Result of ``k`` consecutive pull rounds.

    Attributes
    ----------
    partners:
        ``(n, k)`` integer array: the node contacted by each node in each of
        the ``k`` rounds.  One draw shared by every lane.
    values:
        The value held by that partner at the start of the batch: ``(n, k)``
        for a single-lane network, ``(n, k, L)`` for a multi-lane one.
        (Within one tournament iteration every pull reads the partner's
        value *from the previous iteration*, so reading a snapshot is
        exactly the paper's semantics.)
    ok:
        ``(n, k)`` boolean array: False where the pulling node failed in
        that round and the pull therefore never happened.  Failures are
        per node and round — they apply to every lane of the message.
    """

    partners: np.ndarray
    values: np.ndarray
    ok: np.ndarray

    @property
    def n(self) -> int:
        return self.partners.shape[0]

    @property
    def k(self) -> int:
        return self.partners.shape[1]

    @property
    def lanes(self) -> int:
        return 1 if self.values.ndim == 2 else self.values.shape[2]


class GossipNetwork:
    """A synchronous uniform gossip network over a shared value array.

    Parameters
    ----------
    values:
        Initial value of every node: length ``n`` for a single-lane network
        or an ``(n, L)`` column-stacked matrix for ``L`` lanes sharing one
        partner stream (copied into column-major storage; see the module
        docstring).
    rng:
        Seed or :class:`RandomSource` for partner selection and failures.
    failure_model:
        ``None`` (no failures), a float ``mu`` or a :class:`FailureModel`.
    metrics:
        Optionally share a :class:`NetworkMetrics` object with an enclosing
        computation (the exact-quantile driver threads one metrics object
        through all of its sub-protocols).
    topology:
        Optional :class:`~repro.topology.graphs.Topology` restricting who
        can be pulled from.  ``None`` (the default) is the paper's uniform
        gossip on the complete graph — bit-identical to the historical
        partner stream.
    peer_sampling:
        Partner strategy on a sparse topology: ``"uniform"`` over neighbors
        or ``"round-robin"`` (shuffled cyclic neighbor schedule).
    topology_process:
        Optional :class:`~repro.topology.dynamic.TopologyProcess` making the
        graph a per-round object (churn, newscast-style edge resampling).
        Mutually exclusive with ``topology``.  With a process attached each
        pull column draws its partners from that round's sampler (active
        targets only) and departed nodes have ``ok = False`` for the round.
    dtype:
        Value dtype: float64 (default) or float32.  The paper's messages
        are O(log n) bits either way; float32 halves the simulator's
        memory traffic on the hot ``(n, k, L)`` gathers.
    faults:
        Optional :class:`~repro.faults.injectors.FaultInjector`.  The pull
        surface applies the full fault vocabulary: crash/drop suppress the
        pull (``ok = False``), duplicates are charged as extra messages,
        delayed pulls are served from a bounded ring of past value
        snapshots (delay is measured in value-update windows, i.e. pull
        batches), corrupted pulls deliver a perturbed payload, and nodes
        restarting from a ``reset_values`` crash lose their working values
        (reset to the initial values at the next batch boundary).  The
        snapshot ring holds the network's own values only, so a
        ``pull(values=...)`` override batch neither reads nor feeds it:
        its delayed pulls arrive on time.  The injector draws from its own
        seeded stream, composes with any failure model and topology process
        (masks OR-ed), and leaves every fault-free stream bit-identical
        when absent.

    Every :meth:`pull` runs one body: draw partners and per-round ok masks
    (:meth:`_draw`), gather from the start-of-batch snapshot, overlay the
    injector's message-level faults (:meth:`_apply_faults`), record the
    ``k`` rounds in one accounting call, and NaN out the failed pulls.
    The per-round ok mask is :func:`~repro.gossip.failures.round_failures`,
    the same composition the round engines use.  When nothing can fail the
    body draws no masks and returns a broadcast all-True ``ok`` view.
    """

    def __init__(
        self,
        values: Union[Sequence[float], np.ndarray],
        rng: Union[None, int, RandomSource] = None,
        failure_model: Union[None, float, FailureModel] = None,
        metrics: Optional[NetworkMetrics] = None,
        keep_history: bool = True,
        topology: Optional[Topology] = None,
        peer_sampling: str = "uniform",
        topology_process: Optional[TopologyProcess] = None,
        dtype=None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self._dtype = resolve_value_dtype(dtype)
        array = np.array(values, dtype=self._dtype, order="F")
        if array.ndim not in (1, 2):
            raise ConfigurationError(
                "values must be one-dimensional (single lane) or an "
                "(n, lanes) matrix"
            )
        if array.ndim == 2 and array.shape[1] < 1:
            raise ConfigurationError("a multi-lane network needs at least 1 lane")
        if array.shape[0] < 2:
            raise ConfigurationError("a gossip network needs at least 2 nodes")
        self._values = array
        self._initial_values = array.copy(order="F")
        self._n = array.shape[0]
        self._lanes = 1 if array.ndim == 1 else array.shape[1]
        self._rng = rng if isinstance(rng, RandomSource) else RandomSource(rng)
        self._failures = resolve_failure_model(failure_model)
        self._topology = topology
        if topology_process is not None:
            if topology is not None:
                raise ConfigurationError(
                    "pass either topology or topology_process, not both"
                )
            # Mirror the engine path: the process owns partner selection,
            # so overrides that could not take effect are errors rather
            # than silent no-ops.
            if peer_sampling != "uniform":
                raise ConfigurationError(
                    "peer_sampling is owned by the topology process; "
                    "construct the process with the desired strategy instead"
                )
        if faults is not None and not isinstance(faults, FaultInjector):
            raise ConfigurationError(
                f"faults must be a FaultInjector, got {faults!r}"
            )
        self._faults = faults
        self._delay_history: Optional[deque] = (
            deque(maxlen=faults.max_delay)
            if faults is not None and faults.max_delay > 0
            else None
        )
        self._process = resolve_topology_process(topology_process, self._n)
        self._sampler = None if self._process is not None else resolve_peer_sampler(
            topology, sampling=peer_sampling, n=self._n
        )
        self.metrics = metrics if metrics is not None else NetworkMetrics(
            keep_history=keep_history
        )
        # One message per pull; a multi-lane message carries one value per
        # lane under the same framing (the paper's shared O(log n)-bit
        # window), so extra lanes add only their payload values.
        self._message_bits = (
            tournament_message_bits(self._n) + (self._lanes - 1) * BITS_PER_VALUE
        )

    # -- basic properties ---------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def lanes(self) -> int:
        """Number of value lanes sharing the partner stream."""
        return self._lanes

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the value array."""
        return self._dtype

    @property
    def values(self) -> np.ndarray:
        """The current value of every node (live view; treat as read-only).

        Multi-lane values are column-major: ``values[:, lane]`` is a
        contiguous column.
        """
        return self._values

    @property
    def initial_values(self) -> np.ndarray:
        """The values the network was constructed with (copy kept internally)."""
        return self._initial_values

    @property
    def rng(self) -> RandomSource:
        return self._rng

    @property
    def failure_model(self) -> FailureModel:
        return self._failures

    @property
    def can_fail(self) -> bool:
        """Whether any pull can come back with ``ok = False``.

        True when a failure model is attached, the topology is a dynamic
        process (departed nodes do not pull), or a fault injector can
        suppress pulls.  Phase drivers use this to skip the per-iteration
        fallback snapshot on the failure-free path.
        """
        return (
            not isinstance(self._failures, NoFailures)
            or self._process is not None
            or self._faults is not None
        )

    @property
    def rounds(self) -> int:
        """Number of synchronous rounds executed so far."""
        return self.metrics.rounds

    def snapshot(self) -> np.ndarray:
        """An independent copy of the current values, column-major like them."""
        return self._values.copy(order="F")

    def set_values(
        self, values: Union[Sequence[float], np.ndarray], copy: bool = True
    ) -> None:
        """Replace the value of every node (e.g. between algorithm phases).

        ``copy=False`` adopts the array without a defensive copy — for
        callers handing over a freshly built array they will not touch
        again (the tournament phases do this every iteration).  Either way
        the stored matrix is column-major: a row-major array is copied into
        that order once (an adopted column-major array is taken as is).
        """
        array = np.asarray(values, dtype=self._dtype)
        if array.shape != self._values.shape:
            raise ConfigurationError(
                f"expected values of shape {self._values.shape}, "
                f"got shape {array.shape}"
            )
        self._values = (
            array.copy(order="F") if copy else np.asfortranarray(array)
        )

    def reset(self) -> None:
        """Restore the initial values and clear accumulated metrics."""
        self._values = self._initial_values.copy(order="F")
        self.metrics = NetworkMetrics(keep_history=self.metrics.keep_history)
        if self._process is not None:
            self._process.begin()
        if self._faults is not None:
            self._faults.begin()
        if self._delay_history is not None:
            self._delay_history.clear()

    @property
    def topology(self):
        """The attached topology, or ``None`` for uniform/complete gossip."""
        return self._topology

    @property
    def topology_process(self):
        """The attached topology process, or ``None`` for a static graph."""
        return self._process

    # -- the pull surface ---------------------------------------------------------
    def pull(
        self,
        k: int = 1,
        label: str = "pull",
        values: Optional[np.ndarray] = None,
    ) -> PullBatch:
        """Execute ``k`` pull rounds and return the pulled snapshot values.

        Each of the ``k`` columns corresponds to one synchronous round in
        which every node pulls the (start-of-batch) value of one uniformly
        random node — every lane reads from the same partner.  Nodes that
        sit out a round (see :func:`~repro.gossip.failures.round_failures`)
        have ``ok = False`` for that round and receive no value (NaN).
        ``values`` pulls from an override array of the network's shape
        instead of the network's own values; a row-major override is
        converted to column-major once per pull, not once per lane.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")
        source = self._values if values is None else np.asarray(
            values, dtype=self._dtype, order="F"
        )
        if source.shape != self._values.shape:
            raise ConfigurationError(
                f"values override must have shape {self._values.shape}"
            )
        bits = self._message_bits
        tracer = get_tracer()
        if tracer.active:
            # One event per pull *batch* (k rounds), not per round: the
            # round windows of a tournament become visible in the trace
            # while the inactive-tracer cost stays one attribute check.
            tracer.event(
                "pull",
                label=label,
                k=k,
                lanes=self._lanes,
                bits_each=bits,
                round_start=self.metrics.rounds,
            )

        partners, ok, round_faults = self._draw(k)
        pulled = self._gather(source, partners)
        if ok is None:
            # Failure-free fast path: one batched accounting call for all k
            # rounds and a zero-allocation broadcast view for the all-True
            # ok mask.
            self.metrics.record_rounds_batch(
                k, label=label, messages=self._n, bits_each=bits
            )
            ok = np.broadcast_to(np.True_, (self._n, k))
            return PullBatch(partners=partners, values=pulled, ok=ok)
        successes = ok.sum(axis=0)
        messages = successes
        if round_faults is not None:
            pulled, duplicates = self._apply_faults(
                round_faults, source, partners, pulled, ok, own=values is None
            )
            messages = successes + duplicates
        # one request + one response per successful pull; we charge the
        # response (which carries the values) at the protocol's bit cost.
        self.metrics.record_rounds_batch(
            k,
            label=label,
            messages=messages,
            bits_each=bits,
            failures=self._n - successes,
        )
        pulled = self._mask_failed(pulled, ok)
        return PullBatch(partners=partners, values=pulled, ok=ok)

    def _draw(
        self, k: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[List[RoundFaults]]]:
        """Partners, ok mask and injector decisions for the next ``k`` rounds.

        A static sampler draws the whole ``(n, k)`` partner block at once;
        under a topology process each column asks for that round's state
        and draws its partners from the round's sampler (active targets
        only).  The process round counter is the network's global round
        count, so interleaved pull batches see one consistent schedule.
        The per-round failed masks come from
        :func:`~repro.gossip.failures.round_failures` in round order, so
        the engine stream sees partners and masks in the historical order.
        ``ok`` is ``None`` when no pull can fail (no mask draws at all);
        ``round_faults`` is ``None`` without an injector.
        """
        if not self.can_fail:
            return self._sampler.draw_block(self._rng, k), None, None
        n = self._n
        base = self.metrics.rounds
        if self._process is None:
            partners = self._sampler.draw_block(self._rng, k)
        else:
            partners = np.empty((n, k), dtype=np.int64)
        ok = np.empty((n, k), dtype=bool)
        round_faults: Optional[List[RoundFaults]] = (
            None if self._faults is None else []
        )
        state = None
        for column in range(k):
            if self._process is not None:
                state = self._process.round_state(base + column)
                partners[:, column] = state.sampler.draw_round(self._rng)
            failed, faults = round_failures(
                base + column, n, self._rng, self._failures, state, self._faults
            )
            ok[:, column] = ~failed
            if round_faults is not None:
                round_faults.append(faults)
        return partners, ok, round_faults

    def _gather(self, source: np.ndarray, partners: np.ndarray) -> np.ndarray:
        """Gather the pulled values: ``(n, k)`` or ``(n, k, L)``.

        Multi-lane gathers go lane by lane, each straight from the lane's
        contiguous column of the column-major ``source`` (no per-lane copy)
        — several 1-d gathers are ~3x faster than one row-wise gather of
        ``(n, L)`` rows.  The lanes-first ``(L, n, k)`` block is returned as
        a transposed ``(n, k, L)`` view.  ``np.take(mode="clip")`` skips the per-element
        bounds check fancy indexing pays (partners are drawn in ``[0, n)``,
        so clipping never fires) — ~40% faster on latency-bound gathers at
        n = 10⁶.
        """
        if source.ndim == 1:
            return np.take(source, partners, mode="clip")
        block = np.empty(
            (self._lanes,) + partners.shape, dtype=self._dtype
        )
        for lane in range(self._lanes):
            np.take(source[:, lane], partners, out=block[lane], mode="clip")
        return block.transpose(1, 2, 0)

    def _mask_failed(self, pulled: np.ndarray, ok: np.ndarray) -> np.ndarray:
        """NaN out the pulls of failed nodes (lane-broadcast for L > 1).

        Writes in place: every caller hands over a freshly gathered array.
        """
        failed = ~ok if pulled.ndim == 2 else ~ok[:, :, None]
        np.copyto(pulled, np.nan, where=failed)
        return pulled

    def _apply_faults(
        self,
        round_faults: List[RoundFaults],
        source: np.ndarray,
        partners: np.ndarray,
        pulled: np.ndarray,
        ok: np.ndarray,
        own: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Overlay the injector's message-level kinds on a gathered batch.

        Delayed pulls gather from the bounded ring of past value snapshots,
        corrupted pulls scale the delivered payload, and nodes restarting
        from a state-loss crash get their working values reset to their
        initial values (visible from the next batch's snapshot on).  The
        ring holds the network's own values only: an override batch
        (``own=False``) pulls another stream, so it neither reads nor feeds
        the ring and its delayed pulls arrive on time.  Returns the
        delivered payloads and the per-round count of duplicate deliveries,
        which are charged as extra messages.
        """
        delays = np.stack([rf.delay for rf in round_faults], axis=1)
        ring = self._delay_history if own else None
        if ring:
            available = len(ring)
            for d in np.unique(delays[delays > 0]):
                # A delay deeper than the ring serves the oldest snapshot
                # we still hold (the delay bound is honest either way).
                snap = ring[-int(min(d, available))]
                stale = self._gather(snap, partners)
                mask = delays == d
                if pulled.ndim == 3:
                    mask = mask[:, :, None]
                pulled = np.where(mask, stale, pulled)
        corruption = np.stack([rf.corruption for rf in round_faults], axis=1)
        if np.any(corruption != 1.0):
            factor = corruption if pulled.ndim == 2 else corruption[:, :, None]
            pulled = (pulled * factor).astype(self._dtype, copy=False)
        if ring is not None:
            # The batch's outgoing snapshot becomes "one window ago".
            ring.append(source.copy(order="F"))
        reset_nodes = np.logical_or.reduce([rf.restarted for rf in round_faults])
        if self._faults.reset_on_restart and np.any(reset_nodes):
            # Crash-and-restart state loss, applied at the batch boundary:
            # the restarted node rejoins the protocol with its initial
            # value(s), not the working state it crashed with.
            self._values[reset_nodes] = self._initial_values[reset_nodes]
        self.metrics.record_faults_injected(
            sum(rf.injected for rf in round_faults)
        )
        duplicated = np.stack([rf.duplicated for rf in round_faults], axis=1)
        return pulled, (duplicated & ok).sum(axis=0)

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The attached fault injector, or ``None``."""
        return self._faults

    def charge_rounds(self, count: int, label: str = "charged") -> None:
        """Account for ``count`` rounds executed by an external sub-protocol."""
        self.metrics.charge_rounds(count, label=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GossipNetwork(n={self._n}, lanes={self._lanes}, "
            f"rounds={self.rounds}, failures={self._failures!r})"
        )
