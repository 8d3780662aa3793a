"""sha256 stream pins for the GossipNetwork pull surface and the engines'
round prologue under every robustness input.

Each pull pin runs three seeded pull batches and hashes, per batch, the
partners, values and ok bytes plus the post-batch ``net.values``, then
``metrics.summary()`` and the injector's counters.  The grid covers no
faults, each fault kind, a crash without state loss and all kinds mixed,
on a static graph and under a ``ChurnProcess``, with and without a
Section-5 failure model, as a float64 single-lane and a float32 3-lane
network.  Between batches every value is rescaled, so delayed pulls and
restart resets are visible in the bytes.  Configurations without a delay
spec pull their middle batch from a ``values=`` override.

The engine pins hash push-sum outputs and metrics on the loop and the
vectorized engine with a failure model, a topology process and an
injector attached together (and each pair of them).

Captured before the pull surface was folded into one body; a pin changes
only with a CHANGES.md note saying why.
"""

import hashlib

import numpy as np
import pytest

from repro.aggregates.push_sum import PushSumProtocol
from repro.faults import (
    CrashRestart,
    FaultInjector,
    MessageDelay,
    MessageDrop,
    MessageDuplication,
    ValueCorruption,
)
from repro.gossip.engine import run_protocol_loop, run_protocol_vectorized
from repro.gossip.network import GossipNetwork
from repro.topology.dynamic import ChurnProcess
from repro.utils.rand import RandomSource

N = 64

FAULT_SETTINGS = {
    "none": lambda: None,
    "drop": lambda: [MessageDrop(0.3)],
    "duplicate": lambda: [MessageDuplication(0.3)],
    "delay": lambda: [MessageDelay(0.5, max_delay=2)],
    "crash": lambda: [CrashRestart(0.2, downtime=2, reset_values=True)],
    "crash_keep": lambda: [CrashRestart(0.2, downtime=2, reset_values=False)],
    "corrupt": lambda: [ValueCorruption(0.3, magnitude=0.5)],
    "all": lambda: [
        MessageDrop(0.1),
        MessageDuplication(0.1),
        MessageDelay(0.3, max_delay=2),
        CrashRestart(0.1, downtime=2),
        ValueCorruption(0.1),
    ],
}

LAYOUTS = {"f64x1": (np.float64, 1), "f32x3": (np.float32, 3)}


def _pull_digest(kind, graph, mu, layout):
    dtype, lanes = LAYOUTS[layout]
    values = RandomSource(21).random((N, lanes)) * 100.0
    if lanes == 1:
        values = values[:, 0]
    specs = FAULT_SETTINGS[kind]()
    net = GossipNetwork(
        values,
        rng=13,
        failure_model=mu,
        topology_process=(
            ChurnProcess(n=N, churn_rate=0.2, rng=4) if graph == "churn" else None
        ),
        dtype=dtype,
        faults=None if specs is None else FaultInjector(specs, rng=5),
    )
    with_override = not any(isinstance(s, MessageDelay) for s in specs or ())
    digest = hashlib.sha256()
    for step in range(3):
        if step == 1 and with_override:
            batch = net.pull(3, label="override", values=-net.values)
        else:
            batch = net.pull(3)
        for array in (batch.partners, batch.values, batch.ok, net.values):
            digest.update(np.ascontiguousarray(array).tobytes())
        net.set_values(net.values * 1.5 + 1.0)
    digest.update(repr(net.metrics.summary()).encode())
    if net.faults is not None:
        digest.update(repr(sorted(net.faults.counters.items())).encode())
    return digest.hexdigest()[:16]


PULL_PINS = {
    "none/static/0.0/f64x1": "7a26a5ed232d2d46",
    "none/static/0.0/f32x3": "3d0d3bf85089c0e2",
    "none/static/0.2/f64x1": "01f78be837883e0a",
    "none/static/0.2/f32x3": "839377dec8b9c49a",
    "none/churn/0.0/f64x1": "ddfe83b565e56189",
    "none/churn/0.0/f32x3": "c185c5cbf1318b74",
    "none/churn/0.2/f64x1": "38f5a0e2cef2bc7e",
    "none/churn/0.2/f32x3": "03f0f1221acf7813",
    "drop/static/0.0/f64x1": "8a83e07fd957a844",
    "drop/static/0.0/f32x3": "16b6463be4aadce5",
    "drop/static/0.2/f64x1": "79754b791eed2144",
    "drop/static/0.2/f32x3": "6f85da0bc9294dbe",
    "drop/churn/0.0/f64x1": "a98f8bac560e5bac",
    "drop/churn/0.0/f32x3": "650951bdec7b3375",
    "drop/churn/0.2/f64x1": "68744df2e7d555c1",
    "drop/churn/0.2/f32x3": "e28a4195b0cf3042",
    "duplicate/static/0.0/f64x1": "e105f07f992bd9f2",
    "duplicate/static/0.0/f32x3": "7c371e78ec7803b4",
    "duplicate/static/0.2/f64x1": "708312efc37c68c3",
    "duplicate/static/0.2/f32x3": "24d719bbebaabfce",
    "duplicate/churn/0.0/f64x1": "6e4dee40211fdd5d",
    "duplicate/churn/0.0/f32x3": "1a95b5b2baba0a2f",
    "duplicate/churn/0.2/f64x1": "3ae36bb0c4e2d86e",
    "duplicate/churn/0.2/f32x3": "7b3e57f5a38308d8",
    "delay/static/0.0/f64x1": "81707ce7921ec0cf",
    "delay/static/0.0/f32x3": "e219cbdc747ea066",
    "delay/static/0.2/f64x1": "6d707e1e4541ed49",
    "delay/static/0.2/f32x3": "7f48e57e45e8cbe9",
    "delay/churn/0.0/f64x1": "2f881be618bc910f",
    "delay/churn/0.0/f32x3": "e7d11b22bfb5d381",
    "delay/churn/0.2/f64x1": "e494a3c2625918e2",
    "delay/churn/0.2/f32x3": "f89de067dbb1b1cb",
    "crash/static/0.0/f64x1": "98032633800a99e2",
    "crash/static/0.0/f32x3": "d627c90bb4c6a47d",
    "crash/static/0.2/f64x1": "e9f5bc2b7e7c7081",
    "crash/static/0.2/f32x3": "3f78f9fb9f1a2eb4",
    "crash/churn/0.0/f64x1": "5f771ae0d9067f1a",
    "crash/churn/0.0/f32x3": "7e6f1c07b8591df8",
    "crash/churn/0.2/f64x1": "c0fcc5a0c2a6058d",
    "crash/churn/0.2/f32x3": "6b7120908e150e65",
    "crash_keep/static/0.0/f64x1": "8c89dc99d95b2f58",
    "crash_keep/static/0.0/f32x3": "7777bef8b1ed99df",
    "crash_keep/static/0.2/f64x1": "a8003b5b0d2c56b5",
    "crash_keep/static/0.2/f32x3": "4b0d1002a07bab95",
    "crash_keep/churn/0.0/f64x1": "1db49e2330fb2ed6",
    "crash_keep/churn/0.0/f32x3": "bb02c0335a02f1a7",
    "crash_keep/churn/0.2/f64x1": "d2f1c1a12c99e944",
    "crash_keep/churn/0.2/f32x3": "d79e51250317434b",
    "corrupt/static/0.0/f64x1": "83ea712c5ea4d951",
    "corrupt/static/0.0/f32x3": "12c3ed0f272c1c1d",
    "corrupt/static/0.2/f64x1": "59425fa80da8dbbe",
    "corrupt/static/0.2/f32x3": "79f2ce7d09104773",
    "corrupt/churn/0.0/f64x1": "c03ae253d9094335",
    "corrupt/churn/0.0/f32x3": "48d1a4ce1965e821",
    "corrupt/churn/0.2/f64x1": "dbf916bf4d15980f",
    "corrupt/churn/0.2/f32x3": "994296939b622563",
    "all/static/0.0/f64x1": "27f4a66cfc2a5b8f",
    "all/static/0.0/f32x3": "347357f31699e984",
    "all/static/0.2/f64x1": "a64e35c90964d605",
    "all/static/0.2/f32x3": "2bcf78fdac0726ee",
    "all/churn/0.0/f64x1": "efd363525dee7997",
    "all/churn/0.0/f32x3": "37a175a0de22335c",
    "all/churn/0.2/f64x1": "cc9be0df662c487c",
    "all/churn/0.2/f32x3": "2b3a70bea5c94e47",
}


@pytest.mark.parametrize("key", sorted(PULL_PINS))
def test_pull_stream_pinned(key):
    kind, graph, mu, layout = key.split("/")
    assert _pull_digest(kind, graph, float(mu), layout) == PULL_PINS[key]


def _engine_digest(engine, mu, churn, faults):
    n = 97
    protocol = PushSumProtocol(RandomSource(8).random(n) * 10.0, rounds=25)
    result = engine(
        protocol,
        rng=31,
        failure_model=mu,
        topology_process=(
            ChurnProcess(n=n, churn_rate=0.2, rng=6) if churn else None
        ),
        faults=(
            FaultInjector([MessageDrop(0.1), CrashRestart(0.1)], rng=7)
            if faults else None
        ),
    )
    digest = hashlib.sha256(result.outputs_array.tobytes())
    digest.update(repr((result.rounds, result.metrics.summary())).encode())
    return digest.hexdigest()[:16]


ENGINE_PINS = {
    "0.1/churn/faults": "3c44ba65035b8141",
    "0.1/churn/clean": "87e2f636d69b69a0",
    "0.1/static/faults": "acfe3ec085c0f2ba",
    "0.0/churn/faults": "8f4d3fd1d39a3a01",
}


@pytest.mark.parametrize("key", sorted(ENGINE_PINS))
@pytest.mark.parametrize(
    "engine", [run_protocol_loop, run_protocol_vectorized],
    ids=["loop", "vectorized"],
)
def test_push_sum_round_prologue_pinned(engine, key):
    mu, churn, faults = key.split("/")
    digest = _engine_digest(
        engine, float(mu), churn == "churn", faults == "faults"
    )
    assert digest == ENGINE_PINS[key]
