"""Topology & peer-sampling subsystem.

Gossip on arbitrary graphs: compact CSR topologies
(:mod:`repro.topology.graphs`), vectorized per-round partner sampling
(:mod:`repro.topology.sampler`) consumed by both execution engines,
dynamic per-round topologies — churn and newscast-style edge resampling
(:mod:`repro.topology.dynamic`) — and structural diagnostics
(:mod:`repro.topology.diagnostics`).  The default configuration
(``topology=None`` — uniform gossip on the complete graph) is
bit-identical to the pre-topology library.
"""

from repro.topology.graphs import (
    TOPOLOGY_CHOICES,
    TOPOLOGY_PARAM_USERS,
    Topology,
    build_topology,
    complete,
    erdos_renyi,
    preferential_attachment,
    random_regular,
    ring,
    torus,
    validate_topology_flags,
    watts_strogatz,
)
from repro.topology.dynamic import (
    ChurnProcess,
    EdgeResamplingProcess,
    RoundState,
    StaticProcess,
    TopologyProcess,
    resolve_topology_process,
)
from repro.topology.sampler import (
    PEER_SAMPLING_CHOICES,
    NeighborSampler,
    PeerSampler,
    RoundRobinSampler,
    UniformSampler,
    draw_uniform_round_partners,
    resolve_peer_sampler,
)
from repro.topology.diagnostics import (
    degree_stats,
    estimate_spectral_gap,
    is_connected,
)

__all__ = [
    "TOPOLOGY_CHOICES",
    "TOPOLOGY_PARAM_USERS",
    "validate_topology_flags",
    "ChurnProcess",
    "EdgeResamplingProcess",
    "RoundState",
    "StaticProcess",
    "TopologyProcess",
    "resolve_topology_process",
    "Topology",
    "build_topology",
    "complete",
    "erdos_renyi",
    "preferential_attachment",
    "random_regular",
    "ring",
    "torus",
    "watts_strogatz",
    "PEER_SAMPLING_CHOICES",
    "NeighborSampler",
    "PeerSampler",
    "RoundRobinSampler",
    "UniformSampler",
    "draw_uniform_round_partners",
    "resolve_peer_sampler",
    "degree_stats",
    "estimate_spectral_gap",
    "is_connected",
]
