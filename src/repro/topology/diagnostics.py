"""Structural diagnostics for topologies: degrees, connectivity, mixing.

Gossip convergence on a topology is governed by its spectral gap — the
paper's complete graph has a constant gap, a ring's gap vanishes as
``1/n²``, and bounded-degree expanders sit in between with a constant gap
at constant degree (the regime of Becchetti et al.).  The helpers here
give experiments those numbers cheaply:

* :func:`degree_stats` — min/mean/max/std of the degree sequence;
* :func:`is_connected` — frontier BFS with numpy gathers, O(E) total;
* :func:`estimate_spectral_gap` — power iteration on the lazy random walk
  ``P = (I + D^{-1} A) / 2``, deflating the stationary distribution, which
  estimates ``1 - lambda_2`` without building any matrix.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topology.graphs import Topology
from repro.utils.rand import RandomSource


def degree_stats(topology: Topology) -> Dict[str, float]:
    """Summary statistics of the degree sequence."""
    degrees = topology.degrees
    return {
        "min_degree": float(degrees.min()),
        "max_degree": float(degrees.max()),
        "mean_degree": float(degrees.mean()),
        "std_degree": float(degrees.std()),
    }


def _frontier_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    frontier: np.ndarray,
) -> np.ndarray:
    """All neighbors of the ``frontier`` nodes, concatenated (one gather)."""
    starts = indptr[frontier]
    counts = degrees[frontier]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # positions[j] enumerates 0..counts[i]-1 within each frontier segment
    boundaries = np.cumsum(counts) - counts
    positions = np.arange(total, dtype=np.int64) - np.repeat(boundaries, counts)
    return indices[np.repeat(starts, counts) + positions]


def is_connected(topology: Topology) -> bool:
    """Whether the graph is connected (BFS from node 0)."""
    if topology.is_complete:
        return True
    # Hoisted once: the degrees property allocates an O(n) diff per call,
    # which would make a deep BFS (a ring has ~n/2 levels) quadratic.
    indptr, indices, degrees = topology.indptr, topology.indices, topology.degrees
    visited = np.zeros(topology.n, dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    seen = 1
    while frontier.size:
        neighbors = _frontier_neighbors(indptr, indices, degrees, frontier)
        fresh = np.unique(neighbors[~visited[neighbors]])
        visited[fresh] = True
        seen += fresh.size
        frontier = fresh
    return seen == topology.n


def _analytic_lazy_gap(topology: Topology) -> Optional[float]:
    """Closed-form lazy-walk gap for the families that have one.

    Power iteration needs ``~1/gap`` iterations to resolve a gap, which is
    hopeless for the lattices (ring gap ``~1/n²``, torus ``~1/n``) at the
    sizes the experiments sweep — precisely the families whose circulant /
    product structure gives the second eigenvalue in closed form, so those
    are answered exactly instead.
    """
    n = topology.n
    if topology.is_complete:
        # lambda_2 of the lazy walk is 1/2 - 1/(2(n-1)).
        return float(0.5 + 0.5 / (n - 1))
    if topology.name == "ring":
        # Circulant C_n(1..k): walk eigenvalues (1/k) sum_j cos(2*pi*j*m/n);
        # the second-largest is at m = 1.
        k = int(topology.params["k"])
        lam = np.cos(2.0 * np.pi * np.arange(1, k + 1) / n).sum() / k
        return float((1.0 - lam) / 2.0)
    if topology.name == "torus":
        rows = int(topology.params["rows"])
        cols = int(topology.params["cols"])
        if rows < 3 or cols < 3:
            return None  # edge dedup changes degrees; fall back to iteration
        # Product of two cycles, degree 4: walk eigenvalues
        # (cos(2*pi*a/rows) + cos(2*pi*b/cols)) / 2; second-largest at
        # (a, b) = (0, 1) or (1, 0) on the longer side.
        lam = (1.0 + np.cos(2.0 * np.pi / max(rows, cols))) / 2.0
        return float((1.0 - lam) / 2.0)
    return None


def estimate_spectral_gap(
    topology: Topology,
    iterations: int = 2_000,
    rng: Union[None, int, RandomSource] = None,
    rtol: float = 1e-5,
) -> float:
    """Estimate ``1 - lambda_2`` of the lazy random walk on the topology.

    The complete graph, the ring and the (non-degenerate) torus are
    answered with their closed-form eigenvalues.  Everything else runs
    power iteration on ``P = (I + D^{-1} A) / 2`` applied to a random
    vector deflated against the walk's stationary distribution (which is
    proportional to the degrees), stopping once the Rayleigh quotient
    stabilises to ``rtol``.  The returned gap drives gossip mixing:
    averaging dynamics contract by roughly ``1 - gap`` per round.

    Accuracy caveat: power iteration resolves the gap quickly when it is
    large (the expander families it is used for converge in tens of
    iterations); if the ``iterations`` cap binds first the result is an
    *upper bound* on the true gap.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be positive")
    analytic = _analytic_lazy_gap(topology)
    if analytic is not None:
        return analytic
    degrees = topology.degrees.astype(float)
    if degrees.min() < 1:
        raise ConfigurationError("spectral gap needs every node to have a neighbor")
    source = rng if isinstance(rng, RandomSource) else RandomSource(rng)
    indptr, indices = topology.indptr, topology.indices

    # Stationary distribution of the walk, normalised in the pi-weighted
    # inner product <x, y>_pi = sum_v pi_v x_v y_v under which P is
    # self-adjoint.
    pi = degrees / degrees.sum()

    def step(x: np.ndarray) -> np.ndarray:
        gathered = x[indices]
        sums = np.add.reduceat(gathered, indptr[:-1])
        return 0.5 * (x + sums / degrees)

    x = source.random(topology.n) - 0.5
    x -= np.dot(pi, x)  # deflate the top eigenvector (the constant)
    lam = 0.0
    stable = 0
    for _ in range(iterations):
        norm = float(np.sqrt(np.dot(pi, x * x)))
        if norm < 1e-300:
            # The deflated component died: the walk has (numerically) no
            # second mode, i.e. maximal gap.
            return 1.0
        x /= norm
        y = step(x)
        y -= np.dot(pi, y)
        previous = lam
        lam = float(np.dot(pi, x * y))
        # The per-iteration drift of the Rayleigh quotient decays by the
        # lambda_3/lambda_2 ratio; requiring several consecutive stable
        # iterations guards against crowded spectra creeping slowly.
        if abs(lam - previous) <= rtol * max(1.0 - lam, 1e-12):
            stable += 1
            if stable >= 5:
                x = y
                break
        else:
            stable = 0
        x = y
    return float(1.0 - lam)

