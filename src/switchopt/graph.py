"""Undirected graphs, Laplacians, spectral connectivity, Kronecker stacking."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "Network",
    "laplacian",
    "adjacency",
    "lambda2",
    "connected",
    "stack",
]

CONNECTIVITY_TOL = 1e-9


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges stored canonically as (min, max)."""

    n_nodes: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not is_integer(self.n_nodes) or self.n_nodes < 0:
            raise ValueError(f"n_nodes must be a nonnegative integer, got {self.n_nodes!r}")
        canon = set()
        for edge in self.edges:
            i, j = map(_endpoint, edge)
            if i == j:
                raise ValueError(f"self loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i},{j}) outside 0..{self.n_nodes - 1}")
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(canon))

    @classmethod
    def from_edges(cls, n_nodes, pairs, one_based=False):
        off = 1 if one_based else 0
        return cls(n_nodes, frozenset((_endpoint(i) - off, _endpoint(j) - off) for i, j in pairs))


def is_integer(v) -> bool:
    """Whether ``v`` is a Python or numpy integer, not a bool: a node or a
    mode index.  A bool or a float would pass a range check as another
    index, or as none."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _endpoint(v):
    """An edge endpoint, which must be an integer."""
    if not is_integer(v):
        raise ValueError(f"edge endpoint {v!r} is not an integer")
    return v


def adjacency(g: Graph) -> np.ndarray:
    A = np.zeros((g.n_nodes, g.n_nodes))
    for i, j in g.edges:
        A[i, j] = 1.0
        A[j, i] = 1.0
    return A


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency; symmetric, PSD, zero row sums."""
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


def lambda2(L: np.ndarray) -> float:
    """Second-smallest eigenvalue (algebraic connectivity).

    Rejects non-symmetric input; returns the raw eigenvalue, which is ~0
    whenever the zero eigenvalue has multiplicity above one.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("Laplacian must be square")
    if not np.allclose(L, L.T, rtol=0.0, atol=1e-12):
        raise ValueError("Laplacian must be symmetric")
    if L.shape[0] < 2:
        return 0.0
    return float(np.linalg.eigvalsh(L)[1])


def connected(L: np.ndarray) -> bool:
    """Whether the graph of Laplacian ``L`` is connected: a single node is,
    and otherwise the second eigenvalue must exceed ``CONNECTIVITY_TOL``."""
    return len(L) == 1 or lambda2(L) > CONNECTIVITY_TOL


def stack(L: np.ndarray, n: int) -> np.ndarray:
    """Lift an N x N Laplacian to act blockwise on stacked n-vectors."""
    return np.kron(np.asarray(L, dtype=float), np.eye(n))


@dataclass(frozen=True, eq=False)
class Network:
    """Switching communication topology with multiplicative channel noise.

    sigma[j, i] is the noise intensity on the directed channel carrying
    state j to receiver i; the two directions of an undirected edge are
    independent channels and may carry different intensities.  kappa is the
    certified upper bound on every intensity and coupling is the consensus
    gain.  sigma is stored as a read-only copy, as ``laplacians`` and
    ``receive`` are, so the checked intensities are the ones that run.  A
    network equals and hashes as itself alone (its sigma is an array), so
    it can key a cache.
    """

    graphs: tuple[Graph, ...]
    sigma: np.ndarray
    coupling: float
    kappa: float

    def __post_init__(self):
        graphs = tuple(self.graphs)
        object.__setattr__(self, "graphs", graphs)
        if not graphs:
            raise ValueError("network needs at least one graph")
        N = graphs[0].n_nodes
        if any(g.n_nodes != N for g in graphs):
            raise ValueError("all switching modes must share the node count")
        sigma = np.array(self.sigma, dtype=float)  # its own copy: the caller's may change
        if sigma.ndim == 0:
            sigma = np.full((N, N), float(sigma))
            np.fill_diagonal(sigma, 0.0)
        if sigma.shape != (N, N):
            raise ValueError(f"sigma must be scalar or {N}x{N}")
        if not np.isfinite(sigma).all():
            raise ValueError("noise intensities must be finite")
        if np.any(sigma < 0.0):
            raise ValueError("noise intensities must be nonnegative")
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        for name in ("coupling", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.coupling <= 0.0:
            raise ValueError("coupling strength must be positive")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        off = sigma[~np.eye(N, dtype=bool)]
        if off.size and off.max() > self.kappa + 1e-15:
            raise ValueError(
                f"noise intensity {off.max():.6g} exceeds bound kappa={self.kappa}"
            )

    @property
    def n_nodes(self) -> int:
        return self.graphs[0].n_nodes

    @property
    def n_modes(self) -> int:
        return len(self.graphs)

    @cached_property
    def laplacians(self) -> np.ndarray:
        """The mode Laplacians stacked (S, N, N); computed once, read-only."""
        return _read_only([laplacian(g) for g in self.graphs])

    @cached_property
    def receive(self) -> np.ndarray:
        """R[s, i, j] = adjacency * sigma_{j->i} in mode s: the diffusion
        coefficient on what receiver i hears from neighbor j; computed once,
        read-only."""
        return _read_only([adjacency(g) * self.sigma.T for g in self.graphs])

    def average(self, weights) -> tuple[np.ndarray, np.ndarray]:
        """The weighted Laplacian sum_s w_s L_s and squared channel
        coefficients sum_s w_s R_s^2 over the modes, summed in mode order."""
        if len(weights) != self.n_modes:
            raise ValueError(f"{len(weights)} mode weights for {self.n_modes} modes")
        return (sum(w * L for w, L in zip(weights, self.laplacians)),
                sum(w * R**2 for w, R in zip(weights, self.receive)))

    def __getstate__(self):
        # the cached stacks derive from the fields: pickle the fields alone
        return {k: v for k, v in self.__dict__.items() if k not in ("laplacians", "receive")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.sigma.flags.writeable = False  # numpy unpickles it writeable


def _read_only(blocks) -> np.ndarray:
    out = np.array(blocks)
    out.flags.writeable = False
    return out
