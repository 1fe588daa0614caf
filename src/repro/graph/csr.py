"""Compressed sparse row graphs.

The representation mirrors Section 3.2 of the paper: a vertex array
(``indptr``), an edge array (``indices``, each neighbor list sorted
ascending), and the *CSR offset* array storing, per vertex ``v``, the
offset within ``N(v)`` of the smallest neighbor larger than ``v``.  The
offset array is what lets the hardware (and our models) slice
``N(v)`` into "smaller than v" / "larger than v" halves in O(1) for
symmetry breaking and nested intersection.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import PatternError


class CSRGraph:
    """An undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64[n+1]`` vertex array; neighbor list of ``v`` is
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64[2m]`` edge array; each neighbor list strictly increasing.
    labels:
        Optional ``int64[n]`` vertex labels (used by FSM).
    name:
        Display name (dataset registry fills this in).
    """

    __slots__ = ("indptr", "indices", "offsets", "labels", "name",
                 "_edge_keys")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        name: str = "graph",
    ):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise PatternError("indptr must be a 1-D array of length n+1")
        if int(self.indptr[-1]) != self.indices.size:
            raise PatternError("indptr[-1] must equal len(indices)")
        self.labels = (
            None if labels is None else np.ascontiguousarray(labels, dtype=np.int64)
        )
        if self.labels is not None and self.labels.size != self.num_vertices:
            raise PatternError("labels must have one entry per vertex")
        self.name = name
        self.offsets = self._compute_offsets()
        self._edge_keys: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: Sequence[int] | np.ndarray | None = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build from an iterable of (u, v) pairs.

        Edges are symmetrized, deduplicated, and self-loops dropped, so
        any edge list yields a valid undirected simple graph.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = np.zeros((0, 2), dtype=np.int64)
        arr = arr.astype(np.int64, copy=False).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
            raise PatternError("edge endpoint out of range")
        arr = arr[arr[:, 0] != arr[:, 1]]  # drop self loops
        both = np.concatenate([arr, arr[:, ::-1]], axis=0)
        # Deduplicate directed pairs via a single sort on a packed key.
        packed = both[:, 0] * np.int64(num_vertices) + both[:, 1]
        packed = np.unique(packed)
        src = packed // num_vertices
        dst = packed % num_vertices
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        # packed sort already ordered dst within each src ascending
        return cls(indptr, dst, labels=labels, name=name)

    @classmethod
    def from_adjacency(
        cls, adj: dict[int, Iterable[int]], num_vertices: int | None = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build from an adjacency dict (symmetrized)."""
        edges = [(u, v) for u, nbrs in adj.items() for v in nbrs]
        if num_vertices is None:
            num_vertices = 1 + max(
                [u for u in adj] + [v for _, v in edges], default=-1
            )
        return cls.from_edges(num_vertices, edges, name=name)

    def _compute_offsets(self) -> np.ndarray:
        """CSR offset array (Section 3.2): for each vertex, the offset of
        the smallest neighbor strictly larger than the vertex itself."""
        n = self.num_vertices
        offsets = np.zeros(n, dtype=np.int64)
        for v in range(n):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            offsets[v] = np.searchsorted(self.indices[lo:hi], v, side="right")
        return offsets

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def avg_degree(self) -> float:
        n = self.num_vertices
        return float(self.indices.size / n) if n else 0.0

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.num_vertices else 0

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def edge_keys(self) -> np.ndarray:
        """``u * num_vertices + v`` for every edge ``(u, v)`` in CSR order
        (strictly increasing; built on first use).

        One ``searchsorted`` over it answers a whole batch of edge
        tests, or cuts a batch of edge lists at their bounds: the keys
        of ``N(u)`` below ``b`` end at ``searchsorted(u * num_vertices
        + b)``."""
        if self._edge_keys is None:
            n = self.num_vertices
            self._edge_keys = np.repeat(
                np.arange(n, dtype=np.int64) * n, self.degrees) + self.indices
        return self._edge_keys

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of ``v`` (zero-copy CSR slice)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbors_above(self, v: int) -> np.ndarray:
        """Neighbors strictly greater than ``v`` (via the offset array)."""
        start = self.indptr[v] + self.offsets[v]
        return self.indices[start : self.indptr[v + 1]]

    def neighbors_below(self, v: int) -> np.ndarray:
        """Neighbors strictly smaller than ``v`` (via the offset array)."""
        start = self.indptr[v]
        return self.indices[start : start + self.offsets[v]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def vertices(self) -> range:
        return range(self.num_vertices)

    def edges(self) -> Iterable[tuple[int, int]]:
        """Iterate undirected edges once, as (u, v) with u < v."""
        for u in self.vertices():
            for v in self.neighbors_above(u):
                yield u, int(v)

    def with_labels(self, labels: Sequence[int] | np.ndarray) -> "CSRGraph":
        """Return a copy of this graph carrying vertex labels."""
        return CSRGraph(self.indptr, self.indices, labels=labels, name=self.name)

    # -- interop -----------------------------------------------------------

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (testing/interop helper)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g, name: str = "graph") -> "CSRGraph":
        nodes = sorted(g.nodes())
        remap = {u: i for i, u in enumerate(nodes)}
        edges = [(remap[u], remap[v]) for u, v in g.edges()]
        return cls.from_edges(len(nodes), edges, name=name)

    def __repr__(self) -> str:
        return (
            f"CSRGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, avgD={self.avg_degree:.2f}, "
            f"maxD={self.max_degree})"
        )
