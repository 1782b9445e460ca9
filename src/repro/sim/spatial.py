"""Spatial hash-grid index for range queries over node positions.

No simulation path uses this index: every workload has at most a few
dozen nodes, and :func:`repro.sim.topology.connectivity_graph` builds
their graphs with a pair scan.  It stays because the end-to-end
benchmark's trace counts :meth:`SpatialGrid.neighbors_within` calls.

A brute-force scan is O(n) per node (O(n²) per graph); the
:class:`SpatialGrid` buckets nodes into square cells of side
``radio_range`` so a range query only inspects the 3x3 cell block
around the querier, which contains every node within ``radio_range`` by
construction (two points closer than one cell side can differ by at
most one cell index per axis).

The grid is *exact*, not approximate: cell membership only prunes
candidates, :meth:`SpatialGrid.neighbors_within` still distance-filters
them.  The index is built once per graph; nodes are never moved in it.

Determinism note: query helpers return candidate ids in ascending
order, so sets built from them have the same insertion order as the
historical brute-force scans (which iterated node ids in order).  Set
iteration order in CPython can depend on insertion history; keeping it
identical means no consumer of these sets can tell the index and the
brute-force scan apart.
"""

from __future__ import annotations

from math import floor
from typing import Any, Dict, List, Protocol, Sequence, Set, Tuple

Cell = Tuple[int, int]


class SupportsPosition(Protocol):
    """What a ``positions`` item must expose (structurally matches
    :class:`repro.sim.topology.Position` without importing it)."""

    @property
    def x(self) -> float: ...

    @property
    def y(self) -> float: ...

    def distance_to(self, other: Any) -> float: ...


class SpatialGrid:
    """An exact hash-grid index over 2-D points with integer ids.

    ``cell_size`` must be at least the largest query radius that will be
    used; :meth:`near` only scans the 3x3 block around the query point.
    """

    __slots__ = ("cell_size", "_cells")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = cell_size
        self._cells: Dict[Cell, Set[int]] = {}

    def _cell(self, x: float, y: float) -> Cell:
        size = self.cell_size
        return (int(floor(x / size)), int(floor(y / size)))

    def insert(self, node_id: int, x: float, y: float) -> None:
        """Add a node at ``(x, y)``; each id is inserted once."""
        cell = self._cell(x, y)
        bucket = self._cells.get(cell)
        if bucket is None:
            self._cells[cell] = {node_id}
        else:
            bucket.add(node_id)

    def near(self, x: float, y: float) -> List[int]:
        """Candidate node ids within one cell of ``(x, y)``, ascending.

        A superset of every node within ``cell_size`` of the point
        (including any node exactly *at* that distance); the caller
        applies the exact distance filter.
        """
        cells = self._cells
        cx, cy = self._cell(x, y)
        candidates: List[int] = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                bucket = cells.get((gx, gy))
                if bucket:
                    candidates.extend(bucket)
        candidates.sort()
        return candidates

    def neighbors_within(self, node_id: int, positions: Sequence[SupportsPosition], radius: float) -> Set[int]:
        """Exact neighbour set of ``node_id``: every other node whose
        position is within ``radius`` (inclusive).

        ``positions`` is indexed by node id and its items expose
        ``x``/``y``/``distance_to`` (:class:`repro.sim.topology.Position`);
        ``radius`` must not exceed ``cell_size``.  This is the single
        home of the determinism-critical construction: candidates are
        scanned in ascending id order and matches inserted in that
        order, reproducing the historical brute-force scan's set
        insertion sequence exactly (set iteration order — which
        downstream consumers rely on for bit-identical seeded runs —
        follows from it).
        """
        position = positions[node_id]
        result: Set[int] = set()
        for other in self.near(position.x, position.y):
            if other != node_id and positions[other].distance_to(position) <= radius:
                result.add(other)
        return result
