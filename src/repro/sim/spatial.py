"""Spatial hash-grid index for range queries over node positions.

The channel answers "who can hear whom" queries constantly — every
routing view refresh, every routing ground-truth check, every
``in_range`` guard on a transmission.  A brute-force scan is O(n) per
node (O(n²) per snapshot); the :class:`SpatialGrid` buckets nodes into
square cells of side ``radio_range`` so a range query only inspects the
3x3 cell block around the querier, which contains every node within
``radio_range`` by construction (two points closer than one cell side
can differ by at most one cell index per axis).

The grid is *exact*, not approximate: cell membership only prunes
candidates, the caller still distance-filters them.  Updates are
incremental — :meth:`move` is a no-op unless the node crossed a cell
boundary — which is what makes per-step mobility updates cheap.

Determinism note: query helpers return candidate ids in ascending
order, so sets built from them have the same insertion order as the
historical brute-force scans (which iterated node ids in order).  Set
iteration order in CPython can depend on insertion history; keeping it
identical means no consumer of these sets can tell the index, the
whole-graph pass and the brute-force scan apart.
"""

from __future__ import annotations

from math import floor
from typing import Any, Dict, List, Protocol, Sequence, Set, Tuple

Cell = Tuple[int, int]


class SupportsPosition(Protocol):
    """What a ``positions`` item must expose (structurally matches
    :class:`repro.sim.topology.Position` without importing it — topology
    imports this module, not the other way round)."""

    @property
    def x(self) -> float: ...

    @property
    def y(self) -> float: ...

    def distance_to(self, other: Any) -> float: ...


class SpatialGrid:
    """An exact hash-grid index over 2-D points with integer ids.

    ``cell_size`` must be at least the largest query radius that will be
    used (the channel uses ``radio_range``); :meth:`near` only scans the
    3x3 block around the query point.
    """

    __slots__ = ("cell_size", "_cells", "_cell_of")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = cell_size
        self._cells: Dict[Cell, Set[int]] = {}
        self._cell_of: Dict[int, Cell] = {}

    def __len__(self) -> int:
        return len(self._cell_of)

    def _cell(self, x: float, y: float) -> Cell:
        size = self.cell_size
        return (int(floor(x / size)), int(floor(y / size)))

    def insert(self, node_id: int, x: float, y: float) -> None:
        """Add (or re-add) a node at ``(x, y)``."""
        if node_id in self._cell_of:
            self.move(node_id, x, y)
            return
        cell = self._cell(x, y)
        self._cell_of[node_id] = cell
        bucket = self._cells.get(cell)
        if bucket is None:
            self._cells[cell] = {node_id}
        else:
            bucket.add(node_id)

    def move(self, node_id: int, x: float, y: float) -> bool:
        """Update a node's position; returns True iff it changed cell.

        The common mobility step stays inside one cell, making this a
        two-dict-lookup no-op.
        """
        new_cell = self._cell(x, y)
        old_cell = self._cell_of[node_id]
        if new_cell == old_cell:
            return False
        old_bucket = self._cells[old_cell]
        old_bucket.discard(node_id)
        if not old_bucket:
            del self._cells[old_cell]
        bucket = self._cells.get(new_cell)
        if bucket is None:
            self._cells[new_cell] = {node_id}
        else:
            bucket.add(node_id)
        self._cell_of[node_id] = new_cell
        return True

    def remove(self, node_id: int) -> None:
        """Drop a node from the index."""
        cell = self._cell_of.pop(node_id)
        bucket = self._cells[cell]
        bucket.discard(node_id)
        if not bucket:
            del self._cells[cell]

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

    def neighbor_graph(self, positions: Sequence[SupportsPosition], radius: float) -> Dict[int, Set[int]]:
        """Every node's :meth:`neighbors_within` set, built in one pass.

        Each unordered pair is distance-tested once, from its lower id,
        and the match is added to both sets.  The result is exactly what
        per-node queries return, set insertion order included:

        * the candidates are the same — :meth:`near` of the lower id,
          i.e. nodes whose cells differ by at most one on each axis.
          That rule is symmetric, so float rounding at a cell border
          cannot admit a pair from one side only;
        * the test is the same — ``distance_to`` is ``hypot`` of the
          coordinate differences, and IEEE subtraction is exactly
          antisymmetric, so both orientations agree bit for bit;
        * the order is the same — the outer loop ascends, so node ``j``
          first receives every lower id in ascending order (one per
          outer step before ``j``), then every higher id in ascending
          order (at its own step).
        """
        graph: Dict[int, Set[int]] = {node_id: set() for node_id in range(len(positions))}
        for node_id, mine in graph.items():
            position = positions[node_id]
            for other in self.near(position.x, position.y):
                if other > node_id and positions[other].distance_to(position) <= radius:
                    mine.add(other)
                    graph[other].add(node_id)
        return graph
