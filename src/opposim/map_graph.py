"""Road network substrate: map parsing/synthesis, POI placement, shortest paths.

Maps are undirected planar graphs in meters. They can be read from WKT
LINESTRING text files (the format used by common DTN simulation toolchains,
so real city extracts drop in) or synthesized as grid street networks for
desk-scale experiments. Points of interest (houses, offices, evening spots,
bus stops) are anchored to graph vertices inside named map segments.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rng import Stream

SNAP_DISTANCE = 1e-3  # meters; merges shared linestring junctions


class MapError(ValueError):
    """Raised for malformed map input or impossible map requests."""


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

class RoadGraph:
    """Undirected road graph with vertex coordinates in meters.

    Immutable after construction (the shortest-path cache is the only
    internal mutable state); safe to share read-only across runs.
    """

    def __init__(self, coords: Sequence[Tuple[float, float]],
                 edges: Iterable[Tuple[int, int]]):
        self.coords: List[Tuple[float, float]] = [(float(x), float(y)) for x, y in coords]
        n = len(self.coords)
        self.adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self.edges: List[Tuple[int, int, float]] = []
        seen = set()
        for a, b in edges:
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            length = math.dist(self.coords[a], self.coords[b])
            self.edges.append((key[0], key[1], length))
            self.adj[a].append((b, length))
            self.adj[b].append((a, length))
        for nbrs in self.adj:
            nbrs.sort()
        if self.coords:
            self.bounds = (max(x for x, _ in self.coords),
                           max(y for _, y in self.coords))
        else:
            self.bounds = (0.0, 0.0)
        self._path_cache: Dict[Tuple[int, int], Optional["Path"]] = {}
        self._components: Optional[List[int]] = None

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    def component_labels(self) -> List[int]:
        """Connected-component label per vertex (computed once, cached)."""
        if self._components is None:
            labels = [-1] * len(self.coords)
            comp = 0
            for start in range(len(self.coords)):
                if labels[start] >= 0:
                    continue
                stack = [start]
                labels[start] = comp
                while stack:
                    v = stack.pop()
                    for w, _ in self.adj[v]:
                        if labels[w] < 0:
                            labels[w] = comp
                            stack.append(w)
                comp += 1
            self._components = labels
        return self._components

    def largest_component(self) -> List[int]:
        """Vertex ids of the largest connected component, ascending."""
        labels = self.component_labels()
        if not labels:
            return []
        counts: Dict[int, int] = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        best = min(sorted(counts), key=lambda lab: -counts[lab])
        return [v for v, lab in enumerate(labels) if lab == best]

    def is_connected(self) -> bool:
        labels = self.component_labels()
        return len(set(labels)) <= 1


@dataclass(frozen=True)
class Path:
    vertices: Tuple[int, ...]
    length: float


def shortest_path(graph: RoadGraph, src: int, dst: int) -> Optional[Path]:
    """Minimum-length path between two vertices, or None if unreachable.

    Ties on total length break toward the lexicographically smallest
    vertex-id sequence, so results are stable across runs.
    """
    n = graph.num_vertices
    if not (0 <= src < n and 0 <= dst < n):
        raise MapError(f"unknown vertex in path query: {src} -> {dst}")
    cached = graph._path_cache.get((src, dst))
    if cached is not None or (src, dst) in graph._path_cache:
        return cached
    if src == dst:
        result = Path((src,), 0.0)
        graph._path_cache[(src, dst)] = result
        return result
    # Dijkstra with (distance, path-so-far) keys: the heap order delivers the
    # lexicographically smallest sequence among equal-length alternatives.
    best: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
    heap: List[Tuple[float, Tuple[int, ...]]] = [(0.0, (src,))]
    result = None
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in best and (best[v][0] < dist - 1e-12 or best[v][1] <= path):
            continue
        best[v] = (dist, path)
        if v == dst:
            result = Path(path, dist)
            break
        for w, length in graph.adj[v]:
            nd = dist + length
            if w in best and best[w][0] < nd - 1e-12:
                continue
            heapq.heappush(heap, (nd, path + (w,)))
    graph._path_cache[(src, dst)] = result
    return result


# ---------------------------------------------------------------------------
# WKT parsing / serialization
# ---------------------------------------------------------------------------

_LINESTRING_RE = re.compile(r"^\s*LINESTRING\s*\((.*)\)\s*$", re.IGNORECASE)


def parse_map(text: str) -> RoadGraph:
    """Parse WKT LINESTRING records (one per line) into a RoadGraph.

    Consecutive coordinate pairs of each linestring become edges. Vertices
    closer than the snap distance (1e-3 m) merge into one. Coordinates are
    shifted so the minimum corner sits at the origin.
    """
    raw_lines: List[List[Tuple[float, float]]] = []
    any_record = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        m = _LINESTRING_RE.match(line)
        if not m:
            raise MapError(f"line {lineno}: not a LINESTRING record")
        pts = []
        for tok in m.group(1).split(","):
            parts = tok.split()
            if len(parts) != 2:
                raise MapError(f"line {lineno}: bad coordinate pair {tok!r}")
            try:
                pts.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise MapError(f"line {lineno}: bad coordinate pair {tok!r}") from None
        if len(pts) < 2:
            raise MapError(f"line {lineno}: linestring needs at least 2 points")
        raw_lines.append(pts)
        any_record = True
    if not any_record:
        raise MapError("empty map input")

    minx = min(x for pts in raw_lines for x, _ in pts)
    miny = min(y for pts in raw_lines for _, y in pts)

    # Snap-merge vertices via a coarse grid of snap-sized buckets.
    coords: List[Tuple[float, float]] = []
    buckets: Dict[Tuple[int, int], List[int]] = {}

    def vertex_of(x: float, y: float) -> int:
        cx, cy = int(x // SNAP_DISTANCE), int(y // SNAP_DISTANCE)
        for bx in (cx - 1, cx, cx + 1):
            for by in (cy - 1, cy, cy + 1):
                for vid in buckets.get((bx, by), ()):
                    px, py = coords[vid]
                    if (px - x) ** 2 + (py - y) ** 2 <= SNAP_DISTANCE ** 2:
                        return vid
        coords.append((x, y))
        buckets.setdefault((cx, cy), []).append(len(coords) - 1)
        return len(coords) - 1

    edges = []
    for pts in raw_lines:
        ids = [vertex_of(x - minx, y - miny) for x, y in pts]
        for a, b in zip(ids, ids[1:]):
            if a != b:
                edges.append((a, b))
    return RoadGraph(coords, edges)


def serialize_map(graph: RoadGraph) -> str:
    """Write a graph back as one WKT LINESTRING per edge."""
    lines = []
    for a, b, _ in graph.edges:
        ax, ay = graph.coords[a]
        bx, by = graph.coords[b]
        lines.append(f"LINESTRING ({ax:.6f} {ay:.6f}, {bx:.6f} {by:.6f})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic maps
# ---------------------------------------------------------------------------

def synth_map(width: float, height: float, grid_step: float, seed: int,
              edge_removal: float = 0.15) -> RoadGraph:
    """Grid street network with random edge thinning, deterministic per seed.

    Every vertex of the intact grid survives and the graph stays connected:
    a removal that would disconnect anything is skipped.
    """
    if width <= 0 or height <= 0 or grid_step <= 0:
        raise MapError("width, height and grid_step must be positive")
    cols = int(width // grid_step) + 1
    rows = int(height // grid_step) + 1
    if cols * rows < 2:
        raise MapError("parameters yield fewer than 2 vertices")
    coords = [(i * grid_step, j * grid_step) for j in range(rows) for i in range(cols)]

    def vid(i, j):
        return j * cols + i

    edges = []
    for j in range(rows):
        for i in range(cols):
            if i + 1 < cols:
                edges.append((vid(i, j), vid(i + 1, j)))
            if j + 1 < rows:
                edges.append((vid(i, j), vid(i, j + 1)))

    rng = Stream([int(seed), 0x6D61])
    keep = {e: True for e in edges}
    adj: Dict[int, set] = {v: set() for v in range(len(coords))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def connected_without(a, b) -> bool:
        # The graph is connected before each removal, so without (a, b) it
        # stays connected exactly when b is still reachable from a: every
        # vertex reaches a or b without the edge. The search stops there.
        adj[a].discard(b)
        adj[b].discard(a)
        seen = {a}
        stack = [a]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w == b:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        adj[a].add(b)
        adj[b].add(a)
        return False

    order = rng.permutation(len(edges))
    marks = rng.random(len(edges))
    for idx in order:
        if marks[idx] < edge_removal:
            a, b = edges[idx]
            if connected_without(a, b):
                keep[(a, b)] = False
    return RoadGraph(coords, [e for e in edges if keep[e]])


# ---------------------------------------------------------------------------
# Segments and points of interest
# ---------------------------------------------------------------------------

class PoiKind(Enum):
    HOUSE = "house"
    OFFICE = "office"
    EVENING_SPOT = "evening_spot"
    BUS_STOP = "bus_stop"


@dataclass(frozen=True)
class PointOfInterest:
    poi_id: int
    kind: PoiKind
    anchor: int                 # vertex id
    extent: float               # side of the square activity area, 0 for points
    segment: str                # main segment name the anchor falls in
    position: Tuple[float, float]


Rect = Tuple[float, float, float, float]  # x0, y0, x1, y1


@dataclass(frozen=True)
class SegmentLayout:
    """Three vertical map strips A (middle), B (left), C (right).

    B/A and A/C overlap, producing the bridge regions D = A∩B and E = A∩C.
    """
    rects: Dict[str, Rect] = field(default_factory=dict)

    @staticmethod
    def default(bounds: Tuple[float, float], overlap: float = 0.2) -> "SegmentLayout":
        w, h = bounds
        third = w / 3.0
        half_band = overlap * third / 2.0
        rects = {
            "B": (0.0, 0.0, third + half_band, h),
            "A": (third - half_band, 0.0, 2 * third + half_band, h),
            "C": (2 * third - half_band, 0.0, w, h),
        }
        return SegmentLayout(rects)

    def overlap_rect(self, name: str) -> Rect:
        pair = {"D": ("A", "B"), "E": ("A", "C")}[name]
        (ax0, ay0, ax1, ay1) = self.rects[pair[0]]
        (bx0, by0, bx1, by1) = self.rects[pair[1]]
        return (max(ax0, bx0), max(ay0, by0), min(ax1, bx1), min(ay1, by1))

    def contains(self, segment: str, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.rects[segment]
        return x0 <= x <= x1 and y0 <= y <= y1

    def group_segments(self, group: str) -> Tuple[str, ...]:
        """Main segments whose union hosts a group's locations."""
        return {"A": ("A",), "B": ("B",), "C": ("C",),
                "D": ("A", "B"), "E": ("A", "C")}[group]

    def validate(self) -> None:
        for name in ("D", "E"):
            x0, y0, x1, y1 = self.overlap_rect(name)
            if x1 <= x0 or y1 <= y0:
                raise MapError(f"segment overlap {name} has no area")


def place_pois(graph: RoadGraph, layout: SegmentLayout,
               counts: Dict[PoiKind, int], seed: int,
               office_area: float = 10000.0) -> List[PointOfInterest]:
    """Place POIs on graph vertices, deterministic per seed.

    Each kind's count is split across the three main segments round-robin;
    anchors are sampled (with replacement) from the largest connected
    component's vertices inside the segment rectangle.
    """
    core = graph.largest_component()
    candidates: Dict[str, List[int]] = {}
    for name in ("A", "B", "C"):
        cand = [v for v in core if layout.contains(name, *graph.coords[v])]
        if not cand:
            raise MapError(f"segment {name} has no candidate vertices")
        candidates[name] = cand

    rng = Stream([int(seed), 0x504F49])
    pois: List[PointOfInterest] = []
    office_side = math.sqrt(office_area)
    segments = ("A", "B", "C")
    for kind in (PoiKind.HOUSE, PoiKind.OFFICE, PoiKind.EVENING_SPOT, PoiKind.BUS_STOP):
        count = int(counts.get(kind, 0))
        if count < 0:
            raise MapError(f"negative count for {kind.value}")
        for k in range(count):
            seg = segments[k % 3]
            cand = candidates[seg]
            anchor = cand[int(rng.integers(len(cand)))]
            extent = office_side if kind is PoiKind.OFFICE else 0.0
            pois.append(PointOfInterest(len(pois), kind, anchor, extent,
                                        seg, graph.coords[anchor]))
    return pois


def validate_graph(graph: RoadGraph, pois: Sequence[PointOfInterest]) -> None:
    """Check structural invariants: edge lengths, bounds, POI connectivity."""
    w, h = graph.bounds
    for x, y in graph.coords:
        if not (0 <= x <= w + 1e-9 and 0 <= y <= h + 1e-9):
            raise MapError("vertex outside bounds")
    for a, b, length in graph.edges:
        d = math.dist(graph.coords[a], graph.coords[b])
        if abs(d - length) > 1e-6 * max(1.0, d):
            raise MapError(f"edge ({a},{b}) length mismatch")
    labels = graph.component_labels()
    poi_components = {labels[p.anchor] for p in pois}
    if len(poi_components) > 1:
        raise MapError("points of interest span multiple components")
