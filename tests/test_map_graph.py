import itertools
import math

import numpy as np
import pytest

from opposim.map_graph import (
    MapError, PoiKind, RoadGraph, SegmentLayout, parse_map, place_pois,
    serialize_map, shortest_path, synth_map, validate_graph,
)
from opposim.rng import Stream
from opposim.scenario import PRESET_NAMES, load_scenario


def enumerate_paths(adj, src, dst, path=None, seen=None):
    """Brute-force oracle: yield every simple path as (vertices, length)."""
    path = path or [src]
    seen = seen or {src}
    if src == dst:
        yield tuple(path), sum(adj[a][b] for a, b in zip(path, path[1:]))
        return
    for nxt in sorted(adj[src]):
        if nxt not in seen:
            yield from enumerate_paths(adj, nxt, dst, path + [nxt], seen | {nxt})


class TestParseMap:
    def test_single_line_pythagorean(self):
        g = parse_map("LINESTRING (0 0, 3 4)")
        assert g.num_vertices == 2
        assert len(g.edges) == 1
        assert g.edges[0][2] == pytest.approx(5.0)

    def test_shared_endpoint_merges(self):
        text = "LINESTRING (0 0, 3 4)\nLINESTRING (3 4, 6 4)\n"
        g = parse_map(text)
        # Oracle: the multiset of coordinates must collapse the duplicate.
        raw = [(0, 0), (3, 4), (3, 4), (6, 4)]
        assert g.num_vertices == len(set(raw)) == 3
        assert len(g.edges) == 2

    def test_single_point_record_rejected(self):
        with pytest.raises(MapError, match="line 1"):
            parse_map("LINESTRING (0 0)")

    def test_empty_input_rejected(self):
        with pytest.raises(MapError):
            parse_map("")
        with pytest.raises(MapError):
            parse_map("\n  \n")

    def test_malformed_record_names_line(self):
        with pytest.raises(MapError, match="line 2"):
            parse_map("LINESTRING (0 0, 1 1)\nLINESTRUNG (0 0, 1 1)")

    def test_bad_coordinate_pair(self):
        with pytest.raises(MapError, match="line 1"):
            parse_map("LINESTRING (0 0 0, 1 1)")

    def test_snap_merges_near_vertices(self):
        g = parse_map("LINESTRING (0 0, 3 4)\nLINESTRING (3.0005 4.0005, 6 4)")
        assert g.num_vertices == 3

    def test_coordinates_normalized_to_origin(self):
        g = parse_map("LINESTRING (100 200, 103 204)")
        assert min(x for x, _ in g.coords) == 0.0
        assert min(y for _, y in g.coords) == 0.0

    def test_roundtrip_up_to_reordering(self):
        g = synth_map(200, 200, 50, seed=3)
        g2 = parse_map(serialize_map(g))
        def canon(graph):
            pts = [tuple(round(c, 5) for c in xy) for xy in graph.coords]
            es = sorted(tuple(sorted((pts[a], pts[b]))) for a, b, _ in graph.edges)
            return sorted(pts), es
        assert canon(g) == canon(g2)


class TestSynthMap:
    def test_small_grid_vertex_count(self):
        # Oracle: intact 3x3 grid before deletions; deletions keep vertices.
        g = synth_map(100, 100, 50, seed=1)
        assert g.num_vertices == 9
        assert g.is_connected()

    def test_paper_scale_dimensions(self):
        g = synth_map(1750, 2125, 125, seed=7)
        assert g.is_connected()
        w, h = g.bounds
        assert w <= 1750 and h <= 2125
        validate_graph(g, [])

    def test_deterministic_for_seed(self):
        a = synth_map(400, 300, 50, seed=11)
        b = synth_map(400, 300, 50, seed=11)
        assert a.coords == b.coords
        assert a.edges == b.edges

    def test_different_seed_differs(self):
        a = synth_map(600, 600, 50, seed=1)
        b = synth_map(600, 600, 50, seed=2)
        assert a.edges != b.edges

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(MapError):
            synth_map(10, 10, 50, seed=1)   # single vertex
        with pytest.raises(MapError):
            synth_map(0, 100, 50, seed=1)


def full_search_synth_map(width, height, grid_step, seed, edge_removal):
    """Reference for synth_map: the same grid and draws, but each candidate
    removal searches the whole graph and keeps the edge unless every
    vertex is still reached."""
    cols = int(width // grid_step) + 1
    rows = int(height // grid_step) + 1
    coords = [(i * grid_step, j * grid_step)
              for j in range(rows) for i in range(cols)]
    edges = []
    for j in range(rows):
        for i in range(cols):
            if i + 1 < cols:
                edges.append((j * cols + i, j * cols + i + 1))
            if j + 1 < rows:
                edges.append((j * cols + i, (j + 1) * cols + i))
    rng = Stream([int(seed), 0x6D61])
    adj = {v: set() for v in range(len(coords))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    removed = set()
    order = rng.permutation(len(edges))
    marks = rng.random(len(edges))
    for idx in order:
        if marks[idx] >= edge_removal:
            continue
        a, b = edges[idx]
        adj[a].discard(b)
        adj[b].discard(a)
        seen, stack = {a}, [a]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(coords):
            removed.add((a, b))
        else:
            adj[a].add(b)
            adj[b].add(a)
    return RoadGraph(coords, [e for e in edges if e not in removed])


class TestSynthMapEarlyStop:
    """synth_map's connectivity check stops once it reaches the removed
    edge's far end; the maps equal those of a search over the whole graph."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_maps_equal_full_search(self, preset):
        m = load_scenario(preset).map
        args = (m.width, m.height, m.grid_step, m.map_seed, m.edge_removal)
        assert (serialize_map(synth_map(*args))
                == serialize_map(full_search_synth_map(*args)))

    @pytest.mark.parametrize("shape", [
        (500.0, 500.0, 50.0, 0.15),
        (1750.0, 2125.0, 125.0, 0.15),
        (300.0, 100.0, 25.0, 0.5),       # many removals, many refused
        (100.0, 600.0, 50.0, 0.9),
    ])
    def test_seeds_equal_full_search(self, shape):
        width, height, step, removal = shape
        for seed in range(6):
            args = (width, height, step, seed, removal)
            assert (serialize_map(synth_map(*args))
                    == serialize_map(full_search_synth_map(*args))), seed


class TestShortestPath:
    def test_two_hop_beats_long_alternative(self):
        # A-B(3), B-C(4) versus the detour A-D(5), D-C(6): expect [A, B, C].
        g = RoadGraph([(0, 0), (3, 0), (3, 4), (-3, 4)],
                      [(0, 1), (1, 2), (0, 3), (3, 2)])
        adj = {v: {} for v in range(4)}
        for a, b, ln in g.edges:
            adj[a][b] = ln
            adj[b][a] = ln
        oracle = min(enumerate_paths(adj, 0, 2), key=lambda pl: (pl[1], pl[0]))
        p = shortest_path(g, 0, 2)
        assert p.vertices == oracle[0] == (0, 1, 2)
        assert p.length == pytest.approx(oracle[1]) == pytest.approx(7.0)

    def test_identity_path(self):
        g = synth_map(100, 100, 50, seed=1)
        p = shortest_path(g, 4, 4)
        assert p.vertices == (4,) and p.length == 0.0

    def test_disconnected_pair_returns_none(self):
        g = RoadGraph([(0, 0), (1, 0), (5, 5), (6, 5)], [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 2) is None

    def test_unknown_vertex_rejected(self):
        g = synth_map(100, 100, 50, seed=1)
        with pytest.raises(MapError):
            shortest_path(g, 0, 99)

    def test_lexicographic_tie_break(self):
        # Square: two equal-length routes 0-1-3 and 0-2-3; expect (0, 1, 3).
        g = RoadGraph([(0, 0), (1, 0), (0, 1), (1, 1)],
                      [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path(g, 0, 3).vertices == (0, 1, 3)

    def test_never_longer_than_sampled_simple_paths(self):
        rng = np.random.default_rng(5)
        g = synth_map(300, 300, 50, seed=9)
        adj = {v: {} for v in range(g.num_vertices)}
        for a, b, ln in g.edges:
            adj[a][b] = ln
            adj[b][a] = ln
        for _ in range(25):
            src, dst = rng.choice(g.num_vertices, size=2, replace=False)
            best = shortest_path(g, int(src), int(dst))
            paths = list(itertools.islice(
                enumerate_paths(adj, int(src), int(dst)), 200))
            assert paths, "grid is connected"
            assert all(best.length <= ln + 1e-9 for _, ln in paths)


class TestPois:
    def layout_and_graph(self):
        g = synth_map(1750, 2125, 125, seed=7)
        layout = SegmentLayout.default(g.bounds)
        layout.validate()
        return g, layout

    def test_paper_counts_small(self):
        g, layout = self.layout_and_graph()
        pois = place_pois(g, layout, {PoiKind.HOUSE: 203, PoiKind.OFFICE: 50,
                                      PoiKind.EVENING_SPOT: 10}, seed=1)
        assert len(pois) == 263
        validate_graph(g, pois)

    def test_paper_counts_large(self):
        g, layout = self.layout_and_graph()
        pois = place_pois(g, layout, {PoiKind.HOUSE: 203, PoiKind.OFFICE: 450,
                                      PoiKind.EVENING_SPOT: 90}, seed=1)
        assert len(pois) == 743

    def test_zero_counts(self):
        g, layout = self.layout_and_graph()
        assert place_pois(g, layout, {}, seed=1) == []

    def test_anchor_inside_assigned_segment(self):
        g, layout = self.layout_and_graph()
        pois = place_pois(g, layout, {PoiKind.HOUSE: 60, PoiKind.OFFICE: 9,
                                      PoiKind.EVENING_SPOT: 6,
                                      PoiKind.BUS_STOP: 12}, seed=2)
        for p in pois:
            assert layout.contains(p.segment, *p.position)

    def test_office_extent_matches_area(self):
        g, layout = self.layout_and_graph()
        pois = place_pois(g, layout, {PoiKind.OFFICE: 3}, seed=2,
                          office_area=10000.0)
        for p in pois:
            assert p.extent ** 2 == pytest.approx(10000.0)

    def test_bit_identical_across_calls(self):
        g, layout = self.layout_and_graph()
        counts = {PoiKind.HOUSE: 30, PoiKind.OFFICE: 6, PoiKind.EVENING_SPOT: 3}
        a = place_pois(g, layout, counts, seed=77)
        b = place_pois(g, layout, counts, seed=77)
        assert a == b

    def test_empty_segment_rejected(self):
        # A map squashed onto the left edge leaves segments A and C empty.
        g = parse_map("LINESTRING (0 0, 0 10, 0 20)")
        layout = SegmentLayout.default((1000.0, 20.0))
        with pytest.raises(MapError, match="segment"):
            place_pois(g, layout, {PoiKind.HOUSE: 1}, seed=1)


class TestSegments:
    def test_overlaps_have_positive_area(self):
        layout = SegmentLayout.default((900.0, 600.0))
        for name in ("D", "E"):
            x0, y0, x1, y1 = layout.overlap_rect(name)
            assert (x1 - x0) > 0 and (y1 - y0) > 0

    def test_main_segments_cover_map(self):
        layout = SegmentLayout.default((900.0, 600.0))
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = rng.uniform(0, 900), rng.uniform(0, 600)
            assert any(layout.contains(s, x, y) for s in ("A", "B", "C"))

    def test_group_regions(self):
        layout = SegmentLayout.default((900.0, 600.0))
        assert layout.group_segments("D") == ("A", "B")
        assert layout.group_segments("E") == ("A", "C")
