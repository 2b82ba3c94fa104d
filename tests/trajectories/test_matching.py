"""Unit tests for GPS emission and HMM map matching."""

import numpy as np
import pytest

from repro.network import GridIndex, grid_network
from repro.trajectories import (
    CongestionModel,
    HmmMapMatcher,
    MatcherConfig,
    emit_gps,
)


@pytest.fixture(scope="module")
def world():
    net = grid_network(5, 5, spacing=300.0, seed=1)
    model = CongestionModel(net, seed=2)
    matcher = HmmMapMatcher(net, config=MatcherConfig(candidate_radius=80.0), resolution=5.0)
    return net, model, matcher


def is_path(edges):
    """True when consecutive edges share endpoints."""
    return all(a.target == b.source for a, b in zip(edges, edges[1:]))


def make_route(net, length, start_edge=0):
    route = [net.edges[start_edge]]
    while len(route) < length:
        options = [
            e for e in net.out_edges(route[-1].target) if e.target != route[-1].source
        ]
        route.append(options[0])
    return route


class TestEmitGps:
    def test_covers_duration(self, world):
        net, model, _ = world
        route = make_route(net, 4)
        rng = np.random.default_rng(0)
        times = model.sample_path_times(route, rng)
        trace = emit_gps(net, route, times, resolution=5.0, interval=10.0, rng=rng)
        expected = sum(times) * 5.0
        assert trace.points[-1].t == pytest.approx(expected, abs=10.0)

    def test_noise_bounded(self, world):
        net, model, _ = world
        route = make_route(net, 3)
        rng = np.random.default_rng(1)
        times = model.sample_path_times(route, rng)
        trace = emit_gps(
            net, route, times, resolution=5.0, interval=5.0, noise_std=1.0, rng=rng
        )
        # Every fix should be near the route's bounding box.
        xs = [net.vertex(v).x for e in route for v in (e.source, e.target)]
        ys = [net.vertex(v).y for e in route for v in (e.source, e.target)]
        for p in trace.points:
            assert min(xs) - 10 <= p.x <= max(xs) + 10
            assert min(ys) - 10 <= p.y <= max(ys) + 10

    def test_length_mismatch_raises(self, world):
        net, _, _ = world
        with pytest.raises(ValueError):
            emit_gps(net, [net.edges[0]], [1, 2], resolution=5.0)

    def test_bad_interval_raises(self, world):
        net, _, _ = world
        with pytest.raises(ValueError):
            emit_gps(net, [net.edges[0]], [2], resolution=5.0, interval=0.0)


class TestMatcherConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatcherConfig(candidate_radius=0)
        with pytest.raises(ValueError):
            MatcherConfig(max_candidates=0)
        with pytest.raises(ValueError):
            MatcherConfig(gps_noise_std=0)
        with pytest.raises(ValueError):
            MatcherConfig(beta=0)


class TestMatching:
    def test_recovers_route_low_noise(self, world):
        net, model, matcher = world
        rng = np.random.default_rng(3)
        route = make_route(net, 5)
        times = model.sample_path_times(route, rng)
        trace = emit_gps(
            net, route, times, resolution=5.0, interval=5.0, noise_std=3.0, rng=rng
        )
        matched = matcher.match(trace)
        matched_ids = list(matched.edge_ids)
        true_ids = [e.id for e in route]
        # The matched sequence must cover most of the true route in order.
        common = [eid for eid in matched_ids if eid in true_ids]
        assert len(common) >= len(true_ids) - 1

    def test_output_is_connected_path(self, world):
        net, model, matcher = world
        rng = np.random.default_rng(4)
        route = make_route(net, 6, start_edge=2)
        times = model.sample_path_times(route, rng)
        trace = emit_gps(
            net, route, times, resolution=5.0, interval=8.0, noise_std=5.0, rng=rng
        )
        matched = matcher.match(trace)
        edges = [net.edge(eid) for eid in matched.edge_ids]
        assert is_path(edges)

    def test_travel_time_allocation_sums_to_duration(self, world):
        net, model, matcher = world
        rng = np.random.default_rng(5)
        route = make_route(net, 4)
        times = model.sample_path_times(route, rng)
        trace = emit_gps(
            net, route, times, resolution=5.0, interval=5.0, noise_std=2.0, rng=rng
        )
        matched = matcher.match(trace)
        total_seconds = matched.total_travel_time * 5.0
        assert total_seconds == pytest.approx(trace.duration, rel=0.35)

    def test_off_network_trace_raises(self, world):
        from repro.trajectories import GpsPoint, GpsTrajectory

        _, _, matcher = world
        trace = GpsTrajectory(
            9, (GpsPoint(0.0, 1e7, 1e7), GpsPoint(10.0, 1e7, 1e7))
        )
        with pytest.raises(ValueError):
            matcher.match(trace)

    def test_custom_index_accepted(self, world):
        net, _, _ = world
        matcher = HmmMapMatcher(net, index=GridIndex(net, cell_size=400.0))
        assert matcher.index is not None


class TestDegenerateInputs:
    """Regression tests for trace shapes the feed will eventually produce.

    An ingestion front cannot choose its inputs: one-fix traces (a trip
    that lost its GPS lock immediately), traces recorded entirely off the
    mapped network, and traces with long mid-trip gaps all arrive sooner
    or later.  Each must either match sensibly or raise ``ValueError`` —
    never crash, hang or return a disconnected path.
    """

    def test_single_point_trajectory_matches_one_edge(self, world):
        from repro.trajectories import GpsPoint, GpsTrajectory

        net, _, matcher = world
        edge = net.edges[0]
        source, target = net.vertex(edge.source), net.vertex(edge.target)
        mid_x, mid_y = (source.x + target.x) / 2, (source.y + target.y) / 2
        trace = GpsTrajectory(41, (GpsPoint(0.0, mid_x, mid_y),))
        matched = matcher.match(trace)
        # One fix carries no movement evidence: the match is the single
        # best-emission edge with the minimum one-tick traversal.
        assert len(matched.traversals) == 1
        assert matched.traversals[0].travel_time >= 1

    def test_all_candidates_beyond_radius_raises(self, world):
        from repro.trajectories import GpsPoint, GpsTrajectory

        net, _, matcher = world
        # Several fixes, every one farther from the network than the
        # candidate radius — the matcher must refuse, not guess.
        far = 1e6
        points = tuple(
            GpsPoint(10.0 * i, far + 50.0 * i, far) for i in range(5)
        )
        trace = GpsTrajectory(42, points)
        with pytest.raises(ValueError, match="no candidates"):
            matcher.match(trace)

    def test_stitch_bridges_a_mid_trace_gap(self, world):
        from repro.trajectories import GpsPoint, GpsTrajectory

        net, _, matcher = world
        # Fixes only near the start and end of a multi-edge corridor: the
        # Viterbi output skips the middle edges and ``_stitch`` must insert
        # the shortest-path bridge so the result is a connected path.
        route = make_route(net, 5)
        first = net.vertex(route[0].source)
        last = net.vertex(route[-1].target)
        trace = GpsTrajectory(
            43,
            (
                GpsPoint(0.0, first.x + 3.0, first.y),
                GpsPoint(10.0, first.x + 40.0, first.y + 2.0),
                GpsPoint(300.0, last.x - 40.0, last.y - 2.0),
                GpsPoint(310.0, last.x - 3.0, last.y),
            ),
        )
        matched = matcher.match(trace)
        edges = [net.edge(eid) for eid in matched.edge_ids]
        assert len(edges) >= 2
        assert is_path(edges)
        assert edges[0].source == route[0].source or edges[0].id == route[0].id

    def test_stitch_bridges_explicitly(self, world):
        net, _, matcher = world
        # Two edges with no shared endpoint: the stitcher must return a
        # connected path covering both.
        route = make_route(net, 4)
        stitched = matcher._stitch([route[0], route[-1]])
        assert is_path(stitched)
        assert stitched[0].id == route[0].id
        assert stitched[-1].id == route[-1].id
        assert len(stitched) >= 3
