"""TripIngestor: matching, dedup, rejection accounting."""

import pytest

from repro.learning import IngestConfig, TripIngestor
from repro.trajectories import GpsTrajectory, TrajectoryStore
from repro.trajectories.types import GpsPoint

class TestIngestBasics:
    def test_matched_trips_pass_straight_through(self, world):
        _, _, matcher, generator = world
        ingestor = TripIngestor(matcher)
        trips = list(generator.generate(5))
        result = ingestor.ingest(trips)
        assert result.num_trips == 5
        assert result.num_rejected == 0
        assert ingestor.store.num_trajectories == 5
        # Pass-through keeps the exact traversals.
        stored = {trip.id: trip for trip in ingestor.store}
        for trip in trips:
            assert stored[trip.id].traversals == trip.traversals

    def test_gps_traces_are_matched_onto_the_network(self, world, gps_rng, as_gps):
        network, _, matcher, generator = world
        ingestor = TripIngestor(matcher, config=IngestConfig(dedup_cell_metres=0.0))
        trips = list(generator.generate(5))
        traces = [as_gps(network, trip, rng=gps_rng) for trip in trips]
        result = ingestor.ingest(traces)
        assert result.num_matched == 5
        assert result.num_deduped == 0
        assert ingestor.store.num_trajectories == 5
        edge_count = network.num_edges
        for trip in ingestor.store:
            assert all(0 <= t.edge_id < edge_count for t in trip.traversals)
            assert all(t.travel_time >= 1 for t in trip.traversals)

    def test_off_network_trace_is_counted_not_raised(self, world):
        _, _, matcher, _ = world
        ingestor = TripIngestor(matcher)
        far = GpsTrajectory(
            99, (GpsPoint(0.0, 1e6, 1e6), GpsPoint(60.0, 1.1e6, 1e6))
        )
        result = ingestor.ingest([far])
        assert result.num_rejected == 1
        assert result.num_matched == 0
        assert ingestor.store.num_trajectories == 0

    def test_counters_always_sum(self, world, gps_rng, as_gps):
        network, _, matcher, generator = world
        ingestor = TripIngestor(matcher)
        trips = list(generator.generate(6))
        batch = [as_gps(network, trip, rng=gps_rng) for trip in trips]
        batch.append(
            GpsTrajectory(7, (GpsPoint(0.0, 9e5, 9e5), GpsPoint(30.0, 9e5, 9.1e5)))
        )
        result = ingestor.ingest(batch)
        assert (
            result.num_matched + result.num_deduped + result.num_rejected
            == result.num_trips
            == 7
        )


class TestDedup:
    def test_repeated_od_pair_reuses_the_matched_route(self, world, gps_rng, as_gps):
        network, _, matcher, generator = world
        ingestor = TripIngestor(matcher, config=IngestConfig(dedup_cell_metres=50.0))
        trip = next(iter(generator.generate(1)))
        # Same trip re-emitted with fresh noise: same OD signature cell.
        first = as_gps(network, trip, rng=gps_rng, noise_std=2.0)
        second = as_gps(network, trip, rng=gps_rng, noise_std=2.0)
        result = ingestor.ingest([first, second])
        assert result.num_matched == 1
        assert result.num_deduped == 1
        # Both trips landed; the dedup shares the *route*, not the samples.
        assert ingestor.store.num_trajectories == 2
        routes = [tuple(t.edge_ids) for t in ingestor.store]
        assert routes[0] == routes[1]

    def test_deduped_trip_keeps_its_own_duration(self, world, gps_rng, as_gps):
        network, _, matcher, generator = world
        ingestor = TripIngestor(matcher)
        trip = next(iter(generator.generate(1)))
        base = as_gps(network, trip, rng=gps_rng, noise_std=1.0)
        # A much slower re-run of the same route: shift point times.
        slow_points = tuple(
            type(p)(p.t * 3.0, p.x, p.y) for p in base.points
        )
        slow = GpsTrajectory(base.id + 1000, slow_points)
        ingestor.ingest([base, slow])
        durations = sorted(t.total_travel_time for t in ingestor.store)
        assert durations[1] > durations[0]

    def test_dedup_disabled_matches_every_trace(self, world, gps_rng, as_gps):
        network, _, matcher, generator = world
        ingestor = TripIngestor(matcher, config=IngestConfig(dedup_cell_metres=0.0))
        trip = next(iter(generator.generate(1)))
        batch = [as_gps(network, trip, rng=gps_rng, noise_std=2.0) for _ in range(3)]
        result = ingestor.ingest(batch)
        assert result.num_matched == 3
        assert result.num_deduped == 0

    def test_cache_overflow_drops_oldest_half(self, world, gps_rng, as_gps):
        network, _, matcher, generator = world
        ingestor = TripIngestor(
            matcher, config=IngestConfig(max_cached_routes=4)
        )
        trips = list(generator.generate(6))
        for trip in trips:
            ingestor.ingest_one(as_gps(network, trip, rng=gps_rng))
        assert len(ingestor._route_cache) <= 4


class TestConfigValidation:
    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(dedup_cell_metres=-1.0)

    def test_zero_cache_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(max_cached_routes=0)

    def test_result_round_trip(self, world):
        import json

        from repro.learning import IngestResult

        result = IngestResult(
            num_trips=5, num_matched=3, num_deduped=1, num_rejected=1,
            elapsed_seconds=0.25,
        )
        document = json.loads(json.dumps(result.to_dict()))
        assert document["kind"] == "ingest_result"
        assert IngestResult.from_dict(document) == result

    def test_shared_store_accumulates(self, world):
        _, _, matcher, generator = world
        store = TrajectoryStore()
        first = TripIngestor(matcher, store)
        second = TripIngestor(matcher, store)
        trips = list(generator.generate(4))
        first.ingest(trips[:2])
        second.ingest(trips[2:])
        assert store.num_trajectories == 4
