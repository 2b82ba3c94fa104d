"""LearningPipeline: orchestration, cadence, stats, wire integration."""

import json

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.learning import (
    EstimationConfig,
    GateConfig,
    IngestConfig,
    LearningPipeline,
    LearningStats,
    PipelineConfig,
)
from repro.service import CostUpdate, RoutingService, time_sliced_cost_tables
from repro.trajectories import MatchedTrajectory, TripGenerator


def make_pipeline(service, matcher, **overrides):
    defaults = dict(
        min_trips_per_update=20,
        estimation=EstimationConfig(min_samples=3, max_iterations=4),
        gate=GateConfig(folds=3),
        ingest=IngestConfig(dedup_cell_metres=50.0),
    )
    defaults.update(overrides)
    return LearningPipeline(service, matcher, config=PipelineConfig(**defaults))


def accepted_cycle(world, service):
    """One cycle over a corpus the free-flow tables lose to: accepted."""
    network, truth, matcher, _ = world
    pipeline = make_pipeline(service, matcher)
    # A fresh generator: the shared one's position depends on test order.
    pipeline.ingest(list(TripGenerator(network, truth, seed=7).generate(60)))
    update = pipeline.run_update()
    assert update.accepted
    return pipeline, update


def free_flow_update(network, table, sequence):
    """A numbered feed event resetting every edge to its free-flow cost."""
    return CostUpdate(
        {edge.id: table.free_flow_cost(edge) for edge in network.edges}, sequence=sequence
    )


class TestCadence:
    def test_small_batch_only_ingests(self, world, service):
        _, _, matcher, generator = world
        pipeline = make_pipeline(service, matcher)
        result, update = pipeline.process(list(generator.generate(5)))
        assert result.num_trips == 5
        assert update is None
        assert pipeline.stats().estimations_run == 0

    def test_update_fires_once_threshold_reached(self, world, service):
        _, _, matcher, generator = world
        pipeline = make_pipeline(service, matcher)
        trips = list(generator.generate(25))
        _, update = pipeline.process(trips[:12])
        assert update is None
        _, update = pipeline.process(trips[12:])
        assert update is not None
        # Cadence counter reset: the next small batch does not re-fire.
        _, again = pipeline.process(list(generator.generate(3)))
        assert again is None

    def test_run_update_works_on_demand(self, world, service):
        _, _, matcher, generator = world
        pipeline = make_pipeline(service, matcher)
        pipeline.ingest(list(generator.generate(24)))
        update = pipeline.run_update()
        assert update.gate.num_trips == 24
        assert update.estimation.num_trips == 24

    def test_accepted_update_publishes_fallbacks_for_unobserved_edges(
        self, world, service
    ):
        """An accepted publish covers the whole network: estimated edges
        plus pooled fallbacks for every edge the corpus never observed."""
        network = world[0]
        pipeline, update = accepted_cycle(world, service)
        assert len(update.estimation.estimates) < network.num_edges
        assert len(update.published) == network.num_edges
        assert pipeline.stats().edges_published == network.num_edges

    def test_gate_refusal_publishes_nothing(self, world, service):
        network, _, matcher, generator = world
        version_before = service.cost_version()
        pipeline = make_pipeline(service, matcher)
        # No drift: every traversal takes exactly the free-flow ticks the
        # service already serves, so no candidate can beat its tables.
        table = service.engine().combiner.costs
        pipeline.ingest([
            MatchedTrajectory.from_times(
                trip.id,
                list(trip.edge_ids),
                [table.free_flow_cost(network.edge(e)).min_value for e in trip.edge_ids],
            )
            for trip in generator.generate(24)
        ])
        update = pipeline.run_update()
        assert not update.accepted
        assert update.published is None
        assert service.cost_version() == version_before
        stats = pipeline.stats()
        assert stats.gate_failures == 1
        assert stats.updates_published == 0


class TestPublish:
    """An accepted batch is one update on the default slice, numbered one
    past the service's feed position."""

    def test_published_histograms_are_served(self, world, service):
        network = world[0]
        version = service.cost_version()
        _, update = accepted_cycle(world, service)
        assert update.published.sequence == 1
        assert update.published.source == "learning"
        assert service.cost_version() == version + 1
        table = service.engine().combiner.costs
        for edge_id, histogram in update.published.costs.items():
            assert table.cost(network.edge(edge_id)) == histogram

    def test_replaying_a_published_update_is_skipped(self, world, service):
        _, update = accepted_cycle(world, service)
        version = service.cost_version()
        assert service.apply_cost_update(update.published) == version
        assert service.cost_version() == version

    def test_sequences_stay_monotone_across_cycles(self, world, service):
        network = world[0]
        pipeline, first = accepted_cycle(world, service)
        # A feed event in between puts the free-flow tables back, numbered 7.
        service.apply_cost_update(free_flow_update(network, service.engine().combiner.costs, 7))
        second = pipeline.run_update()
        assert (first.published.sequence, second.published.sequence) == (1, 8)
        assert pipeline.stats().last_sequence == service.feed_position == 8

    def test_publishes_past_a_restored_feed_position(self, world, service):
        """The blue/green successor: restored at feed position 4, its next
        accepted batch is sequence 5 and applies instead of being skipped."""
        network = world[0]
        donor = RoutingService(network, ConvolutionModel(EdgeCostTable(network, resolution=5.0)))
        for sequence in range(1, 5):
            donor.apply_cost_update(free_flow_update(network, donor.engine().combiner.costs, sequence))
        service.restore(json.loads(json.dumps(donor.snapshot())))
        assert service.feed_position == 4
        version = service.cost_version()
        pipeline, update = accepted_cycle(world, service)
        assert update.published.sequence == 5
        assert service.cost_version() == version + 1
        assert service.feed_position == 5
        stats = pipeline.stats()
        assert (stats.updates_published, stats.last_sequence) == (1, 5)

    def test_time_sliced_service_learns_on_the_default_slice_only(self, world):
        network, truth, matcher, _ = world
        tables = time_sliced_cost_tables(network, truth)
        # The default slice starts at free flow, which the corpus beats.
        tables[next(iter(tables))] = EdgeCostTable(network, resolution=5.0)
        service = RoutingService.from_time_slices(network, tables)
        pipeline = make_pipeline(service, matcher)
        pipeline.ingest(list(TripGenerator(network, truth, seed=7).generate(60)))
        default = service.engine().combiner.costs
        other = next(name for name in service.slice_names if name != service.default_slice)
        priors = pipeline._priors()
        assert priors == {e: default.cost(network.edge(e)) for e in priors}
        assert priors != {e: service.engine(other).combiner.costs.cost(network.edge(e)) for e in priors}
        versions = {name: service.cost_version(name) for name in service.slice_names}
        update = pipeline.run_update()
        assert update.accepted and update.published.slice_name == service.default_slice
        assert {name: service.cost_version(name) for name in service.slice_names} == {
            **versions, service.default_slice: versions[service.default_slice] + 1
        }


class TestStats:
    def test_counters_accumulate_across_cycles(self, world, service):
        _, _, matcher, generator = world
        pipeline = make_pipeline(service, matcher)
        trips = list(generator.generate(44))
        pipeline.process(trips[:22])
        pipeline.process(trips[22:])
        stats = pipeline.stats()
        assert stats.trips_ingested == 44
        assert stats.batches_ingested == 2
        assert stats.estimations_run == 2
        assert stats.gate_passes + stats.gate_failures == 2
        if stats.updates_published:
            assert stats.last_sequence is not None
            assert stats.publish_seconds > 0.0
            assert stats.mean_publish_seconds > 0.0
        assert stats.ingest_seconds > 0.0
        assert stats.estimation_seconds > 0.0

    def test_stats_snapshot_is_detached(self, world, service):
        _, _, matcher, generator = world
        pipeline = make_pipeline(service, matcher)
        first = pipeline.stats()
        pipeline.ingest(list(generator.generate(4)))
        assert first.trips_ingested == 0
        assert pipeline.stats().trips_ingested == 4

    def test_stats_round_trip_through_json(self, world, service):
        _, _, matcher, generator = world
        pipeline = make_pipeline(service, matcher)
        pipeline.process(list(generator.generate(22)))
        stats = pipeline.stats()
        document = json.loads(json.dumps(stats.to_dict()))
        assert document["kind"] == "learning_stats"
        assert document == stats.to_dict()

    def test_derived_rates(self):
        stats = LearningStats(
            trips_ingested=10,
            trips_deduped=4,
            gate_passes=3,
            gate_failures=1,
            updates_published=2,
            publish_seconds=0.5,
        )
        assert stats.dedup_rate == pytest.approx(0.4)
        assert stats.gate_pass_rate == pytest.approx(0.75)
        assert stats.mean_publish_seconds == pytest.approx(0.25)
        empty = LearningStats()
        assert empty.dedup_rate == 0.0
        assert empty.gate_pass_rate == 0.0
        assert empty.mean_publish_seconds == 0.0


class TestWireIntegration:
    def test_pipeline_attaches_to_the_service(self, world, service):
        _, _, matcher, generator = world
        pipeline = make_pipeline(service, matcher)
        pipeline.ingest(list(generator.generate(6)))
        response = service.handle_request({"op": "learning_stats"})
        assert response["ok"]
        assert response["kind"] == "learning_stats"
        assert response == {"ok": True, **pipeline.stats().to_dict()}

    def test_unattached_service_answers_with_an_error_document(self, service):
        response = service.handle_request({"op": "learning_stats"})
        assert response == {
            "ok": False,
            "error": "LookupError: no learning pipeline attached to this service",
            "error_kind": "internal",
        }

    def test_attach_learning_rejects_non_callables(self, service):
        with pytest.raises(TypeError):
            service.attach_learning("not-a-callable")

    def test_unknown_op_message_names_learning_stats(self, service):
        response = service.handle_request({"op": "nonsense"})
        assert not response["ok"]
        assert "learning_stats" in response["error"]


class TestConfigValidation:
    def test_zero_cadence_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(min_trips_per_update=0)
