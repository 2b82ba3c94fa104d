"""CostPublisher: sequencing, fan-out, replay idempotence, validation."""

import json

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.histograms import DiscreteDistribution
from repro.learning import CostPublisher, PublishResult
from repro.service import CostUpdate, RoutingService, time_sliced_cost_tables
from repro.trajectories import CongestionModel

RESOLUTION = 5.0


def histogram_batch(edge_ids, mean_ticks=8):
    return {
        edge_id: DiscreteDistribution.from_samples(
            [mean_ticks - 1, mean_ticks, mean_ticks + 1]
        )
        for edge_id in edge_ids
    }


@pytest.fixture
def sliced_service(world):
    network, truth, _, _ = world
    tables = time_sliced_cost_tables(network, truth)
    return RoutingService.from_time_slices(network, tables)


class TestPublish:
    def test_publish_bumps_version_and_sequence(self, service):
        publisher = CostPublisher(service)
        before = service.cost_version()
        results = publisher.publish(histogram_batch([0, 1, 2]))
        assert len(results) == 1
        assert results[0].sequence == 1
        assert results[0].num_edges == 3
        assert results[0].cost_version == before + 1

    def test_sequences_are_globally_monotone_across_slices(self, sliced_service):
        publisher = CostPublisher(
            sliced_service, slice_names=tuple(sliced_service.slice_names)
        )
        results = publisher.publish(histogram_batch([0, 1]))
        sequences = [item.sequence for item in results]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        # A second batch continues the same feed counter.
        more = publisher.publish(histogram_batch([2]))
        assert min(item.sequence for item in more) > max(sequences)

    def test_replay_is_idempotent(self, service):
        """Re-applying the publisher's own updates must not double-bump —
        the PR 6 snapshot/restore replay contract."""
        publisher = CostPublisher(service)
        results = publisher.publish(histogram_batch([0, 1]))
        version_after = service.cost_version()
        replay = CostUpdate(
            costs=histogram_batch([0, 1]),
            slice_name=results[0].slice_name,
            source="learning",
            sequence=results[0].sequence,
        )
        assert service.apply_cost_update(replay) == version_after
        assert service.cost_version() == version_after

    def test_published_histograms_are_served(self, service, world):
        network = world[0]
        publisher = CostPublisher(service)
        batch = histogram_batch([0], mean_ticks=20)
        publisher.publish(batch)
        table = service.engine(service.default_slice).combiner.costs
        assert table.cost(network.edge(0)).allclose(batch[0])


class TestValidation:
    def test_unknown_slice_rejected_up_front(self, service):
        with pytest.raises(ValueError, match="unknown slices"):
            CostPublisher(service, slice_names=("no_such_slice",))

    def test_empty_batch_rejected(self, service):
        with pytest.raises(ValueError, match="at least one edge"):
            CostPublisher(service).publish({})

    def test_negative_start_sequence_rejected(self, service):
        with pytest.raises(ValueError):
            CostPublisher(service, start_sequence=-1)

    def test_start_sequence_resumes_past_a_snapshot(self, service):
        publisher = CostPublisher(service, start_sequence=41)
        results = publisher.publish(histogram_batch([0]))
        assert results[0].sequence == 41

    def test_result_round_trip(self):
        result = PublishResult(
            slice_name="peak",
            sequence=7,
            cost_version=3,
            num_edges=12,
            elapsed_seconds=0.002,
        )
        document = json.loads(json.dumps(result.to_dict()))
        assert document["kind"] == "publish_result"
        assert PublishResult.from_dict(document) == result


def test_world_fixture_builds_sliced_tables(world):
    """time_sliced_cost_tables + CongestionModel compose for the publisher
    fixture (guards the fixture itself against API drift)."""
    network, truth, _, _ = world
    assert isinstance(truth, CongestionModel)
    tables = time_sliced_cost_tables(network, truth)
    assert set(tables)
    for table in tables.values():
        assert isinstance(table, EdgeCostTable)


def test_default_service_combiner_is_convolution(service):
    assert isinstance(
        service.engine(service.default_slice).combiner, ConvolutionModel
    )
