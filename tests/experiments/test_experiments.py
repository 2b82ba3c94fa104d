"""Unit tests for the experiment harness (config, tables, workloads)."""

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.experiments import (
    PRESETS,
    DistanceBand,
    WorkloadGenerator,
    format_percent,
    format_seconds,
    get_preset,
    render_table,
)
from repro.network import grid_network
from repro.network.paths import reverse_dijkstra
from repro.trajectories import CongestionModel


class TestConfig:
    def test_all_presets_valid(self):
        for name, preset in PRESETS.items():
            assert preset.name == name
            assert preset.queries_per_band >= 1

    def test_get_preset_unknown(self):
        with pytest.raises(KeyError):
            get_preset("gigantic")

    def test_band_label_and_contains(self):
        band = DistanceBand(1.0, 5.0)
        assert band.label == "[1, 5)"
        assert band.contains(1.0)
        assert band.contains(4.999)
        assert not band.contains(5.0)
        assert not band.contains(0.5)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            DistanceBand(5.0, 1.0)
        with pytest.raises(ValueError):
            DistanceBand(-1.0, 2.0)

    def test_paper_bands_in_default_presets(self):
        preset = get_preset("medium")
        labels = [band.label for band in preset.bands]
        assert labels == ["[0, 1)", "[1, 5)", "[5, 10)"]


class TestTables:
    def test_render_alignment(self):
        out = render_table(["A", "Bee"], [["x", "1"], ["yy", "22"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Bee" in lines[1]
        assert len(lines) == 5

    def test_render_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["A"], [["x", "y"]])

    def test_formatters(self):
        assert format_percent(0.534) == "53%"
        assert format_percent(0.534, digits=1) == "53.4%"
        assert format_seconds(3.37017) == "3.37"


class TestWorkloads:
    @pytest.fixture(scope="class")
    def world(self):
        net = grid_network(8, 8, spacing=250.0, seed=1)
        model = CongestionModel(net, seed=2)
        costs = EdgeCostTable(net, resolution=5.0)
        for edge in net.edges:
            costs.set_cost(edge.id, model.edge_marginal(edge))
        return net, costs

    def test_band_distances_respected(self, world):
        net, costs = world
        generator = WorkloadGenerator(net, costs, seed=0)
        band = DistanceBand(0.5, 1.5)
        queries = generator.generate_band(band, 5)
        assert len(queries) == 5
        for banded in queries:
            assert band.contains(banded.network_distance_km)

    def test_budget_exceeds_optimistic_minimum(self, world):
        net, costs = world
        generator = WorkloadGenerator(net, costs, budget_factor=1.4, seed=1)
        for banded in generator.generate_band(DistanceBand(0.3, 1.5), 5):
            assert banded.query.budget >= banded.optimistic_ticks

    @pytest.mark.parametrize(
        "seed, sampled",
        [
            (1, [(30, 7, 13, 10), (48, 53, 20, 15), (2, 11, 6, 4), (52, 40, 17, 13)]),
            (2, [(53, 38, 11, 8), (6, 21, 10, 7), (26, 22, 19, 14), (28, 35, 6, 4)]),
        ],
    )
    def test_sampling_is_pinned_and_its_floor_is_the_reference_search(
        self, world, seed, sampled
    ):
        """(source, target, budget, optimistic) as recorded while the generator
        still ran its own ``reverse_dijkstra``: reading the one bound producer
        instead may not move a draw (the benchmark's plans hang off it)."""
        net, costs = world
        queries = WorkloadGenerator(net, costs, seed=seed).generate_band(
            DistanceBand(0.3, 1.5), 4
        )
        assert [
            (q.query.source, q.query.target, q.query.budget, q.optimistic_ticks)
            for q in queries
        ] == sampled
        for q in queries:
            reference = reverse_dijkstra(
                net, q.query.target, weight=lambda e: float(costs.min_ticks(e))
            )
            assert q.optimistic_ticks == reference[q.query.source]

    def test_deterministic_given_seed(self, world):
        net, costs = world
        band = DistanceBand(0.3, 1.5)
        a = WorkloadGenerator(net, costs, seed=5).generate_band(band, 4)
        b = WorkloadGenerator(net, costs, seed=5).generate_band(band, 4)
        assert [q.query for q in a] == [q.query for q in b]

    def test_impossible_band_raises(self, world):
        net, costs = world
        generator = WorkloadGenerator(net, costs, seed=0)
        with pytest.raises(RuntimeError):
            generator.generate_band(DistanceBand(50.0, 60.0), 2)

    def test_bad_budget_factor(self, world):
        net, costs = world
        with pytest.raises(ValueError):
            WorkloadGenerator(net, costs, budget_factor=1.0)


class TestEngineConsistency:
    """Experiment drivers reject a supplied engine that disagrees with
    the explicit network/combiner arguments (the table must describe the
    configuration that was actually measured)."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.routing import RoutingEngine

        net = grid_network(4, 4, spacing=250.0, seed=1)
        model = CongestionModel(net, seed=2)
        costs = EdgeCostTable(net, resolution=5.0)
        for edge in net.edges:
            costs.set_cost(edge.id, model.edge_marginal(edge))
        combiner = ConvolutionModel(costs)
        generator = WorkloadGenerator(net, costs, seed=0)
        band = DistanceBand(0.2, 1.2)
        workload = {band: generator.generate_band(band, 2)}
        return net, combiner, workload, RoutingEngine(net, combiner)

    def test_efficiency_accepts_matching_engine(self, world):
        from repro.experiments import run_efficiency_experiment

        net, combiner, workload, engine = world
        table = run_efficiency_experiment(net, combiner, workload, engine=engine)
        assert len(table.rows) == 1

    def test_efficiency_rejects_mismatched_combiner(self, world):
        from repro.experiments import run_efficiency_experiment

        net, combiner, workload, engine = world
        other = ConvolutionModel(combiner.costs)
        with pytest.raises(ValueError, match="disagrees"):
            run_efficiency_experiment(net, other, workload, engine=engine)

    def test_efficiency_rejects_mismatched_pruning(self, world):
        from repro.experiments import run_efficiency_experiment
        from repro.routing import PruningConfig

        net, combiner, workload, engine = world
        with pytest.raises(ValueError, match="disagrees"):
            run_efficiency_experiment(
                net,
                combiner,
                workload,
                pruning=PruningConfig(use_dominance=False),
                engine=engine,
            )


class TestBudgetSweep:
    @pytest.fixture(scope="class")
    def world(self):
        net = grid_network(4, 4, spacing=250.0, seed=1)
        model = CongestionModel(net, seed=2)
        costs = EdgeCostTable(net, resolution=5.0)
        for edge in net.edges:
            costs.set_cost(edge.id, model.edge_marginal(edge))
        generator = WorkloadGenerator(net, costs, seed=0)
        bands = (DistanceBand(0.2, 0.6), DistanceBand(0.6, 1.2))
        workload = {band: generator.generate_band(band, 3) for band in bands}
        return net, ConvolutionModel(costs), workload

    def test_probability_monotone_in_budget_factor(self, world):
        from repro.experiments import run_budget_sweep_experiment

        net, combiner, workload = world
        factors = (1.1, 1.3, 1.6, 2.0)
        table = run_budget_sweep_experiment(net, combiner, workload, factors=factors)
        assert [row.band for row in table.rows] == list(workload)
        for row in table.rows:
            assert row.factors == factors
            assert row.num_queries == 3
            # More budget never hurts: monotone within every band's row.
            probs = row.mean_probabilities
            assert all(b >= a - 1e-9 for a, b in zip(probs, probs[1:]))
        assert "Arrival probability vs budget factor" in table.render()

    def test_factors_must_exceed_one(self, world):
        from repro.experiments import run_budget_sweep_experiment

        net, combiner, workload = world
        with pytest.raises(ValueError, match="exceed 1"):
            run_budget_sweep_experiment(net, combiner, workload, factors=(1.0, 1.5))
