"""The learned combiners answer a label's whole out-edge block at once.

A feature row is ``[pre half | edge half]``.  ``combine_edges(pre, edges)``
builds each edge's half once per cost cell, sets the pre half beside them
and asks both learned stages for the whole rows at once (``decide_rows``,
``predict_distributions``), which re-anchor the estimated rows in one pass.
Its contract is that batching is invisible: row ``i``'s answer is bit for
bit what the same combination asked alone gives (``should_estimate`` and
``predict_distribution`` on ``extract``'s row), so every route, exploration
order and counter is what the per-edge formula produces.  Plain ``X @ W``
on a block breaks this (BLAS picks kernels that round differently), which
is why every product is a stacked one-row product; a red run here on a new
machine names the BLAS that broke it (CI prints ``numpy.show_config()``).
The stacked products round differently from the matrix path training
uses, and ``TestRowsAgainstTheMatrixPath`` bounds by how much.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    CostCombiner,
    DependenceClassifier,
    HybridModel,
    HybridStats,
    path_cost,
)
from repro.histograms import from_delay_profile
from repro.ml import LogisticRegression
from repro.routing import RoutingEngine, RoutingQuery


def fused_estimate(estimator, row, pre, cost):
    """The estimator's formula on one whole row through the matrix path
    training uses, then the re-anchor."""
    profile = estimator.predict_profiles(np.atleast_2d(row))[0]
    width = estimator.bin_width(pre, cost)
    if width > 1:
        profile = np.repeat(profile / width, width)
    return from_delay_profile(profile, pre.min_value + cost.min_value)


def reference_combine(hybrid, pre, edge):
    """The per-edge Hybrid formula on one whole row: ``(distribution, estimated?)``."""
    cost = hybrid.costs.cost(edge)
    row = hybrid.features.extract(pre, edge, cost)
    if hybrid.classifier.should_estimate(row):
        return hybrid.estimator.predict_distribution(row, pre, cost), True
    return pre.convolve(cost), False


def assert_same_distribution(mine, reference, where=""):
    assert mine.offset == reference.offset, where
    assert np.array_equal(mine.probs, reference.probs), where


def pre_path_into(network, vertex, rng, max_edges=8):
    """A random walk of 1..``max_edges`` edges that ends at ``vertex``."""
    walk = [network.in_edges(vertex)[int(rng.integers(len(network.in_edges(vertex))))]]
    for _ in range(int(rng.integers(0, max_edges))):
        options = network.in_edges(walk[0].source)
        walk.insert(0, options[int(rng.integers(len(options)))])
    return walk


@pytest.fixture(scope="module")
def world(trained_world):
    network, _, _, trained = trained_world
    return network, trained


@pytest.fixture(scope="module")
def pres(world):
    """Pre-path distributions of both kinds the search builds: convolved and
    hybrid-recursed, from short and long walks."""
    network, trained = world
    rng = np.random.default_rng(11)
    folds = [trained.convolution_model(), trained.hybrid_model()]
    out = []
    for i in range(8):
        vertex = int(rng.integers(network.num_vertices))
        out.append(path_cost(folds[i % 2], pre_path_into(network, vertex, rng)))
    return out


def random_blocks(world, pres):
    """``(pre, costs, X)`` blocks of every size 1..16 over random edges."""
    network, trained = world
    rng = np.random.default_rng(5)
    extractor = trained.features
    for pre in pres:
        for k in range(1, 17):
            edges = [network.edges[int(i)] for i in rng.integers(network.num_edges, size=k)]
            costs = [trained.costs.cost(edge) for edge in edges]
            X = np.vstack([extractor.extract(pre, e, c) for e, c in zip(edges, costs)])
            yield pre, costs, X


# ----------------------------------------------------------------------
# (a) Row invariance of the block inference
# ----------------------------------------------------------------------


class TestRowInvariance:
    @pytest.fixture(scope="class")
    def classifiers(self, world, pres):
        _, trained = world
        rows = np.vstack([X for _, _, X in random_blocks(world, pres[:1])])[:4]
        constant = DependenceClassifier().fit(rows, np.ones(4, dtype=int))
        return {"logistic": trained.classifier, "constant": constant}

    @pytest.mark.parametrize("backend", ["logistic", "constant"])
    def test_decide_rows_equal_one_row_calls(self, world, pres, classifiers, backend):
        classifier = classifiers[backend]
        threshold = classifier.config.threshold
        blocks = 0
        for _, _, X in random_blocks(world, pres):
            decided = classifier.decide_rows(X)
            one_row = [classifier.should_estimate(row) for row in X]
            assert decided.tolist() == one_row, f"{backend}, k={len(X)}"
            alone = np.concatenate([classifier.estimation_probability(row) for row in X])
            assert np.array_equal(decided, alone >= threshold), f"{backend}, k={len(X)}"
            blocks += 1
        assert blocks == 16 * len(pres)
        if backend == "constant":  # no feature is read: any width, any value
            assert classifier.decide_rows(np.full((3, 2), np.nan)).tolist() == [True] * 3

    def test_predict_distributions_rows_equal_one_row_calls(self, world, pres):
        _, trained = world
        estimator = trained.estimator
        for pre, costs, X in random_blocks(world, pres):
            block = estimator.predict_distributions(X, pre, costs)
            assert len(block) == len(X)
            for i, (row, cost) in enumerate(zip(X, costs)):
                where = f"k={len(X)}, row {i}"
                alone = estimator.predict_distribution(row, pre, cost)
                assert_same_distribution(block[i], alone, where)
                assert_same_distribution(block[i], fused_estimate(estimator, row, pre, cost), where)


class TestRowsAgainstTheMatrixPath:
    """The stacked one-row products round differently from the one matrix
    product per layer that training uses, so logits and pre-activations may
    move in their last bits, and a decision only where its probability sits
    on the threshold.  An ulp here is one of the product's absolute scale
    ``sum_j |w_j * s_j| + |b|``, the scale a dot product's rounding error is
    bounded by (a result that cancels to near zero has far finer ulps of its
    own than its rounding ever had).  Reordering a 45- or 64-term dot product
    moves it by a few such ulps: 1.6 on the logit over these blocks, held at
    the 4 the seam split had, and 5, 5 and 4 on the MLP's three layers, each
    bounded at 6 (the split bounded only the first, at 4)."""

    @staticmethod
    def ulps(rows, scaled, weights, bias):
        fused = scaled @ weights + bias
        scale = np.abs(scaled) @ np.abs(weights) + np.abs(bias)
        return float((np.abs(rows - fused) / np.spacing(scale)).max())

    def test_rows_stay_within_a_few_ulp_of_the_matrix_path(self, world, pres):
        _, trained = world
        classifier, estimator = trained.classifier, trained.estimator
        model, network = classifier._model, estimator._mlp.network
        threshold = classifier.config.threshold
        worst, rows, flips, moved = [0.0] * (1 + len(network.weights)), 0, 0, 0.0
        for _, _, X in random_blocks(world, pres):
            scaled = classifier._scaler.transform(X)
            assert np.array_equal(scaled @ model.coef_ + model.intercept_,
                                  model.decision_function(scaled))  # the matrix path
            logits = (scaled[:, None, :] @ model.coef_)[:, 0] + model.intercept_
            decided = classifier.decide_rows(X)
            assert np.array_equal(decided, LogisticRegression._sigmoid(logits) >= threshold)
            worst[0] = max(worst[0], self.ulps(logits, scaled, model.coef_, model.intercept_))
            flips += int((decided != classifier.decide_batch(X)).sum())
            h = estimator._scaler.transform(X)
            for layer, (W, b) in enumerate(zip(network.weights, network.biases)):
                ulps = self.ulps((h[:, None, :] @ W)[:, 0] + b, h, W, b)
                worst[1 + layer] = max(worst[1 + layer], ulps)
                h = h @ W + b
                h = network._act(h) if layer < len(network.weights) - 1 else h
            profiles = estimator._mlp.predict_rows(estimator._scaler.transform(X))
            moved = max(moved, float(np.abs(profiles - estimator.predict_profiles(X)).max()))
            rows += len(X)
        print(f"\n{rows} rows: logit <= {worst[0]:g} ulp, MLP layers <= {worst[1:]} ulp, "
              f"profiles moved <= {moved:.3g}, {flips} decisions flipped")
        assert worst[0] <= 4, "logit"
        for layer, ulps in enumerate(worst[1:]):
            assert ulps <= 6, f"MLP layer {layer}"
        assert flips == 0 and moved <= 1e-14


# ----------------------------------------------------------------------
# (b) Parity with the per-edge formula, every vertex's out-edge set
# ----------------------------------------------------------------------


class TestBlockParity:
    def test_hybrid_block_equals_per_edge_formula_at_every_vertex(self, world):
        network, trained = world
        hybrid = trained.hybrid_model()
        rng = np.random.default_rng(3)
        expected = [0, 0]  # convolutions, estimations
        for vertex in sorted(network.vertex_ids()):
            for _ in range(2):
                pre = path_cost(hybrid, pre_path_into(network, vertex, rng))
                hybrid.stats = HybridStats()
                edges = network.out_edges(vertex)
                block = hybrid.combine_edges(pre, edges)
                assert len(block) == len(edges)
                estimated = 0
                for edge, mine in zip(edges, block):
                    reference, chose = reference_combine(hybrid, pre, edge)
                    assert_same_distribution(mine, reference, f"vertex {vertex}, edge {edge.id}")
                    estimated += chose
                assert (hybrid.stats.convolutions, hybrid.stats.estimations) == (
                    len(edges) - estimated, estimated,
                )
                expected[0] += len(edges) - estimated
                expected[1] += estimated
        assert min(expected) > 0, "both branches must be exercised"

    def test_estimation_model_block_equals_per_edge_formula(self, world, pres):
        network, trained = world
        model = trained.estimation_model()
        for vertex, pre in zip(sorted(network.vertex_ids()), pres * 7):
            edges = network.out_edges(vertex)
            for edge, mine in zip(edges, model.combine_edges(pre, edges)):
                cost = trained.costs.cost(edge)
                row = trained.features.extract(pre, edge, cost)
                reference = trained.estimator.predict_distribution(row, pre, cost)
                assert_same_distribution(mine, reference, f"vertex {vertex}, edge {edge.id}")

    @pytest.mark.parametrize("model", ["hybrid", "estimation"])
    def test_combine_is_the_one_edge_block(self, world, pres, model):
        network, trained = world
        combiner = getattr(trained, f"{model}_model")()
        edge = network.out_edges(3)[0]
        assert_same_distribution(
            combiner.combine(pres[0], edge), combiner.combine_edges(pres[0], [edge])[0]
        )

    @pytest.mark.parametrize("model", ["hybrid", "estimation"])
    def test_an_empty_block_touches_nothing(self, world, pres, model):
        _, trained = world
        combiner = getattr(trained, f"{model}_model")()
        untouchable = type("Untouchable", (), {})()  # any attribute read raises
        combiner.features = combiner.estimator = combiner.classifier = untouchable
        combiner.costs = untouchable
        assert combiner.combine_edges(pres[0], []) == []
        if model == "hybrid":
            assert (combiner.stats.convolutions, combiner.stats.estimations) == (0, 0)


# ----------------------------------------------------------------------
# (c) Whole searches: the block changes nothing a caller can see
# ----------------------------------------------------------------------


class PerEdgeHybrid(HybridModel):
    """The base-class per-edge loop over one-edge blocks."""

    combine_edges = CostCombiner.combine_edges

    def combine(self, pre, edge):
        return HybridModel.combine_edges(self, pre, [edge])[0]


def without_runtime(document):
    if isinstance(document, dict):
        return {k: without_runtime(v) for k, v in document.items() if k != "runtime_seconds"}
    if isinstance(document, (list, tuple)):
        return [without_runtime(v) for v in document]
    return document


class TestSearchParity:
    def queries(self, network, trained, count):
        engine = RoutingEngine(network, trained.convolution_model())
        rng = np.random.default_rng(17)
        out = []
        while len(out) < count:
            source, target = (int(v) for v in rng.integers(network.num_vertices, size=2))
            if source == target:
                continue
            floor = engine.heuristic_for(target).remaining_ticks(source)
            out.append(RoutingQuery(source, target, int(floor * rng.uniform(1.1, 1.5)) + 2))
        return out

    @pytest.mark.parametrize("strategy", ["pbr", "multi_budget", "kbest"])
    def test_routes_stats_and_decisions_match_the_per_edge_loop(self, world, strategy):
        network, trained = world
        block = trained.hybrid_model()
        per_edge = PerEdgeHybrid(
            trained.costs, trained.estimator, trained.classifier, trained.features
        )
        engines = [RoutingEngine(network, block), RoutingEngine(network, per_edge)]
        extra = {"pbr": {}, "kbest": {"k": 3}}.get(strategy)
        generated = 0
        for query in self.queries(network, trained, 200):
            kwargs = extra if extra is not None else {
                "budgets": sorted({max(1, query.budget - d) for d in (4, 2, 0)})
            }
            mine, reference = (
                engine.route(query, strategy=strategy, **kwargs) for engine in engines
            )
            assert without_runtime(mine.to_dict()) == without_runtime(reference.to_dict()), query
            generated += mine.stats.labels_generated
        assert (block.stats.convolutions, block.stats.estimations) == (
            per_edge.stats.convolutions, per_edge.stats.estimations,
        )
        assert block.stats.estimations > 0 and generated > 0

    def test_a_tiny_time_limit_still_answers(self, world):
        network, trained = world
        engine = RoutingEngine(network, trained.hybrid_model())
        result = engine.route(RoutingQuery(0, 48, 60), time_limit_seconds=1e-9)
        assert result.stats.completed is False
        path = list(result.path)
        assert result.found and all(a.target == b.source for a, b in zip(path, path[1:]))


# ----------------------------------------------------------------------
# HybridStats under threads
# ----------------------------------------------------------------------


class TestHybridStatsUnderThreads:
    def test_racing_blocks_lose_no_decision(self, world, pres):
        network, trained = world
        hybrid = trained.hybrid_model()
        edges = network.out_edges(24)
        hybrid.combine_edges(pres[1], edges)
        per_block = (hybrid.stats.convolutions, hybrid.stats.estimations)
        assert sum(per_block) == len(edges)
        hybrid.stats = HybridStats()
        threads, blocks = 4, 500
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait()
            for _ in range(blocks):
                hybrid.combine_edges(pres[1], edges)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
                assert not thread.is_alive(), "a racing thread never finished"
        finally:
            sys.setswitchinterval(interval)
        assert (hybrid.stats.convolutions, hybrid.stats.estimations) == (
            threads * blocks * per_block[0], threads * blocks * per_block[1],
        )

    def test_reads_never_see_half_an_update(self):
        """``status`` reads ``estimation_fraction`` while workers combine: a
        read between ``add``'s two increments would see a torn pair."""
        stats, torn, done = HybridStats(), [], threading.Event()
        stats.add(1, 1)

        def write():
            for _ in range(20_000):
                stats.add(1, 1)

        def read():
            while not done.is_set():
                fraction = stats.estimation_fraction
                if fraction != 0.5:
                    torn.append(fraction)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            reader = threading.Thread(target=read)
            writers = [threading.Thread(target=write) for _ in range(2)]
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(60)
            done.set()
            reader.join(60)
            assert not reader.is_alive() and not any(t.is_alive() for t in writers)
        finally:
            sys.setswitchinterval(interval)
        assert torn == []
        assert (stats.convolutions, stats.estimations) == (40_001, 40_001)

    def test_stats_pickle_without_their_lock(self, world):
        _, trained = world
        hybrid = trained.hybrid_model()
        hybrid.stats.add(3, 2)
        twin = pickle.loads(pickle.dumps(hybrid.stats))
        assert (twin.convolutions, twin.estimations, twin.estimation_fraction) == (3, 2, 0.4)
        twin.add(1, 0)
        assert (twin.convolutions, twin.estimations) == (4, 2)
