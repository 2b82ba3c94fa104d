"""The learned combiners answer a label's whole out-edge block at once.

A feature row is ``[pre half | edge half]`` and both learned stages open
with a linear map behind an elementwise scaler, so ``combine_edges(pre,
edges)`` splits them at the seam: the edge halves' shares of the classifier
logit and of the MLP's first layer are built once per cost cell, and a
block adds its pre half's shares to them, runs the deeper MLP layers on the
estimated rows and re-anchors those in one pass.  Its contract is that
batching is invisible: row ``i``'s answer is bit for bit what the same
combination asked alone gives, so every route, exploration order and
counter is what the per-edge split formula produces.  Plain ``X @ W`` on a
block breaks this (BLAS picks kernels that round differently), which is
why every product is one-row or stacked one-row; a red run here on a new
machine names the BLAS that broke it (CI prints ``numpy.show_config()``).
The split rounds differently from the fused matrix path training uses, and
``TestSplitAgainstTheMatrixPath`` bounds by how much.
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
from repro.ml.losses import softmax
from repro.routing import RoutingEngine, RoutingQuery


def split_products(scaler, weights, head, tail):
    """The scaled halves of one row times their rows of ``weights``: one
    one-row product per half, ``(head's, tail's)``."""
    seam = head.size
    return tuple(
        ((half - scaler.mean_[cols]) / scaler.scale_[cols])[None] @ weights[cols]
        for half, cols in ((head, slice(0, seam)), (tail, slice(seam, None)))
    )


def anchored(estimator, profile, pre, cost):
    """The estimator's re-anchor of one predicted profile."""
    width = estimator.bin_width(pre, cost)
    if width > 1:
        profile = np.repeat(profile / width, width)
    return from_delay_profile(profile, pre.min_value + cost.min_value)


def fused_estimate(estimator, row, pre, cost):
    """The estimator's one-row formula on a whole row: one fused MLP pass."""
    return anchored(estimator, estimator.predict_profiles(np.atleast_2d(row))[0], pre, cost)


def reference_estimate(estimator, head, tail, pre, cost):
    """The estimator's one-row split formula: the first layer as the sum of
    the halves' products (the bias riding with the head's), the deeper
    layers on that one row, then the re-anchor."""
    network = estimator._mlp.network
    lead, trail = split_products(estimator._scaler, network.weights[0], head, tail)
    z = (lead + network.biases[0]) + trail
    for W, b in zip(network.weights[1:], network.biases[1:]):
        z = network._act(z) @ W + b
    return anchored(estimator, softmax(z)[0], pre, cost)


def reference_probability(classifier, head, tail):
    """``P(use estimation)`` by the one-row split formula: the logit as the
    sum of the halves' products (the intercept riding with the head's).  A
    constant has no logit and reads the whole row."""
    model = classifier._model
    if classifier._constant_label is not None:
        return float(classifier.estimation_probability(np.concatenate([head, tail]))[0])
    lead, trail = split_products(classifier._scaler, model.coef_, head, tail)
    return float(LogisticRegression._sigmoid((lead + model.intercept_) + trail)[0])


def reference_combine(hybrid, pre, edge):
    """The per-edge Hybrid formula, split at the seam: ``(distribution, estimated?)``."""
    cost = hybrid.costs.cost(edge)
    head = hybrid.features.pre_features(pre)
    tail = hybrid.features.edge_features(edge, cost)
    threshold = hybrid.classifier.config.threshold
    if reference_probability(hybrid.classifier, head, tail) >= threshold:
        return reference_estimate(hybrid.estimator, head, tail, pre, cost), True
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


@pytest.fixture(scope="module")
def seam(world, pres):
    """Where a feature row splits: the width of its pre half."""
    return world[1].features.pre_features(pres[0]).size


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
    def test_classifier_block_rows_equal_one_row_calls(
        self, world, pres, seam, classifiers, backend
    ):
        classifier = classifiers[backend]
        threshold = classifier.config.threshold
        blocks = 0
        for _, _, X in random_blocks(world, pres):
            alone = np.concatenate([classifier.estimation_probability(row) for row in X])
            assert np.array_equal(classifier.decide_rows(X), alone >= threshold)
            head, tails = X[0, :seam], X[:, seam:]
            logits = classifier.logit_terms(tails, seam)
            assert (logits is None) == (backend != "logistic")
            split = np.array([reference_probability(classifier, head, tail) for tail in tails])
            block = classifier.decide_block(head, tails, logits)
            assert np.array_equal(block, split >= threshold), f"{backend}, k={len(X)}"
            if logits is not None:  # the shares and probabilities behind those decisions
                one_row = [classifier.logit_terms(tail[None], seam)[0] for tail in tails]
                assert np.array_equal(logits, one_row), f"k={len(X)}"
                shares = classifier.logit_terms(head[None]) + logits
                assert np.array_equal(LogisticRegression._sigmoid(shares), split)
            blocks += 1
        assert blocks == 16 * len(pres)

    def test_estimator_block_rows_equal_one_row_passes(self, world, pres, seam):
        _, trained = world
        estimator = trained.estimator
        for pre, costs, X in random_blocks(world, pres):
            head, tails = X[0, :seam], X[:, seam:]
            terms = estimator.first_layer_terms(tails, seam)
            one_row = [estimator.first_layer_terms(tail[None], seam)[0] for tail in tails]
            assert np.array_equal(terms, one_row), f"k={len(X)}"
            block = estimator.predict_block(
                estimator.first_layer_terms(head[None]) + terms, pre, costs
            )
            whole_rows = estimator.predict_distributions(X, pre, costs)
            assert len(block) == len(whole_rows) == len(X)
            for i, (row, tail, cost) in enumerate(zip(X, tails, costs)):
                reference = reference_estimate(estimator, head, tail, pre, cost)
                assert_same_distribution(block[i], reference, f"k={len(X)}, row {i}")
                fused = fused_estimate(estimator, row, pre, cost)
                assert_same_distribution(whole_rows[i], fused, f"k={len(X)}, row {i}")


class TestSplitAgainstTheMatrixPath:
    """The one deliberate re-baseline: a sum of two partial products rounds
    differently from the one fused product training uses, so logits and
    first-layer pre-activations may move in their last bits, and a decision
    only where its probability sits on the threshold.  An ulp here is one of
    the product's absolute scale ``sum_j |w_j * s_j| + |b|``, the scale a dot
    product's rounding error is bounded by (a result that cancels to near
    zero has far finer ulps of its own than its rounding ever had)."""

    @staticmethod
    def ulps(split, scaled, weights, bias):
        fused = scaled @ weights + bias
        scale = np.abs(scaled) @ np.abs(weights) + np.abs(bias)
        return float((np.abs(split - fused) / np.spacing(scale)).max())

    def test_split_stays_within_4_ulp_of_the_matrix_path(self, world, pres, seam):
        _, trained = world
        classifier, estimator = trained.classifier, trained.estimator
        model, network = classifier._model, estimator._mlp.network
        threshold = classifier.config.threshold
        worst, rows, flips = [0.0, 0.0], 0, 0
        for _, _, X in random_blocks(world, pres):
            head, tails = X[0, :seam], X[:, seam:]
            logits = classifier.logit_terms(tails, seam)
            split = classifier.logit_terms(head[None]) + logits
            scaled = classifier._scaler.transform(X)
            assert np.array_equal(scaled @ model.coef_ + model.intercept_,
                                  model.decision_function(scaled))  # the matrix path
            worst[0] = max(worst[0], self.ulps(split, scaled, model.coef_, model.intercept_))
            first = estimator.first_layer_terms(head[None])
            first = first + estimator.first_layer_terms(tails, seam)
            scaled = estimator._scaler.transform(X)
            worst[1] = max(
                worst[1], self.ulps(first, scaled, network.weights[0], network.biases[0])
            )
            probabilities = classifier.estimation_probability(X)
            decided = classifier.decide_block(head, tails, logits)
            flipped = decided != (probabilities >= threshold)
            assert np.all(np.abs(probabilities[flipped] - threshold) <= 1e-12)
            flips += int(flipped.sum())
            rows += len(X)
        print(f"\n{rows} rows: logit <= {worst[0]:g} ulp, first layer <= "
              f"{worst[1]:g} ulp, {flips} decisions flipped")
        assert worst[0] <= 4 and worst[1] <= 4


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
                head = trained.features.pre_features(pre)
                tail = trained.features.edge_features(edge, cost)
                reference = reference_estimate(trained.estimator, head, tail, pre, cost)
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
