"""End-to-end training pipeline for the Hybrid Model.

Mirrors the paper's procedure: "The estimation model is trained on 4000 edge
pairs with sufficient data.  An instance of the classifier is initialized for
each estimation model.  Following training, we test the model with a set of
1000 edge pairs, measuring the KL-divergence between the output and ground
truth trajectories."

Pipeline stages:

1. build the edge cost table (per-edge empirical histograms),
2. select edge pairs with sufficient data and split train/test,
3. aggregate per-intersection dependence evidence (historical mutual
   information) from the *training* pairs,
4. train the distribution estimator on (features -> ground-truth delay
   profile),
5. derive outcome-based labels (estimation beats convolution in KL?) and
   train the dependence classifier,
6. evaluate all three combiners (convolution / estimation / hybrid) on the
   held-out pairs, reporting mean KL to ground truth — the paper's metric.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..histograms import DiscreteDistribution, JointDistribution, kl_divergence
from ..ml import accuracy
from ..network import EdgePair, RoadNetwork
from ..trajectories import TrajectoryStore
from .classifier import ClassifierConfig, DependenceClassifier
from .costs import EdgeCostTable
from .estimator import DistributionEstimator, EstimatorConfig
from .features import FeatureConfig, IntersectionStats, PairFeatureExtractor
from .models import ConvolutionModel, EstimationModel, HybridModel

__all__ = ["TrainingConfig", "PairExample", "TrainingReport", "TrainedHybrid", "train_hybrid"]


@dataclass(frozen=True)
class TrainingConfig:
    """Pipeline parameters; defaults follow the paper where it gives numbers.

    ``num_virtual_examples`` augments the pair training set with multi-edge
    *virtual-edge* examples (random-walk prefixes of 2..``virtual_max_prepath``
    edges with their exact ground-truth combination targets).  The paper
    trains on edge pairs and then applies the model to virtual edges; without
    seeing any wide pre-path during training the regressor would be asked to
    extrapolate far outside its feature support, so this augmentation is the
    reproduction's way of making the paper's virtual-edge trick operational
    (see DESIGN.md).  Requires passing ``traffic_model`` to
    :func:`train_hybrid`; set to 0 for the strict pairs-only pipeline.
    """

    num_train_pairs: int = 4000
    num_test_pairs: int = 1000
    min_pair_samples: int = 30
    min_edge_samples: int = 10
    resolution: float = 5.0
    num_virtual_examples: int = 0
    virtual_max_prepath: int = 8
    refinement_rounds: int = 0
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_train_pairs < 1 or self.num_test_pairs < 1:
            raise ValueError("train and test pair counts must be >= 1")
        if self.min_pair_samples < 2:
            raise ValueError("min_pair_samples must be >= 2")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if self.num_virtual_examples < 0:
            raise ValueError("num_virtual_examples must be >= 0")
        if self.virtual_max_prepath < 2:
            raise ValueError("virtual_max_prepath must be >= 2")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if self.refinement_rounds > 0 and self.num_virtual_examples == 0:
            raise ValueError("refinement requires num_virtual_examples > 0")


@dataclass(frozen=True)
class PairExample:
    """One training/evaluation example: a consecutive edge pair with data.

    ``label_truth`` optionally carries a lower-noise reference distribution
    (the generative model's exact pair truth) used *only* for deriving
    convolution-vs-estimation labels; estimator targets and held-out KL
    evaluation always use ``truth`` (the empirical corpus histogram, as in
    the paper).
    """

    key: tuple[int, int]
    features: np.ndarray
    target: np.ndarray
    truth: DiscreteDistribution
    pre: DiscreteDistribution
    edge_cost: DiscreteDistribution
    label_truth: DiscreteDistribution | None = None


@dataclass(frozen=True)
class TrainingReport:
    """Paper-style evaluation summary (E4): mean KL to ground truth."""

    num_train_pairs: int
    num_test_pairs: int
    kl_convolution: float
    kl_estimation: float
    kl_hybrid: float
    classifier_accuracy: float
    estimation_fraction: float
    train_label_fraction: float

    def improvement_over_convolution(self) -> float:
        """Relative KL reduction of the hybrid vs. pure convolution."""
        if self.kl_convolution <= 0.0:
            return 0.0
        return 1.0 - self.kl_hybrid / self.kl_convolution


@dataclass
class TrainedHybrid:
    """Everything produced by training, ready for routing."""

    network: RoadNetwork
    costs: EdgeCostTable
    estimator: DistributionEstimator
    classifier: DependenceClassifier
    features: PairFeatureExtractor
    report: TrainingReport

    def hybrid_model(self) -> HybridModel:
        """The paper's combiner."""
        return HybridModel(self.costs, self.estimator, self.classifier, self.features)

    def convolution_model(self) -> ConvolutionModel:
        """The classical baseline over the same cost table."""
        return ConvolutionModel(self.costs)

    def estimation_model(self) -> EstimationModel:
        """Ablation: always estimate."""
        return EstimationModel(self.costs, self.estimator, self.features)


def _collect_examples(
    network: RoadNetwork,
    store: TrajectoryStore,
    costs: EdgeCostTable,
    extractor: PairFeatureExtractor,
    estimator: DistributionEstimator,
    keys: list[tuple[int, int]],
    *,
    min_pair_samples: int,
    traffic_model=None,
) -> list[PairExample]:
    examples = []
    for key in keys:
        first = network.edge(key[0])
        second = network.edge(key[1])
        pre = costs.cost(first)
        edge_cost = costs.cost(second)
        truth = store.pair_total_cost(key, min_samples=min_pair_samples)
        features = extractor.extract(pre, second, edge_cost)
        target = estimator.target_profile(truth, pre, edge_cost)
        label_truth = None
        if traffic_model is not None:
            label_truth = traffic_model.pair_ground_truth(EdgePair(first, second))
        examples.append(
            PairExample(key, features, target, truth, pre, edge_cost, label_truth)
        )
    return examples


def _intersection_stats(
    network: RoadNetwork,
    store: TrajectoryStore,
    keys: list[tuple[int, int]],
    *,
    min_pair_samples: int,
) -> dict[int, IntersectionStats]:
    """Aggregate historical dependence evidence per intersection."""
    mi_values: dict[int, list[float]] = defaultdict(list)
    sample_counts: dict[int, int] = defaultdict(int)
    for key in keys:
        samples = store.pair_samples(key)
        if len(samples) < min_pair_samples:
            continue
        joint = JointDistribution.from_samples(samples)
        vertex = network.edge(key[0]).target
        mi_values[vertex].append(joint.mutual_information())
        sample_counts[vertex] += len(samples)
    return {
        vertex: IntersectionStats(
            mean_mutual_information=float(np.mean(values)),
            num_pairs_observed=len(values),
            num_samples=sample_counts[vertex],
        )
        for vertex, values in mi_values.items()
    }


def _virtual_examples(
    network: RoadNetwork,
    traffic_model,
    costs: EdgeCostTable,
    extractor: PairFeatureExtractor,
    estimator: DistributionEstimator,
    *,
    count: int,
    max_prepath: int,
    rng: np.random.Generator,
    pre_fn=None,
) -> list[PairExample]:
    """Virtual-edge training examples from random walks.

    Each example folds a 2..``max_prepath``-edge prefix into a pre-path
    distribution and targets the exact ground-truth distribution of
    prefix + next edge.  By default the pre-path distribution is the exact
    path distribution (the infinite-data limit of the empirical
    sub-trajectory histograms a real corpus would provide); passing
    ``pre_fn`` substitutes a different pre-path representation — the
    refinement rounds pass the model's *own recursive estimate* so training
    inputs match what the routing recursion will actually feed the model.
    """
    examples: list[PairExample] = []
    num_edges = network.num_edges
    attempts = 0
    while len(examples) < count and attempts < count * 20:
        attempts += 1
        prefix_length = int(rng.integers(2, max_prepath + 1))
        walk = [network.edge(int(rng.integers(0, num_edges)))]
        ok = True
        for _ in range(prefix_length):
            options = [
                edge
                for edge in network.out_edges(walk[-1].target)
                if edge.target != walk[-1].source
            ]
            if not options:
                ok = False
                break
            walk.append(options[int(rng.integers(0, len(options)))])
        if not ok:
            continue
        prefix, next_edge = walk[:-1], walk[-1]
        if pre_fn is None:
            pre = traffic_model.path_distribution(prefix)
        else:
            pre = pre_fn(prefix)
        truth = traffic_model.path_distribution(walk)
        edge_cost = costs.cost(next_edge)
        features = extractor.extract(pre, next_edge, edge_cost)
        target = estimator.target_profile(truth, pre, edge_cost)
        examples.append(
            PairExample(
                key=(prefix[-1].id, next_edge.id),
                features=features,
                target=target,
                truth=truth,
                pre=pre,
                edge_cost=edge_cost,
            )
        )
    return examples


def _labels_for(
    examples: list[PairExample],
    estimator: DistributionEstimator,
    *,
    use_label_truth: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome labels plus the per-method KL arrays used to derive them.

    ``use_label_truth`` selects the exact reference for label derivation
    (training); the held-out evaluation passes ``False`` so reported KL is
    measured against the empirical corpus truth, as the paper does.
    """
    kl_conv = np.empty(len(examples))
    kl_est = np.empty(len(examples))
    features = np.vstack([example.features for example in examples])
    profiles = estimator.predict_profiles(features)
    for i, example in enumerate(examples):
        reference = (
            example.label_truth
            if use_label_truth and example.label_truth is not None
            else example.truth
        )
        conv = example.pre.convolve(example.edge_cost)
        kl_conv[i] = kl_divergence(reference, conv)
        anchor = example.pre.min_value + example.edge_cost.min_value
        width = estimator.bin_width(example.pre, example.edge_cost)
        profile = np.clip(profiles[i], 0.0, None) + 1e-12
        if width > 1:
            profile = np.repeat(profile / width, width)
        est = DiscreteDistribution(anchor, profile)
        kl_est[i] = kl_divergence(reference, est)
    labels = (kl_est < kl_conv).astype(np.int64)
    return labels, kl_conv, kl_est


def train_hybrid(
    network: RoadNetwork,
    store: TrajectoryStore,
    config: TrainingConfig | None = None,
    *,
    traffic_model=None,
) -> TrainedHybrid:
    """Run the full pipeline and return the trained hybrid plus its report.

    Raises ``ValueError`` when the corpus has fewer than two pairs with
    sufficient data (nothing to train or evaluate on).  When fewer than
    ``num_train_pairs + num_test_pairs`` pairs exist, the available pairs are
    split in the same 80/20 proportion the paper's 4000/1000 split uses.

    ``traffic_model`` (a :class:`~repro.trajectories.CongestionModel`) is
    required when ``config.num_virtual_examples > 0``; see
    :class:`TrainingConfig` for the virtual-edge augmentation rationale.
    The held-out evaluation always uses edge pairs only, as in the paper.
    """
    config = config or TrainingConfig()
    if config.num_virtual_examples > 0 and traffic_model is None:
        raise ValueError(
            "num_virtual_examples > 0 requires passing traffic_model"
        )
    costs = EdgeCostTable.from_store(
        network, store, resolution=config.resolution, min_samples=config.min_edge_samples
    )
    keys = store.pair_keys_with_data(min_samples=config.min_pair_samples)
    if len(keys) < 2:
        raise ValueError(
            f"corpus has {len(keys)} pairs with >= {config.min_pair_samples} samples; "
            "need at least 2 (generate more trips or lower min_pair_samples)"
        )
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(keys))
    wanted = config.num_train_pairs + config.num_test_pairs
    if len(keys) >= wanted:
        selected = [keys[i] for i in order[:wanted]]
        num_train = config.num_train_pairs
    else:
        selected = [keys[i] for i in order]
        train_share = config.num_train_pairs / wanted
        num_train = min(max(1, int(round(len(selected) * train_share))), len(selected) - 1)
    train_keys = selected[:num_train]
    test_keys = selected[num_train:]

    extractor = PairFeatureExtractor(network, config=config.features)
    extractor.set_intersection_stats(
        _intersection_stats(
            network, store, train_keys, min_pair_samples=config.min_pair_samples
        )
    )
    estimator = DistributionEstimator(config.estimator)

    train_examples = _collect_examples(
        network, store, costs, extractor, estimator, train_keys,
        min_pair_samples=config.min_pair_samples,
        traffic_model=traffic_model,
    )
    test_examples = _collect_examples(
        network, store, costs, extractor, estimator, test_keys,
        min_pair_samples=config.min_pair_samples,
    )

    if config.num_virtual_examples > 0:
        train_examples = train_examples + _virtual_examples(
            network,
            traffic_model,
            costs,
            extractor,
            estimator,
            count=config.num_virtual_examples,
            max_prepath=config.virtual_max_prepath,
            rng=rng,
        )

    estimator.fit(
        np.vstack([example.features for example in train_examples]),
        np.vstack([example.target for example in train_examples]),
    )

    train_labels, _, _ = _labels_for(train_examples, estimator)
    classifier = DependenceClassifier(config.classifier)
    classifier.fit(
        np.vstack([example.features for example in train_examples]), train_labels
    )

    # Refinement: regenerate virtual examples whose pre-path input is the
    # model's own recursive estimate (closing the train/inference gap of the
    # virtual-edge trick), then retrain estimator and classifier.
    for _ in range(config.refinement_rounds):
        from .path_cost import path_cost

        recursion = HybridModel(costs, estimator, classifier, extractor)
        recursive_examples = _virtual_examples(
            network,
            traffic_model,
            costs,
            extractor,
            estimator,
            count=config.num_virtual_examples,
            max_prepath=config.virtual_max_prepath,
            rng=rng,
            pre_fn=lambda path: path_cost(recursion, path),
        )
        train_examples = train_examples + recursive_examples
        estimator = DistributionEstimator(config.estimator)
        estimator.fit(
            np.vstack([example.features for example in train_examples]),
            np.vstack([example.target for example in train_examples]),
        )
        train_labels, _, _ = _labels_for(train_examples, estimator)
        classifier = DependenceClassifier(config.classifier)
        classifier.fit(
            np.vstack([example.features for example in train_examples]),
            train_labels,
        )

    test_labels, kl_conv, kl_est = _labels_for(
        test_examples, estimator, use_label_truth=False
    )
    test_features = np.vstack([example.features for example in test_examples])
    decisions = classifier.decide_batch(test_features)
    kl_hybrid = np.where(decisions, kl_est, kl_conv)

    report = TrainingReport(
        num_train_pairs=len(train_examples),
        num_test_pairs=len(test_examples),
        kl_convolution=float(kl_conv.mean()),
        kl_estimation=float(kl_est.mean()),
        kl_hybrid=float(kl_hybrid.mean()),
        classifier_accuracy=accuracy(test_labels, decisions.astype(np.int64)),
        estimation_fraction=float(decisions.mean()),
        train_label_fraction=float(train_labels.mean()),
    )
    return TrainedHybrid(
        network=network,
        costs=costs,
        estimator=estimator,
        classifier=classifier,
        features=extractor,
        report=report,
    )
