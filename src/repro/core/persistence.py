"""Persistence: trained hybrids on disk.

:func:`save_hybrid` / :func:`load_hybrid` write and read one ``model.npz``
holding every numeric array (MLP weights, scalers, classifier coefficients,
edge-cost histograms, intersection stats) plus a ``meta.json`` with
configuration and layout, so a trained model can be reused across experiment
runs without retraining.

A service snapshot needs no file format of its own: the document
:meth:`repro.service.RoutingService.snapshot` returns is plain JSON all the
way down, so ``json.dumps`` puts it on disk and ``restore(json.loads(...))``
reads it back byte-for-byte (Python floats round-trip exactly through JSON);
``restore`` runs the envelope check itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..histograms import DiscreteDistribution
from ..ml import MlpConfig, MlpNetwork
from ..network import RoadNetwork
from .classifier import ClassifierConfig, DependenceClassifier
from .costs import EdgeCostTable
from .estimator import DistributionEstimator, EstimatorConfig
from .features import FeatureConfig, IntersectionStats, PairFeatureExtractor
from .training import TrainedHybrid, TrainingReport

__all__ = ["load_hybrid", "save_hybrid"]

_FORMAT_VERSION = 1
#: The classifier learner ``meta.json`` names; the only one there is.
_CLASSIFIER_BACKEND = "logistic"


def save_hybrid(trained: TrainedHybrid, directory: str | Path) -> None:
    """Persist a trained hybrid model (network itself is *not* stored)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    arrays: dict[str, np.ndarray] = {}
    estimator = trained.estimator
    network = estimator._mlp.network
    if network is None:
        raise ValueError("estimator is not fitted")
    for i, weight in enumerate(network.weights):
        arrays[f"mlp_weight_{i}"] = weight
    for i, bias in enumerate(network.biases):
        arrays[f"mlp_bias_{i}"] = bias
    scaler = estimator._scaler
    if scaler.mean_ is None or scaler.scale_ is None:
        raise ValueError("estimator scaler is not fitted")
    arrays["est_scaler_mean"] = scaler.mean_
    arrays["est_scaler_scale"] = scaler.scale_

    classifier = trained.classifier
    if classifier._constant_label is None:
        model = classifier._model
        arrays["clf_coef"] = model.coef_
        arrays["clf_intercept"] = np.asarray([model.intercept_])
        clf_scaler = classifier._scaler
        arrays["clf_scaler_mean"] = clf_scaler.mean_
        arrays["clf_scaler_scale"] = clf_scaler.scale_

    # Edge cost table: offsets, lengths, concatenated probabilities.
    edge_ids, offsets, lengths, probs = [], [], [], []
    for edge in trained.network.edges:
        if trained.costs.has_observed_cost(edge.id):
            dist = trained.costs.cost(edge)
            edge_ids.append(edge.id)
            offsets.append(dist.offset)
            lengths.append(dist.support_size)
            probs.append(dist.probs)
    arrays["cost_edge_ids"] = np.asarray(edge_ids, dtype=np.int64)
    arrays["cost_offsets"] = np.asarray(offsets, dtype=np.int64)
    arrays["cost_lengths"] = np.asarray(lengths, dtype=np.int64)
    arrays["cost_probs"] = (
        np.concatenate(probs) if probs else np.zeros(0, dtype=np.float64)
    )

    stats = trained.features._stats
    arrays["stat_vertices"] = np.asarray(sorted(stats), dtype=np.int64)
    arrays["stat_values"] = np.asarray(
        [
            [stats[v].mean_mutual_information, stats[v].num_pairs_observed, stats[v].num_samples]
            for v in sorted(stats)
        ],
        dtype=np.float64,
    ).reshape(len(stats), 3)

    np.savez_compressed(directory / "model.npz", **arrays)

    meta = {
        "format_version": _FORMAT_VERSION,
        "resolution": trained.costs.resolution,
        "estimator": {
            "num_bins": estimator.config.num_bins,
            "hidden_sizes": list(estimator.config.mlp.hidden_sizes),
            "activation": estimator.config.mlp.activation,
        },
        "classifier": {
            "backend": _CLASSIFIER_BACKEND,
            "threshold": classifier.config.threshold,
            "constant_label": classifier._constant_label,
        },
        "features": {"profile_bins": trained.features.config.profile_bins},
        "report": vars(trained.report),
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))


def load_hybrid(directory: str | Path, network: RoadNetwork) -> TrainedHybrid:
    """Load a hybrid saved by :func:`save_hybrid` onto ``network``.

    The caller must supply the same network the model was trained on (edge
    ids must match; the network is not serialised with the model).  A
    classifier ``backend`` other than ``"logistic"`` raises ``ValueError``.
    """
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {meta.get('format_version')!r}")
    backend = meta["classifier"]["backend"]
    if backend != _CLASSIFIER_BACKEND:
        raise ValueError(f"unsupported classifier backend: {backend!r}")
    data = np.load(directory / "model.npz")

    estimator_config = EstimatorConfig(
        num_bins=int(meta["estimator"]["num_bins"]),
        mlp=MlpConfig(
            hidden_sizes=tuple(meta["estimator"]["hidden_sizes"]),
            activation=meta["estimator"]["activation"],
        ),
    )
    estimator = DistributionEstimator(estimator_config)
    num_layers = sum(1 for key in data.files if key.startswith("mlp_weight_"))
    weights = [data[f"mlp_weight_{i}"] for i in range(num_layers)]
    mlp_network = MlpNetwork(
        weights[0].shape[0],
        tuple(w.shape[0] for w in weights[1:]),
        weights[-1].shape[1],
        activation=estimator_config.mlp.activation,
    )
    mlp_network.weights = weights
    mlp_network.biases = [data[f"mlp_bias_{i}"] for i in range(num_layers)]
    estimator._mlp.network = mlp_network
    estimator._mlp._fitted = True
    estimator._scaler.mean_ = data["est_scaler_mean"]
    estimator._scaler.scale_ = data["est_scaler_scale"]
    estimator._fitted = True

    classifier = DependenceClassifier(
        ClassifierConfig(threshold=float(meta["classifier"]["threshold"]))
    )
    constant = meta["classifier"]["constant_label"]
    if constant is not None:
        classifier._constant_label = int(constant)
    else:
        model = classifier._model
        model.coef_ = data["clf_coef"]
        model.intercept_ = float(data["clf_intercept"][0])
        model._fitted = True
        classifier._scaler.mean_ = data["clf_scaler_mean"]
        classifier._scaler.scale_ = data["clf_scaler_scale"]
    classifier._fitted = True

    costs = EdgeCostTable(network, resolution=float(meta["resolution"]))
    cursor = 0
    for edge_id, offset, length in zip(
        data["cost_edge_ids"], data["cost_offsets"], data["cost_lengths"]
    ):
        probs = data["cost_probs"][cursor : cursor + int(length)]
        cursor += int(length)
        costs.set_cost(int(edge_id), DiscreteDistribution(int(offset), probs, normalize=False))

    stats = {}
    for vertex, row in zip(data["stat_vertices"], data["stat_values"]):
        stats[int(vertex)] = IntersectionStats(
            mean_mutual_information=float(row[0]),
            num_pairs_observed=int(row[1]),
            num_samples=int(row[2]),
        )
    extractor = PairFeatureExtractor(
        network,
        config=FeatureConfig(profile_bins=int(meta["features"]["profile_bins"])),
        intersection_stats=stats,
    )

    report = TrainingReport(**meta["report"])
    return TrainedHybrid(
        network=network,
        costs=costs,
        estimator=estimator,
        classifier=classifier,
        features=extractor,
        report=report,
    )
