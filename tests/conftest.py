"""Tier-1 suite configuration: a deterministic seed policy, one trained world.

Property-based tests run under a derandomized hypothesis profile by
default, so a red CI run is reproducible locally byte for byte and plugins
that shuffle seeds (pytest-randomly is additionally disabled via
``-p no:randomly`` in the root ``pytest.ini``) cannot make the tier-1
verdict flap.  Opt back into randomized exploration locally with::

    HYPOTHESIS_PROFILE=explore PYTHONPATH=src python -m pytest
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture(scope="session")
def trained_world():
    """``(network, traffic, store, trained)``: a 7x7 grid, 8,000 trips and a
    Hybrid Model trained on them (~4 s, built once per session).  Read-only:
    a test that publishes costs works on ``trained.costs.copy()``."""
    from repro.core import TrainingConfig, train_hybrid
    from repro.core.estimator import EstimatorConfig
    from repro.ml import MlpConfig
    from repro.network import grid_network
    from repro.trajectories import (
        STRUCTURED_CONFIG,
        CongestionModel,
        TrajectoryStore,
        TripGenerator,
    )

    network = grid_network(7, 7, spacing=250.0, seed=5)
    traffic = CongestionModel(network, STRUCTURED_CONFIG, seed=6)
    store = TrajectoryStore()
    store.add_all(TripGenerator(network, traffic, seed=7).generate(8000))
    config = TrainingConfig(
        num_train_pairs=300,
        num_test_pairs=70,
        min_pair_samples=40,
        num_virtual_examples=400,
        virtual_max_prepath=16,
        refinement_rounds=2,
        estimator=EstimatorConfig(
            num_bins=32, mlp=MlpConfig(hidden_sizes=(64, 64), max_epochs=80, seed=0)
        ),
        seed=0,
    )
    trained = train_hybrid(network, store, config, traffic_model=traffic)
    return network, traffic, store, trained
