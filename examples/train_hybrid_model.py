"""Full training walk-through: corpus -> hybrid model -> persistence.

Reproduces the paper's model-evaluation experiment (E4) on the ``small``
preset, prints the per-method KL table, and round-trips the trained model
through disk persistence.
"""

import tempfile
from pathlib import Path

from repro.core import load_hybrid, path_cost, save_hybrid
from repro.experiments import get_runner


def main() -> None:
    runner = get_runner("small")
    print(f"network : {runner.network}")
    print(f"corpus  : {runner.store.num_trajectories} trips")

    # Dependence statistic (paper: ~75% of pairs with data are dependent).
    print()
    print(runner.run_dependence().render())

    # Train + evaluate (paper: 4000 train / 1000 test pairs, scaled here).
    print()
    evaluation = runner.run_model_evaluation()
    print(evaluation.render())

    # Persist and reload; path costs must be bit-identical.
    trained = runner.trained
    with tempfile.TemporaryDirectory() as tmp:
        save_hybrid(trained, tmp)
        files = sorted(p.name for p in Path(tmp).iterdir())
        print(f"\nsaved model files: {files}")
        reloaded = load_hybrid(tmp, runner.network)

    route = [runner.network.edges[0]]
    for _ in range(4):
        options = [
            e for e in runner.network.out_edges(route[-1].target)
            if e.target != route[-1].source
        ]
        route.append(options[0])
    original = path_cost(trained.hybrid_model(), route)
    restored = path_cost(reloaded.hybrid_model(), route)
    print(f"persistence roundtrip exact: {original.allclose(restored)}")


if __name__ == "__main__":
    main()
