"""The Hybrid Model remembers its expansion blocks.

A block is a pure function of the pre-path distribution and the out-edge
ids within one published cost cell and one set of trained stages, so
``combine_edges`` keeps each in a bounded memo on the cell's holder, keyed
on ``(pre.offset, pre.probs bytes, edge ids)``.  What a caller can see must
not change: every block equals a fresh computation, every call gets objects
of its own, ``HybridStats`` counts every call's decisions, racing threads
build a block once, and a new publication serves the new costs.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core import HybridModel, HybridStats, path_cost
from repro.core import models
from repro.histograms import DiscreteDistribution
from repro.routing.heuristics import clear_heuristic_cache


class MemoFree(HybridModel):
    """The block body on every call: what the memo must hand back."""

    def combine_edges(self, pre, edges):
        rows, counts = self._block(pre, edges)
        self.stats.add(*counts)
        return [DiscreteDistribution._trusted(offset, probs) for offset, probs in rows]


def private(trained, model=HybridModel):
    """``model`` with the trained stages over a private copy of the costs:
    its memo is its own, and publishing to it touches no other test."""
    return model(trained.costs.copy(), trained.estimator, trained.classifier, trained.features)


def blocks_of(hybrid):
    """The resident block memo of ``hybrid``'s cell and stages; asking must
    not build one."""
    key = ("blocks", hybrid.features.token, hybrid.classifier.token, hybrid.estimator.token)
    return hybrid.costs.derived(hybrid.features.network).get(
        key, lambda: pytest.fail("no block memo")
    )


def assert_same_block(mine, reference, where=""):
    assert len(mine) == len(reference), where
    for a, b in zip(mine, reference):
        assert a.offset == b.offset, where
        assert np.array_equal(a.probs, b.probs), where


@pytest.fixture(scope="module")
def world(trained_world):
    network, _, _, trained = trained_world
    return network, trained


@pytest.fixture(scope="module")
def cases(world):
    """``(pre, edges)`` expansions as the search asks them: a hybrid-folded
    walk into a vertex, then that vertex's out-edges."""
    network, trained = world
    hybrid = private(trained, MemoFree)
    rng = np.random.default_rng(23)
    out = []
    for vertex in sorted(network.vertex_ids())[::3]:
        walk = [network.in_edges(vertex)[0]]
        for _ in range(int(rng.integers(0, 6))):
            walk.insert(0, network.in_edges(walk[0].source)[0])
        out.append((path_cost(hybrid, walk), network.out_edges(vertex)))
    return out


@pytest.fixture(scope="module")
def mixed(world, cases):
    """One expansion whose block both convolves and estimates, with its
    ``(convolutions, estimations)``."""
    _, trained = world
    probe = private(trained, MemoFree)
    for pre, edges in cases:
        probe.stats = HybridStats()
        probe.combine_edges(pre, edges)
        counts = (probe.stats.convolutions, probe.stats.estimations)
        if min(counts) > 0:
            return pre, edges, counts
    pytest.fail("no expansion mixes both branches")


class TestServedBlocks:
    def test_every_block_equals_a_memo_free_computation(self, world, cases):
        _, trained = world
        hybrid, reference = private(trained), private(trained, MemoFree)
        asked = []
        for pre, edges in cases:
            asked += [(pre, edges), (pre.shift(1), edges), (pre, edges[::-1])]
        for round_ in range(2):  # the second round is served from the memo
            for pre, edges in asked:
                where = f"round {round_}, edges {[e.id for e in edges]}"
                assert_same_block(
                    hybrid.combine_edges(pre, edges), reference.combine_edges(pre, edges), where
                )
        distinct = {(p.offset, p.probs.tobytes(), tuple(e.id for e in es)) for p, es in asked}
        assert len(blocks_of(hybrid)._entries) == len(distinct)
        assert (hybrid.stats.convolutions, hybrid.stats.estimations) == (
            reference.stats.convolutions, reference.stats.estimations,
        )
        assert hybrid.stats.estimations > 0 and hybrid.stats.convolutions > 0

    def test_a_repeated_block_is_fresh_objects_over_equal_arrays(self, world, mixed):
        _, trained = world
        pre, edges, _ = mixed
        hybrid = private(trained)
        first = hybrid.combine_edges(pre, edges)
        for row in first:
            row.cdf()  # a query's CDF cache stays with that query's objects
        second = hybrid.combine_edges(pre, edges)
        assert_same_block(second, first)
        assert all(a is not b for a, b in zip(first, second))
        assert all(row._cdf is None for row in second)

    def test_the_one_edge_combine_goes_through_the_same_memo(self, world, mixed):
        _, trained = world
        pre, edges, _ = mixed
        hybrid = private(trained)
        alone = hybrid.combine(pre, edges[0])
        key = (pre.offset, pre.probs.tobytes(), (edges[0].id,))
        assert list(blocks_of(hybrid)._entries) == [key]
        assert_same_block([alone], hybrid.combine_edges(pre, edges[:1]))
        assert len(blocks_of(hybrid)._entries) == 1


class TestDecisionCounts:
    def test_n_calls_count_n_times_the_blocks_decisions(self, world, mixed):
        _, trained = world
        pre, edges, (convolutions, estimations) = mixed
        hybrid = private(trained)
        calls = 7
        for _ in range(calls):
            hybrid.combine_edges(pre, edges)
        assert (hybrid.stats.convolutions, hybrid.stats.estimations) == (
            calls * convolutions, calls * estimations,
        )
        assert len(blocks_of(hybrid)._entries) == 1


class TestSingleFlight:
    def test_racing_threads_build_one_missing_block_once(self, world, mixed):
        _, trained = world
        pre, edges, _ = mixed
        hybrid = private(trained)
        builds, block = [], hybrid._block

        def slow_block(*args):
            builds.append(args)
            time.sleep(0.01)  # every racer arrives while the first builds
            return block(*args)

        hybrid._block = slow_block
        threads, barrier, served = 8, threading.Barrier(8), []

        def race():
            barrier.wait()
            served.append(hybrid.combine_edges(pre, edges))

        racers = [threading.Thread(target=race, daemon=True) for _ in range(threads)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(30.0)
            assert not racer.is_alive(), "deadlock: a racer never returned"
        assert len(builds) == 1
        assert len(served) == threads
        for block_ in served[1:]:
            assert_same_block(block_, served[0])
        assert hybrid.stats.convolutions + hybrid.stats.estimations == threads * len(edges)


class TestPublication:
    @pytest.mark.parametrize("how", ["apply_deltas", "publish"])
    def test_a_new_cell_drops_the_memo_and_serves_the_new_costs(self, world, mixed, how):
        _, trained = world
        pre, edges, _ = mixed
        hybrid = private(trained)
        before = hybrid.combine_edges(pre, edges)
        old = weakref.ref(blocks_of(hybrid))
        edge = edges[0]
        cost = hybrid.costs.cost(edge)
        slower = DiscreteDistribution._trusted(cost.offset + 3, cost.probs)
        if how == "apply_deltas":
            hybrid.costs.apply_deltas({edge.id: slower})
        else:
            changed = hybrid.costs.copy()
            changed.apply_deltas({edge.id: slower})
            hybrid.costs.publish(hybrid.costs.decode(changed.to_dict()))
        gc.collect()
        assert old() is None, "the old cell's block memo is still reachable"
        after = hybrid.combine_edges(pre, edges)
        assert after[0].offset != before[0].offset
        reference = MemoFree(
            hybrid.costs.copy(), trained.estimator, trained.classifier, trained.features
        )
        assert_same_block(after, reference.combine_edges(pre, edges))


class TestCapacity:
    def test_the_memo_keeps_the_most_recent_blocks(self, world, cases, monkeypatch):
        _, trained = world
        monkeypatch.setattr(models, "BLOCK_MEMO_SIZE", 4)
        hybrid = private(trained)
        asked = cases[:5]
        for pre, edges in asked:
            hybrid.combine_edges(pre, edges)
        keys = [(p.offset, p.probs.tobytes(), tuple(e.id for e in es)) for p, es in asked]
        assert len(set(keys)) == 5
        assert list(blocks_of(hybrid)._entries) == keys[1:]

    def test_clearing_the_heuristic_cache_empties_the_memo(self, world, mixed):
        _, trained = world
        pre, edges, _ = mixed
        hybrid = private(trained)
        hybrid.combine_edges(pre, edges)
        assert len(blocks_of(hybrid)._entries) == 1
        clear_heuristic_cache()
        assert len(blocks_of(hybrid)._entries) == 0
