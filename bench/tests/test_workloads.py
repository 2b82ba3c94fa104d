"""The generator is a pure function of the seed."""

import json

import pytest

from bench import workloads


@pytest.fixture(scope="module")
def scale():
    return workloads.ScaleMap()


def _wire(plan):
    updates = [line for _, line in plan.updates]
    return plan.warm, plan.lines, updates


@pytest.mark.parametrize(
    "build",
    [workloads.hit_replay, workloads.warm_miss, workloads.cold_miss,
     workloads.shared_frontier],
)
def test_same_seed_same_bytes_other_seed_other_bytes(build, scale):
    assert _wire(build(7, scale)) == _wire(build(7, scale))
    assert _wire(build(7, scale))[1] != _wire(build(8, scale))[1]


def test_update_churn_is_seeded_and_fits_the_wire(scale):
    first = workloads.update_churn(7, scale, 8.0)
    assert _wire(first) == _wire(workloads.update_churn(7, scale, 8.0))
    other = workloads.update_churn(8, scale, 8.0)
    assert _wire(first)[1] != _wire(other)[1]
    assert _wire(first)[2] != _wire(other)[2]
    assert first.updates, "a run must see at least one write"
    for due, line in first.updates:
        assert 0 < due < 8.0
        # asyncio's StreamReader refuses lines of 64 KiB and more.
        assert len(line) < 60_000
        assert len(json.loads(line)["update"]["costs"]) == 500


def test_hybrid_search_is_seeded_and_never_repeats():
    first = workloads.hybrid_search(7)
    assert first.lines == workloads.hybrid_search(7).lines
    assert first.lines != workloads.hybrid_search(8).lines
    assert len(set(first.lines)) == len(first.lines) >= 2000


def test_miss_workloads_never_repeat_a_request(scale):
    for build in (workloads.warm_miss, workloads.cold_miss, workloads.shared_frontier):
        plan = build(3, scale)
        assert len(set(plan.lines) | set(plan.warm)) == len(plan.lines) + len(plan.warm)


def test_budget_is_the_generators_own_floor_plus_slack(scale):
    plan = workloads.warm_miss(5, scale)
    query = json.loads(plan.lines[0])["query"]
    floor = scale.floors(query["target"], [query["source"]])[query["source"]]
    assert query["budget"] == floor + workloads.SLACK


def test_shared_frontier_cycles_all_three_strategies(scale):
    plan = workloads.shared_frontier(5, scale)
    strategies = [json.loads(line)["strategy"] for line in plan.lines[:6]]
    assert strategies == ["multi_budget", "depart_when", "kbest"] * 2
