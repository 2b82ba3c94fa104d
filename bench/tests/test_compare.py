"""``compare.py`` verdicts on hand-made result pairs."""

import json

from bench import compare


def _file(tmp_path, name, runs):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "environment": {}, "runs": runs}))
    return path


def _run(workload="hit_replay", **metrics):
    return {"workload": workload, "end_to_end": metrics}


def _verdicts(tmp_path, base_runs, new_runs):
    rows = compare.compare(
        compare.load(_file(tmp_path, "base.json", base_runs)),
        compare.load(_file(tmp_path, "new.json", new_runs)),
    )
    return {(r["metric"], r["workload"]): r["verdict"] for r in rows}


def test_direction_and_bound_decide_the_verdict(tmp_path):
    verdicts = _verdicts(
        tmp_path,
        [_run(throughput_rps=1000.0, latency_p50_ms=2.0, peak_rss_mb=200.0)],
        [_run(throughput_rps=700.0, latency_p50_ms=1.4, peak_rss_mb=205.0)],
    )
    assert verdicts["throughput_rps", "hit_replay"] == "regressed"  # -30 %, higher is better
    assert verdicts["latency_p50_ms", "hit_replay"] == "improved"   # -30 %, lower is better
    assert verdicts["peak_rss_mb", "hit_replay"] == "unchanged"     # +2.5 % < 20 %


def test_zero_bound_metrics_may_not_get_worse_at_all(tmp_path):
    verdicts = _verdicts(
        tmp_path,
        [_run(wrong_answers=0.0, failed_share=0.0)],
        [_run(wrong_answers=1.0, failed_share=0.0)],
    )
    assert verdicts["wrong_answers", "hit_replay"] == "regressed"
    assert verdicts["failed_share", "hit_replay"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved(tmp_path):
    noisy = [_run(latency_p50_ms=v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    steady = [_run(latency_p50_ms=v) for v in (3.0, 3.01, 3.02, 2.99, 3.0)]
    assert _verdicts(tmp_path, noisy, steady)["latency_p50_ms", "hit_replay"] == "unresolved"
    assert _verdicts(tmp_path, steady, steady)["latency_p50_ms", "hit_replay"] == "unchanged"


def test_null_on_both_sides_has_no_row_and_on_one_side_is_unresolved(tmp_path):
    verdicts = _verdicts(
        tmp_path,
        [_run(latency_p99_ms=None, latency_p95_ms=3.0, throughput_rps=10.0)],
        [_run(latency_p99_ms=None, latency_p95_ms=None, throughput_rps=10.0)],
    )
    assert ("latency_p99_ms", "hit_replay") not in verdicts
    assert verdicts["latency_p95_ms", "hit_replay"] == "unresolved"


def test_each_workload_has_its_own_row_and_the_exit_code_follows(tmp_path, capsys):
    base = _file(tmp_path, "base.json",
                 [_run("hit_replay", setup_s=4.0), _run("warm_miss", setup_s=4.0)])
    new = _file(tmp_path, "new.json",
                [_run("hit_replay", setup_s=4.1), _run("warm_miss", setup_s=5.5)])
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(new)]) == 1
    table = capsys.readouterr().out
    assert "+37.5% of 4" in table and "regressed" in table
