"""The reachability report's matcher: what a traced process called is never
listed, what it did not call is, and nested functions are not listed alone.
The tracer itself follows every thread, survives SIGTERM and stays off unless
``REACH_OUT`` is set.  ``keep.txt`` is a ratchet: the report exits 1 on an
unreached function without a row, on a stale row and on a failed entry
point, and a pytest entry point's failures count only if they recur
untraced."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reachability"

PROBE = textwrap.dedent(
    '''
    import functools


    def traced(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapper


    @traced
    def decorated():
        def nested():
            return 1

        return nested()


    @traced
    def idle():
        return 0


    def never():
        def inner():
            return 2

        return inner


    class Box:
        @property
        def size(self):
            return 3

        def method(self):
            return 4

        def unused(self):
            return 5
    '''
)


def load_report():
    spec = importlib.util.spec_from_file_location("reach_report", TOOL / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace(tmp_path, source, script, *, reach_out=True):
    """Run ``script`` under the tracer with ``source`` as ``repro.probe``;
    returns the finished process, the dump directory and the package."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "probe.py").write_text(source)
    out = tmp_path / "out"
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "REACH_OUT"}
    if reach_out:
        env["REACH_OUT"] = str(out)
    env["PYTHONPATH"] = os.pathsep.join([str(TOOL), str(tmp_path / "src")])
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    return done, out, package


def unreached_names(out, package):
    report = load_report().unreached(out, package)
    return {name for rows in report.values() for _, name, _ in rows}


def test_entry_points_run_every_benchmark_workload():
    declared = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())["workloads"]
    runs = load_report().entry_points()
    traced = {run[run.index("--workload") + 1] for run in runs if "--workload" in run}
    assert traced == {workload["name"] for workload in declared}


def test_called_functions_are_matched_and_the_rest_reported(tmp_path):
    script = "import repro.probe as p; p.decorated(); box = p.Box(); box.size; box.method()"
    done, out, package = trace(tmp_path, PROBE, script)
    assert done.returncode == 0, done.stderr

    report = load_report()
    called = report.called(out, package)
    first_decorator = PROBE.splitlines().index("@traced") + 1
    assert ("probe.py", first_decorator, "decorated") in called

    unreached = report.unreached(out, package)
    assert set(unreached) == {"probe.py"}
    names = {name for _, name, _ in unreached["probe.py"]}
    assert names == {"idle", "never", "Box.unused"}
    idle = next(row for row in unreached["probe.py"] if row[1] == "idle")
    assert PROBE.splitlines()[idle[0] - 1] == "@traced"
    assert idle[2] == 3


FORMS = textwrap.dedent(
    '''
    class Forms:
        @staticmethod
        def static():
            return 1

        @classmethod
        def klass(cls):
            return 2

        async def coroutine(self):
            return 3

        @property
        def value(self):
            return self._value

        @value.setter
        def value(self, new):
            self._value = new
    '''
)


def test_every_method_form_is_matched_by_its_first_decorator(tmp_path):
    script = (
        "import asyncio; from repro.probe import Forms; f = Forms(); "
        "Forms.static(); Forms.klass(); asyncio.run(f.coroutine()); f.value = 1"
    )
    done, out, package = trace(tmp_path, FORMS, script)
    assert done.returncode == 0, done.stderr
    # The setter ran and the getter did not: two defs of one name, told
    # apart by their decorator lines.
    assert unreached_names(out, package) == {"Forms.value"}
    report = load_report().unreached(out, package)
    (first, _, _), = report["probe.py"]
    assert FORMS.splitlines()[first - 1].strip() == "@property"


def test_calls_made_on_other_threads_are_recorded(tmp_path):
    script = (
        "import threading, repro.probe as p; "
        "t = threading.Thread(target=p.never); t.start(); t.join()"
    )
    done, out, package = trace(tmp_path, PROBE, script)
    assert done.returncode == 0, done.stderr
    assert "never" not in unreached_names(out, package)


def test_a_process_ended_by_sigterm_still_writes_its_dump(tmp_path):
    script = (
        "import os, signal, time, repro.probe as p; p.idle(); "
        "os.kill(os.getpid(), signal.SIGTERM); time.sleep(30)"
    )
    done, out, package = trace(tmp_path, PROBE, script)
    assert done.returncode == -signal.SIGTERM  # the signal still ends it
    assert len(list(out.glob("*.json"))) == 1
    assert "idle" not in unreached_names(out, package)


def test_nothing_is_traced_or_written_without_reach_out(tmp_path):
    script = "import sys, repro.probe as p; p.idle(); print(sys.getprofile())"
    done, out, _ = trace(tmp_path, PROBE, script, reach_out=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"
    assert list(out.iterdir()) == []


def test_dump_entries_outside_the_package_are_ignored(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    out = tmp_path / "out"
    out.mkdir()
    inside = os.path.realpath(package / "probe.py")
    outside = os.path.realpath(tmp_path / "elsewhere" / "repro" / "probe.py")
    (out / "1.json").write_text(json.dumps([[inside, 3, "f"], [outside, 3, "g"]]))
    assert load_report().called(out, package) == {("probe.py", 3, "f")}


# ----------------------------------------------------------------------
# The keep list: a ratchet on what may stay unreached
# ----------------------------------------------------------------------


def probe_verdict(tmp_path, rows):
    """Trace a run of ``PROBE`` that leaves ``idle``, ``never`` and
    ``Box.unused`` unreached, and match it against ``rows``."""
    script = "import repro.probe as p; p.decorated(); box = p.Box(); box.size; box.method()"
    done, out, package = trace(tmp_path, PROBE, script)
    assert done.returncode == 0, done.stderr
    report = load_report()
    return report.unkept(report.unreached(out, package), package, rows)


KEPT = [
    ("probe.py:idle", "reference", "an oracle"),
    ("probe.py:never", "error", "a fault path"),
    ("probe.py:Box.unused", "protocol", "a dunder"),
]


def test_every_unreached_function_with_a_row_passes(tmp_path):
    assert probe_verdict(tmp_path, KEPT) == []


def test_an_unreached_function_without_a_row_fails(tmp_path):
    assert probe_verdict(tmp_path, KEPT[1:]) == ["unreached, no keep.txt row: probe.py:idle"]


def test_a_row_for_a_reached_function_is_stale(tmp_path):
    rows = KEPT + [("probe.py:Box.method", "protocol", "was a dunder")]
    assert probe_verdict(tmp_path, rows) == ["stale keep.txt row: probe.py:Box.method is reached"]


def test_a_row_for_a_deleted_function_is_stale(tmp_path):
    rows = KEPT + [("probe.py:gone", "codec", "was a decoder")]
    assert probe_verdict(tmp_path, rows) == ["stale keep.txt row: probe.py:gone is not defined"]


def test_keep_rows_skip_comments_and_keep_the_reason_whole(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("# header\n\na.py:f  codec  reads the wire document\n  # indented\nb.py:g  error\n")
    assert load_report().keep_rows(path) == [
        ("a.py:f", "codec", "reads the wire document"),
        ("b.py:g", "error", ""),
    ]


def test_committed_keep_list_names_existing_definitions_once_with_a_rule_and_reason():
    """The AST-only half of the ratchet: a function deleted with its row
    still in place fails here, without the traced run."""
    report = load_report()
    defined = report.qualnames(TOOL.parents[1] / "src" / "repro")
    rows = report.keep_rows(report.KEEP)
    keys = [key for key, _, _ in rows]
    assert rows, "keep.txt has no rows"
    assert sorted(set(keys) - defined) == [], "rows name functions that are not defined"
    assert sorted({key for key in keys if keys.count(key) > 1}) == [], "rows named twice"
    assert [key for key, rule, _ in rows if rule not in report.RULES] == [], "unknown rules"
    assert [key for key, _, reason in rows if not reason] == [], "rows without a reason"


# ----------------------------------------------------------------------
# A verdict that does not depend on the machine's speed
# ----------------------------------------------------------------------


def suite_outcome(tmp_path, body):
    """Run a one-file pytest suite as a traced entry point; ``None`` if the
    report counts it as passed."""
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "pytest.ini").write_text("[pytest]\n")
    (suite / "test_suite.py").write_text(textwrap.dedent(body))
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, REACH_OUT=str(out), PYTHONPATH=str(TOOL))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(suite)]
    return load_report().outcome(command, env)


def test_a_test_that_fails_only_under_the_tracer_leaves_the_report_green(tmp_path):
    body = '''
        import sys


        def test_untraced():
            assert sys.getprofile() is None


        def test_plain():
            assert True
    '''
    assert suite_outcome(tmp_path, body) is None


def test_a_test_that_fails_untraced_too_turns_the_report_red(tmp_path):
    body = '''
        import sys


        def test_untraced():
            assert sys.getprofile() is None


        def test_always():
            assert False, "fails everywhere"
    '''
    failure = suite_outcome(tmp_path, body)
    assert failure is not None and failure.startswith("exit 1 untraced")
    assert "test_always" in failure and "fails everywhere" in failure


def test_a_pytest_that_cannot_collect_fails_without_a_rerun(tmp_path):
    failure = suite_outcome(tmp_path, "import no_such_module_anywhere\n")
    assert failure is not None and failure.startswith("exit 2:")


def test_failed_tests_reads_the_ids_of_failed_and_error_summary_lines():
    output = textwrap.dedent(
        """\
        ..F.E
        =========================== short test summary info ============================
        FAILED benchmarks/test_speed.py::test_floor - assert 1.8 >= 3.0
        ERROR benchmarks/test_setup.py::TestWorld::test_build
        FAILED
        1 failed, 1 error in 0.12s
        """
    )
    assert load_report().failed_tests(output) == [
        "benchmarks/test_speed.py::test_floor",
        "benchmarks/test_setup.py::TestWorld::test_build",
    ]


def test_the_pytest_entry_point_ends_with_its_test_path():
    """``outcome`` swaps the last argument for the failed ids."""
    (run,) = [run for run in load_report().entry_points() if "pytest" in run]
    assert (TOOL.parents[1] / run[-1]).is_dir()


def test_a_passing_suite_is_counted_passed(tmp_path):
    assert suite_outcome(tmp_path, "def test_plain():\n    assert True\n") is None


def test_an_entry_point_that_is_not_pytest_is_not_rerun(tmp_path):
    """Only a pytest run's failures are re-run; any other exit 1 fails."""
    script = "print('FAILED test_suite.py::test_x'); raise SystemExit(1)"
    env = dict(os.environ, REACH_OUT=str(tmp_path), PYTHONPATH=str(TOOL))
    failure = load_report().outcome([sys.executable, "-c", script], env)
    assert failure is not None and failure.startswith("exit 1:")


def test_complaints_list_missing_rows_then_stale_rows_each_sorted(tmp_path):
    rows = [
        ("probe.py:Box.unused", "protocol", "a dunder"),
        ("probe.py:zeta", "codec", "was a decoder"),
        ("probe.py:Box.method", "protocol", "was a dunder"),
    ]
    assert probe_verdict(tmp_path, rows) == [
        "unreached, no keep.txt row: probe.py:idle",
        "unreached, no keep.txt row: probe.py:never",
        "stale keep.txt row: probe.py:Box.method is reached",
        "stale keep.txt row: probe.py:zeta is not defined",
    ]


# ----------------------------------------------------------------------
# The whole report: entry points, listing and exit code
# ----------------------------------------------------------------------


def run_report(tmp_path, rows, script=None):
    """Run ``main`` on a tree whose package is ``PROBE`` and whose one entry
    point is ``script``; returns the exit code."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "probe.py").write_text(PROBE)
    keep = tmp_path / "keep.txt"
    keep.write_text("".join(f"{key}  {rule}  {reason}\n" for key, rule, reason in rows))
    script = script or (
        "import repro.probe as p; p.decorated(); box = p.Box(); box.size; box.method()"
    )
    report = load_report()
    report.ROOT, report.KEEP = tmp_path, keep
    report.entry_points = lambda: [[sys.executable, "-c", script]]
    return report.main()


@pytest.mark.parametrize(
    "rows, complaint",
    [
        (KEPT, None),
        (KEPT[1:], "unreached, no keep.txt row: probe.py:idle"),
        (
            KEPT + [("probe.py:Box.method", "protocol", "was a dunder")],
            "stale keep.txt row: probe.py:Box.method is reached",
        ),
        (
            KEPT + [("probe.py:gone", "codec", "was a decoder")],
            "stale keep.txt row: probe.py:gone is not defined",
        ),
    ],
    ids=["every-row", "unlisted", "reached-row", "deleted-row"],
)
def test_the_report_exits_1_on_any_complaint(tmp_path, capsys, rows, complaint):
    code = run_report(tmp_path, rows)
    printed = capsys.readouterr().out
    assert "probe.py  (3 unreached, " in printed
    assert "total: 3 unreached" in printed
    if complaint is None:
        assert code == 0
    else:
        assert code == 1 and complaint in printed.splitlines()


def test_a_failed_entry_point_fails_the_report_even_with_every_row(tmp_path, capsys):
    script = (
        "import repro.probe as p; p.decorated(); box = p.Box(); box.size; box.method(); "
        "raise SystemExit(3)"
    )
    assert run_report(tmp_path, KEPT, script) == 1
    captured = capsys.readouterr()
    assert "keep.txt" not in captured.out  # no complaint: the failure alone fails it
    assert "exit 3:" in captured.err
