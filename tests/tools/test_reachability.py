"""The reachability report's matcher: what a traced process called is never
listed, what it did not call is, and nested functions are not listed alone.
The tracer itself follows every thread, survives SIGTERM and stays off unless
``REACH_OUT`` is set."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

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
