"""Record which functions under ``src/repro`` run in this process.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory first on ``PYTHONPATH``
traces a process and every Python child it starts with that environment.
Nothing happens unless ``REACH_OUT`` names a directory: then every thread's
``call`` events are recorded, and at exit (or on SIGTERM) the process writes
``<REACH_OUT>/<pid>.json``, a list of ``[file, co_firstlineno, co_name]``.
``report.py`` turns the dumps into the list of functions nothing called.
"""

import atexit
import json
import os
import signal
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_SCOPE = os.sep + os.path.join("src", "repro") + os.sep

if _OUT:
    _codes: set = set()

    def _profile(frame, event, arg):
        if event == "call":
            _codes.add(frame.f_code)

    def _dump() -> None:
        calls = sorted(
            {
                (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
                for code in list(_codes)
                if _SCOPE in code.co_filename
            }
        )
        with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w") as handle:
            json.dump(calls, handle)

    def _on_sigterm(signum, frame):
        _dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    sys.setprofile(_profile)
    threading.setprofile(_profile)
    atexit.register(_dump)
    signal.signal(signal.SIGTERM, _on_sigterm)
