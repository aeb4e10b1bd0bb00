"""Record every function of ``src/repro`` this interpreter enters.

Imported at start-up by every Python process that has this directory on
``PYTHONPATH`` and ``REPRO_REACH_OUT`` set (the reach probe, ``probe.py``,
launches its targets that way).  A profile hook on every thread notes each
code object called; at exit — and at the end of each ``multiprocessing``
child, forked lanes included, which leave through ``os._exit`` — the
``repro`` ones are written to one JSON file per process under
``REPRO_REACH_OUT`` as ``[path, qualname, first line]`` triples.
"""

import atexit
import json
import os
import sys
import threading
import uuid

OUT = os.environ.get("REPRO_REACH_OUT")
PACKAGE = os.sep + "repro" + os.sep

if OUT:
    _seen = set()

    def _profile(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)

    def _dump():
        reached = sorted(
            {
                (code.co_filename, code.co_qualname, code.co_firstlineno)
                for code in list(_seen)
                if PACKAGE in code.co_filename
            }
        )
        path = os.path.join(OUT, f"{os.getpid()}-{uuid.uuid4().hex}.json")
        with open(path, "w") as handle:
            json.dump(reached, handle)

    def _install():
        import multiprocessing.process

        bootstrap = multiprocessing.process.BaseProcess._bootstrap

        def _bootstrap_and_dump(self, *args, **kwargs):
            try:
                return bootstrap(self, *args, **kwargs)
            finally:
                _dump()

        multiprocessing.process.BaseProcess._bootstrap = _bootstrap_and_dump
        atexit.register(_dump)
        threading.setprofile(_profile)
        sys.setprofile(_profile)

    _install()
