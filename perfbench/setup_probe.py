"""Time nestor's set-up in a fresh process and print the seconds.

Set-up is the import of nestor (numpy and scipy included), the scenario
build and the non-degeneracy certificate:

    PYTHONPATH=src python3 perfbench/setup_probe.py '{"m": 2}' [--cli]

The first argument holds the keyword arguments of
``scenarios.build("paraboloid-segment", ...)``; ``--cli`` also imports
the command-line module.  Nothing is imported before the clock starts
except what the interpreter needs to read its arguments.  The output is
the wall seconds and the host slowdown read right after the set-up (see
hostspeed.py).
"""

import json
import sys
import time

t0 = time.perf_counter()
import nestor  # noqa: E402

if "--cli" in sys.argv[2:]:
    import nestor.cli  # noqa: E402,F401

nestor.build("paraboloid-segment", **json.loads(sys.argv[1])).model.certificate
wall_s = time.perf_counter() - t0

import hostspeed  # noqa: E402

print(repr(wall_s), repr(hostspeed.slowdown_now()))
