"""Start-up benchmarks: what a command costs before it does any work.

Each round starts a fresh interpreter, so the time includes the
interpreter's own start (tens of ms) plus every import the entry point
makes.  Five entry points:

* ``import repro.cli`` — what every command pays before parsing;
* the imports of ``repro dist worker`` — what a fleet host pays before
  its first lease;
* ``python -m repro.cli scenarios list`` — a whole command that builds
  every registry topology but sizes nothing;
* ``import repro.core.sizing`` — the sizing layer with its LP solver,
  which a worker imports for its first cell;
* ``python -m repro.cli size --scenario amba`` — a whole command that
  sizes, dominated by its imports (the LPs take milliseconds).

``diff_bench.py`` compares these on ``1 / mean``, so CI's bench diff
flags a start-up regression like any other slowdown.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

ENTRY_POINTS = {
    "import_cli": ["-c", "import repro.cli"],
    "dist_worker_imports": [
        "-c",
        "import repro.cli\nfrom repro.dist import worker_loop",
    ],
    "scenarios_list": ["-m", "repro.cli", "scenarios", "list"],
    "import_sizing": ["-c", "import repro.core.sizing"],
    "size_amba": ["-m", "repro.cli", "size", "--scenario", "amba"],
}


def _run(argv):
    path = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_startup(benchmark, entry):
    """Seconds from interpreter start to exit for one entry point."""
    benchmark(_run, ENTRY_POINTS[entry])
