"""Import boundaries: what a fresh interpreter loads for each entry point.

Each check runs in its own interpreter, since this test process has
long since imported everything.  The two dependencies the pipeline does
not need (``scipy.stats`` and ``networkx``) must stay out of every
module, and the commands that neither size nor solve must not load the
sizing layer or the LP solver behind it.
"""

import ast
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a command that neither sizes nor solves must not load.
SIZING = ("repro.core.sizing", "scipy.optimize")


def _loaded_after(code, probes):
    """Which of ``probes`` a fresh interpreter has loaded after ``code``."""
    script = (
        f"{code}\nimport sys\n"
        f"print(sorted(m for m in {tuple(probes)!r} if m in sys.modules))"
    )
    path = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_no_module_imports_scipy_stats_or_networkx():
    walk = (
        "import importlib, pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)"
    )
    # The walk does reach the solver, so the probes are live.
    assert _loaded_after(
        walk, ("scipy.stats", "networkx") + SIZING
    ) == sorted(SIZING)


def test_cli_module_imports_no_pipeline_layer():
    assert _loaded_after(
        "import repro.cli",
        SIZING + ("numpy", "repro.scenarios", "repro.dist", "repro.exec"),
    ) == []


def test_dist_worker_loads_no_sizing():
    # The real command against a live broker with no work: the worker
    # connects, idles out and returns.
    worker = (
        "import threading\n"
        "from repro.cli import main\n"
        "from repro.dist import BrokerServer\n"
        "server = BrokerServer(port=0)\n"
        "threading.Thread(target=server.serve_forever, daemon=True).start()\n"
        "host, port = server.address\n"
        "code = main(['dist', 'worker', f'{host}:{port}', '--max-idle', "
        "'0.2', '-q'])\n"
        "server.stop()\n"
        "assert code == 0"
    )
    assert _loaded_after(worker, SIZING) == []


def test_listing_inspecting_and_help_load_no_sizing(tmp_path):
    from repro.arch.dsl import serialize_topology
    from repro.arch.templates import amba_like

    arch = tmp_path / "amba.soc"
    arch.write_text(serialize_topology(amba_like()))
    commands = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['scenarios', 'list']) == 0\n"
        f"    assert main(['inspect', {str(arch)!r}]) == 0\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0"
    )
    assert _loaded_after(commands, SIZING) == []
