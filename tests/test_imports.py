"""Import boundaries: what a fresh interpreter loads for each entry point.

Each check runs in its own interpreter, since this test process has
long since imported everything.  The pipeline runs on numpy and scipy's
HiGHS extension alone: no module imports another scipy subpackage or
``networkx``, and the commands that neither size nor solve must not
load the sizing layer or the LP solver behind it.
"""

import ast
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a command that neither sizes nor solves must not load.
SIZING = ("repro.core.sizing", "scipy.optimize._highspy._core")

#: Libraries no module loads on import; a function that calls one imports it.
UNUSED = (
    "scipy.sparse",
    "scipy.optimize",
    "scipy.special",
    "scipy.linalg",
    "scipy.stats",
    "networkx",
)


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
    assert _loaded_after(walk, UNUSED + SIZING) == sorted(SIZING)


def test_sizing_loads_the_highs_extension_alone():
    size = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['size', '--scenario', 'amba']) == 0"
    )
    assert _loaded_after(size, UNUSED + SIZING) == sorted(SIZING)


def test_sizing_loads_no_simulator():
    # Bridge-buffer names live in repro.arch, so sizing never pays for
    # the simulator's lanes, kernel loader and thread pool.
    size = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['size', '--scenario', 'amba']) == 0"
    )
    root = os.path.join(SRC, "repro", "sim")
    sim = tuple(module for _, module in _modules(root, "repro.sim"))
    assert "repro.sim.megabatch" in sim
    assert _loaded_after(size, sim) == []


def test_scipy_optimize_reuses_the_loaded_extension():
    reuse = (
        "import sys\n"
        "from repro.core import compiled\n"
        "assert compiled.HAVE_HIGHS\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "from scipy.optimize._highspy import _core\n"
        "assert _core is compiled._highs\n"
        "from scipy.optimize import linprog\n"
        "r = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], "
        "method='highs')\n"
        "assert r.status == 0 and r.fun == 1.0, r\n"
        "assert sys.modules[compiled.HIGHS_MODULE] is compiled._highs"
    )
    assert _loaded_after(reuse, ("scipy.optimize",)) == ["scipy.optimize"]


def test_extension_already_imported_by_scipy_is_reused():
    reuse = (
        "import sys\n"
        "import scipy.optimize\n"
        "from repro.core import compiled\n"
        "assert compiled._highs is sys.modules[compiled.HIGHS_MODULE]\n"
        "assert compiled._highs is scipy.optimize._highspy._core"
    )
    _loaded_after(reuse, ())


def test_extension_outside_scipys_layout_is_imported_normally():
    # No suffix matches a file, so the loader falls back to a plain
    # import, which brings scipy.optimize with it; solves still work.
    fallback = (
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES = ['.missing']\n"
        "from repro.core import compiled\n"
        "assert compiled.HAVE_HIGHS\n"
        "from repro.core.lp import BlockLP\n"
        "from repro.core.ctmdp import CTMDP\n"
        "m = CTMDP()\n"
        "m.add_action('a', 'go', [('b', 1.0)], cost_rate=1.0)\n"
        "m.add_action('b', 'go', [('a', 1.0)], cost_rate=3.0)\n"
        "block = BlockLP()\n"
        "block.add_block(m)\n"
        "assert block.solve().objective == 2.0"
    )
    assert _loaded_after(fallback, ("scipy.optimize",)) == ["scipy.optimize"]


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


#: Layers below the fleet: ``repro.dist`` builds on them, never the
#: other way round.
BELOW_THE_FLEET = (
    "arch",
    "core",
    "sim",
    "exec",
    "analysis",
    "policies",
    "scenarios",
    "queueing",
    "experiments",
)


def _imports(path, module):
    """Every module ``path`` (module ``module``) names in an import,
    at any depth: function bodies count too."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    package = module if path.endswith("__init__.py") else (
        module.rpartition(".")[0]
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                source = f"{base}.{source}" if source else base
            yield source
            # ``from repro import dist`` names the package in an alias.
            yield from (f"{source}.{alias.name}" for alias in node.names)


def _modules(root, prefix):
    """``(path, module)`` for every ``.py`` file under ``root``."""
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            relative = os.path.relpath(path, root)[: -len(".py")]
            parts = [prefix, *relative.split(os.sep)]
            if parts[-1] == "__init__":
                parts.pop()
            yield path, ".".join(parts)


def _imports_dist(path, module):
    return sorted(
        name
        for name in set(_imports(path, module))
        if name == "repro.dist" or name.startswith("repro.dist.")
    )


def test_no_layer_below_the_fleet_imports_it():
    offenders = {}
    for layer in BELOW_THE_FLEET:
        root = os.path.join(SRC, "repro", layer)
        assert os.path.isdir(root), root
        for path, module in _modules(root, f"repro.{layer}"):
            found = _imports_dist(path, module)
            if found:
                offenders[module] = found
    assert offenders == {}
    # The walk is live: the CLI imports the fleet inside its commands.
    cli = os.path.join(SRC, "repro", "cli.py")
    assert "repro.dist" in _imports_dist(cli, "repro.cli")
