"""Each command imports only what it runs: the modules a fresh process holds after one command."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wardflow

SRC = str(Path(wardflow.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
HEAVY = ("numpy", "scipy", "networkx")
# the worker pool's packages, which only analyze needs
POOL = ("multiprocessing", "concurrent")
# runs one command as `python -m wardflow.cli` would, then writes the top-level package names it loaded
PROBE = """
import json, sys
from wardflow.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump(sorted({name.partition(".")[0] for name in sys.modules}), handle)
sys.exit(code)
"""

LOG = "admission_id,location,timestamp\n" + "".join(
    f"a{i},{ward},2016-03-01T{8 + j:02d}:00\n"
    for i in range(12) for j, ward in enumerate(("ED", f"ward{i % 4}", f"ward{(i + 1) % 4}", "CT"))
)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The packages of `watch` (the heavy ones by default) a fresh process loaded for a command (argv)."""
    work = tmp_path_factory.mktemp("imports")
    (work / "log.csv").write_text(LOG)

    def run(*argv, watch=HEAVY):
        out = work / "modules.json"
        subprocess.run([sys.executable, "-c", PROBE, str(out), *argv], cwd=work, env=ENV,
                       check=True, capture_output=True, timeout=300)
        return {name for name in json.loads(out.read_text()) if name in watch}

    return run


def test_version_loads_no_numeric_or_graph_package(loaded):
    assert loaded("--version", watch=HEAVY + POOL) == set()


@pytest.mark.parametrize("fmt", ["graphml", "edgelist", "dot"])
def test_build_loads_no_numeric_or_graph_package(loaded, fmt):
    assert loaded("build", "log.csv", "--format", fmt, "-o", f"net.{fmt}", watch=HEAVY + POOL) == set()


ANALYZE = ("--boot", "5", "--sw-samples", "1", "--sw-lattice-swaps", "200")


def test_analyze_loads_numpy_and_scipy_only(loaded):
    assert loaded("build", "log.csv", "-o", "net.graphml") == set()
    assert loaded("analyze", "net.graphml", *ANALYZE) == {"numpy", "scipy"}
    assert loaded("analyze", "log.csv", "--from-log", *ANALYZE) == {"numpy", "scipy"}
    assert loaded("analyze", "net.graphml", "--weighted-betweenness", *ANALYZE) == {"numpy", "scipy"}


SYNTH = ("synth", "--model", "ba", "--n", "30", "--m", "2", "--journeys", "40", "--mean-stops", "5")


def test_synth_loads_numpy_and_scipy_only(loaded):
    assert loaded(*SYNTH, "-o", "synth.csv") == {"numpy", "scipy"}


def test_export_loads_no_numeric_or_graph_package(loaded):
    assert loaded("build", "log.csv", "-o", "export.graphml") == set()
    assert loaded("export", "export.graphml", "--to", "dot", "-o", "net.dot", watch=HEAVY + POOL) == set()


# runs one command with networkx unimportable: `import networkx` raises ImportError
WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None
from wardflow.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_synth_build_analyze_run_without_networkx(tmp_path):
    def run(*argv):
        return subprocess.run([sys.executable, "-c", WITHOUT_NETWORKX, *argv], cwd=tmp_path, env=ENV,
                              check=True, capture_output=True, text=True, timeout=300).stdout

    run(*SYNTH, "-o", "log.csv")
    run("build", "log.csv", "-o", "net.graphml")
    report = json.loads(run("analyze", "net.graphml", "--weighted-betweenness", *ANALYZE))
    assert report["config"]["weighted_betweenness"] is True
    assert report["node_metrics"] and all("betweenness" in row for row in report["node_metrics"])
