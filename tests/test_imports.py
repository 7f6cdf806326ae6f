"""Each command imports only what it runs: the modules a fresh process holds after one command."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wardflow

SRC = str(Path(wardflow.__file__).resolve().parent.parent)
HEAVY = ("numpy", "scipy", "networkx")
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
    """The heavy packages a fresh process loaded for a command (argv)."""
    work = tmp_path_factory.mktemp("imports")
    (work / "log.csv").write_text(LOG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        out = work / "modules.json"
        subprocess.run([sys.executable, "-c", PROBE, str(out), *argv], cwd=work, env=env,
                       check=True, capture_output=True, timeout=300)
        return {name for name in json.loads(out.read_text()) if name in HEAVY}

    return run


def test_version_loads_no_numeric_or_graph_package(loaded):
    assert loaded("--version") == set()


@pytest.mark.parametrize("fmt", ["graphml", "edgelist", "dot"])
def test_build_loads_no_numeric_or_graph_package(loaded, fmt):
    assert loaded("build", "log.csv", "--format", fmt, "-o", f"net.{fmt}") == set()


ANALYZE = ("--boot", "5", "--sw-samples", "1", "--sw-lattice-swaps", "200")


def test_analyze_loads_networkx_only_for_weighted_betweenness(loaded):
    assert loaded("build", "log.csv", "-o", "net.graphml") == set()
    assert loaded("analyze", "net.graphml", *ANALYZE) == {"numpy", "scipy"}
    assert loaded("analyze", "log.csv", "--from-log", *ANALYZE) == {"numpy", "scipy"}
    assert loaded("analyze", "net.graphml", "--weighted-betweenness", *ANALYZE) == set(HEAVY)
