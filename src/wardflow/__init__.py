"""Transfer-network analysis for patient location event logs.

Parsing, network building and the network file formats use the standard
library only. The modules that need numpy or scipy are registered
lazily: `wardflow.metrics` and the other analysis layers are in
`sys.modules` from the package import on, and each runs the first time one
of its attributes is read. So a command loads only what it uses, while code
that lists the loaded wardflow modules (the benchmark's tracer wraps their
functions) still finds every layer.
"""
import importlib.util
import sys

__version__ = "0.1.0"

# the analysis sections of a report, in report order; defined here so that
# the command line lists them without importing the analysis modules
SECTIONS = (
    "ingest",
    "network_summary",
    "node_metrics",
    "network_metrics",
    "fits",
    "small_world",
    "classification",
    "resilience",
)

from .eventlog import (
    AdmissionJourney,
    CategoryMap,
    IngestStats,
    LogSchema,
    apply_category_map,
    parse_event_log,
    read_category_map,
    reconstruct_journeys,
)
from .network import (
    TransferNetwork,
    as_symmetric_directed,
    build_network,
    export_network,
    import_network,
    undirected_projection,
)


def _register_lazily(name: str) -> None:
    """Put submodule `name` in sys.modules and on the package; it runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("paths", "metrics", "powerlaw", "smallworld", "classify", "resilience", "report", "synth"):
    _register_lazily(_name)
del _name

__all__ = [
    "__version__",
    "AdmissionJourney",
    "CategoryMap",
    "IngestStats",
    "LogSchema",
    "TransferNetwork",
    "apply_category_map",
    "as_symmetric_directed",
    "build_network",
    "export_network",
    "import_network",
    "parse_event_log",
    "read_category_map",
    "reconstruct_journeys",
    "undirected_projection",
]
