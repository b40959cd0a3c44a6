"""Network substrate (S3): graph-topology transport and Figure-4 costs."""

from .characterization import (
    CommCostModel,
    DEFAULT_PROBE_BYTES,
    PatternFit,
    ProbeEstimate,
    characterize_network,
    probe_link_parameters,
)
from .graph import (
    GraphNetwork,
    NetworkModel,
    NetworkStats,
    SharedBusNetwork,
    build_network,
)
from .parameters import (
    NetworkParameters,
    PAPER_BANDWIDTH_BPS,
    PAPER_LATENCY_S,
    transfer_seconds,
)
from .patterns import PATTERNS, all_to_all, all_to_one, measure_pattern, one_to_all
from .topology import (
    TOPOLOGY_KINDS,
    Topology,
    TopologySpec,
    parse_topology_spec,
    resolve_topology,
)

__all__ = [
    "CommCostModel",
    "DEFAULT_PROBE_BYTES",
    "GraphNetwork",
    "NetworkModel",
    "NetworkParameters",
    "NetworkStats",
    "PATTERNS",
    "PAPER_BANDWIDTH_BPS",
    "PAPER_LATENCY_S",
    "PatternFit",
    "ProbeEstimate",
    "SharedBusNetwork",
    "TOPOLOGY_KINDS",
    "Topology",
    "TopologySpec",
    "all_to_all",
    "all_to_one",
    "build_network",
    "characterize_network",
    "measure_pattern",
    "one_to_all",
    "parse_topology_spec",
    "probe_link_parameters",
    "resolve_topology",
    "transfer_seconds",
]
