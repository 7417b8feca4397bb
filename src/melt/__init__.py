"""Desk-scale Lustre performance monitoring toolkit.

A cross-domain aggregation overlay (per-domain trees whose managers form a
ring under a session root), typed monitoring agents with pluggable metric
sources, the persistent ``meltmon`` daemon, the interactive ``melt`` tool,
and a deterministic simulator (``meltsim``) the whole stack is tested on.
"""

from .aggregates import (
    CountedKeyBody,
    HistogramBody,
    SummaryAgg,
    SummaryBody,
    body_from_text,
    body_to_text,
    display_value,
    fold_samples,
    merge,
    select_topk,
)
from .agent import AgentConfig, AgentCore, StatsFileSource, read_stats_file
from .catalog import CATALOG, MetricDef, metrics_for_class
from .humanize import humanize, parse_human
from .jobmap import CommandJobSource, FileJobSource, parse_jobmap_text
from .meltcli import CliCore, CliInvocation, parse_cli
from .meltmon import MeltmonCore, format_log_line, parse_log_line
from .overlay import ClientCore, OverlayHandle, build_overlay
from .scenario import ScenarioSpec, SyntheticSource, WorkloadModel, load_scenario, parse_scenario
from .simharness import (
    RunResult,
    SimCluster,
    message_accounting,
    oracle_aggregate,
    run_scenario,
)
from .simnet import SimHost
from .sockethost import SocketHost, serve_overlay
from .streams import StreamSpec, Target, parse_target
from .topology import DomainSpec, OverlayTopology, load_topology, parse_topology
from .transport import transport_connect
from .wire import Message, decode_frame, encode_message

__version__ = "0.1.0"

__all__ = [
    "AgentConfig", "AgentCore", "CATALOG", "CliCore", "CliInvocation",
    "ClientCore", "CommandJobSource", "CountedKeyBody", "DomainSpec",
    "FileJobSource", "HistogramBody", "MeltmonCore", "Message", "MetricDef",
    "OverlayHandle", "OverlayTopology", "RunResult", "ScenarioSpec",
    "SimCluster", "SimHost", "SocketHost", "StatsFileSource", "StreamSpec",
    "SummaryAgg", "SummaryBody", "SyntheticSource", "Target", "WorkloadModel",
    "body_from_text", "body_to_text", "build_overlay", "decode_frame",
    "display_value", "encode_message", "fold_samples", "format_log_line",
    "humanize", "load_scenario", "load_topology", "merge",
    "message_accounting", "metrics_for_class", "oracle_aggregate", "parse_cli",
    "parse_human", "parse_jobmap_text", "parse_log_line", "parse_scenario",
    "parse_target", "parse_topology", "read_stats_file", "run_scenario",
    "select_topk", "serve_overlay", "transport_connect",
]
