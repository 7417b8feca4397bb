"""Desk-scale simulation harness: scenarios in, transcripts and oracles out.

``run_scenario`` instantiates the whole system (overlay, agents with
synthetic sources, optionally the monitoring daemon) on the deterministic
in-process host, advances a 1-second logical clock, applies scripted
faults, and returns a transcript of every sample, every per-hop data
record, and every multicast delivery. Replaying the same scenario yields a
byte-identical transcript.

``oracle_aggregate`` recomputes any (stream, round) result by folding the
leaf samples straight out of the transcript, bypassing the tree, and
``message_accounting`` turns the transcript into per-link frame counts for
the scalability assertions.
"""

from __future__ import annotations

import importlib.resources
import os
import sys
from dataclasses import dataclass, field

from .agent import AgentConfig, AgentCore
from .aggregates import Body, fold_samples
from .jobmap import WorkloadJobSource
from .meltcli import CliCore, CliInvocation, parse_cli
from .meltmon import MeltmonCore
from .overlay import ClientCore, OverlayHandle, build_overlay
from .scenario import ScenarioSpec, SyntheticSource, WorkloadModel, load_scenario
from .simnet import SimHost
from .streams import StreamSpec
from .topology import ConfigError

SIM_PID = 123  # deterministic pid for in-simulation daemons and tools


class SimCluster:
    """A running simulated deployment that tests can drive incrementally."""

    def __init__(self, spec: ScenarioSpec, job_source=None) -> None:
        spec.validate()
        self.spec = spec
        self.host = SimHost()
        self.handle: OverlayHandle = build_overlay(spec.topology, self.host)
        self.model = WorkloadModel(spec.topology, spec.workload, spec.seed)
        self.now = 0
        self.daemon: MeltmonCore | None = None

        for node in spec.topology.all_nodes():
            config = AgentConfig.from_topology(spec.topology, node)
            agent = AgentCore(config, SyntheticSource(self.model, node), spec.topology)
            self.handle.attach_agent(agent)
        if spec.meltmon_enabled:
            source = job_source or WorkloadJobSource(self.model, lambda: self.now)
            self.daemon = MeltmonCore(
                spec.topology, source, hostname=spec.topology.root_node,
                pid=SIM_PID, poll_secs=spec.poll_secs, base_time=spec.base_time)
            self.handle.add_client(self.daemon)
        self.host.pump()
        self._faults = sorted(spec.faults, key=lambda f: (f.time, f.kind, f.subject))

    # --- time ------------------------------------------------------------------

    def advance(self, seconds: int) -> None:
        for _ in range(seconds):
            t = self.now + 1
            self.apply_faults(t)
            self.host.tick(t)
            self.now = t

    def apply_faults(self, t: int) -> None:
        for fault in [f for f in self._faults if f.time == t]:
            self.host.transcript.append(("fault", t, fault.kind, fault.subject))
            if fault.kind == "detach-agent":
                self.handle.detach_agent(fault.subject, clean=False)
            else:  # drop-ring-link: sever the domain's outgoing data-direction edge
                self.host.sever_link(self.handle.managers[fault.subject].pid, "up")

    # --- session clients ----------------------------------------------------------

    def add_cli(self, argv: list[str] | CliInvocation, name: str = "melt") -> CliCore:
        inv = argv if isinstance(argv, CliInvocation) else parse_cli(argv)
        core = CliCore(inv, client_name=name, base_time=self.spec.base_time,
                       hostname=self.spec.topology.root_node, pid=SIM_PID)
        self.handle.add_client(core)
        self.host.pump()
        return core

    def add_client(self, core: ClientCore) -> ClientCore:
        self.handle.add_client(core)
        self.host.pump()
        return core

    # --- results ---------------------------------------------------------------------

    def result(self) -> "RunResult":
        transcript = list(self.host.transcript)
        transcript.extend(self.host.counters_snapshot())
        logs = {name: list(sink.lines) for name, sink in self.daemon.sinks.items()} \
            if self.daemon else {}
        streams = {sid: state.spec for sid, state in self.handle.root.streams.items()}
        return RunResult(self.spec, transcript, streams, logs, self)


@dataclass
class RunResult:
    spec: ScenarioSpec
    transcript: list[tuple]
    streams: dict[int, StreamSpec]
    logs: dict[str, list[str]] = field(default_factory=dict)
    cluster: SimCluster | None = None

    def transcript_text(self) -> str:
        return render_transcript(self.transcript)

    def root_records(self, stream_id: int | None = None) -> list[tuple]:
        out = [e for e in self.transcript if e[0] == "root-record"]
        if stream_id is not None:
            out = [e for e in out if e[2] == stream_id]
        return out


def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Build, run to the scenario's duration, and collect the transcript."""
    cluster = SimCluster(spec)
    cluster.advance(spec.duration)
    return cluster.result()


def render_transcript(events: list[tuple]) -> str:
    """Line-oriented text form: one event per line, stable field order."""
    lines = []
    for event in events:
        kind, t = event[0], event[1]
        rest = " ".join(_field_text(x) for x in event[2:])
        lines.append(f"{kind} t={t}" + (f" {rest}" if rest else ""))
    return "\n".join(lines) + "\n"


def _field_text(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# --- oracles -----------------------------------------------------------------------


def leaf_samples(result: RunResult, stream_id: int, rnd: int) -> list[tuple]:
    """(group, metric, value, weight) tuples in emission order for one round."""
    out = []
    for event in result.transcript:
        if event[0] == "sample" and event[3] == stream_id and event[4] == rnd:
            out.append((event[6], event[5], event[7], event[8]))
    return out


def oracle_aggregate(result: RunResult, stream_id: int, rnd: int) -> Body:
    """Flat left-to-right fold of a round's leaf samples, bypassing the tree."""
    spec = result.streams[stream_id]
    return fold_samples(leaf_samples(result, stream_id, rnd),
                        spec.aggregation, spec.hist_edges)


# --- message accounting ---------------------------------------------------------------


@dataclass
class Accounting:
    """Per-link frame counts distilled from a transcript."""

    data_per_edge: dict[tuple[int, int], dict[tuple[str, str], int]]
    ring_frames: dict[tuple[int, int], int]
    root_ingress: dict[tuple[int, int], int]
    multicast_per_link: dict[tuple[str, int], dict[tuple[str, str], int]]

    def tree_edge_counts(self, stream_id: int, rnd: int) -> dict[tuple[str, str], int]:
        edges = self.data_per_edge.get((stream_id, rnd), {})
        return {edge: n for edge, n in edges.items()
                if not edge[0].startswith("mgr.") and not edge[0] == "root"
                and not edge[1].startswith("client.")}


INFRA_PREFIXES = ("root", "mgr.", "rel.")


def message_accounting(result: RunResult) -> Accounting:
    data_per_edge: dict[tuple[int, int], dict[tuple[str, str], int]] = {}
    ring_frames: dict[tuple[int, int], int] = {}
    root_ingress: dict[tuple[int, int], int] = {}
    multicast: dict[tuple[str, int], dict[tuple[str, str], int]] = {}

    for event in result.transcript:
        if event[0] != "send":
            continue
        _kind, _t, src, dst, msg_type, key = event[:6]
        if msg_type == "Data":
            rnd = event[6]
            edge_map = data_per_edge.setdefault((key, rnd), {})
            edge_map[(src, dst)] = edge_map.get((src, dst), 0) + 1
            if src.startswith("mgr.") and (dst.startswith("mgr.") or dst == "root"):
                ring_frames[(key, rnd)] = ring_frames.get((key, rnd), 0) + 1
            if dst == "root":
                root_ingress[(key, rnd)] = root_ingress.get((key, rnd), 0) + 1
        elif msg_type in ("CreateStream", "SetRate", "JobMapUpdate"):
            if any(src == p or src.startswith(p) for p in INFRA_PREFIXES):
                link_map = multicast.setdefault((msg_type, key), {})
                link_map[(src, dst)] = link_map.get((src, dst), 0) + 1

    return Accounting(data_per_edge, ring_frames, root_ingress, multicast)


# --- meltsim entry point ------------------------------------------------------------------


def resolve_scenario_path(name: str) -> str:
    if os.path.exists(name):
        return name
    packaged = importlib.resources.files("melt") / "data" / name
    if packaged.is_file():
        return str(packaged)
    raise FileNotFoundError(f"scenario file {name!r} not found")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] != "run" or len(args) < 2:
        print("usage: meltsim run <scenario.cfg> [--transcript <out>]", file=sys.stderr)
        return 1
    out_path = None
    rest = args[1:]
    if "--transcript" in rest:
        idx = rest.index("--transcript")
        if idx + 1 >= len(rest):
            print("meltsim: --transcript needs a path", file=sys.stderr)
            return 1
        out_path = rest[idx + 1]
        rest = rest[:idx] + rest[idx + 2:]
    if len(rest) != 1:
        print("usage: meltsim run <scenario.cfg> [--transcript <out>]", file=sys.stderr)
        return 1

    try:
        spec = load_scenario(resolve_scenario_path(rest[0]))
        result = run_scenario(spec)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"meltsim: {exc}", file=sys.stderr)
        return 1

    text = result.transcript_text()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    records = len(result.root_records())
    log_lines = sum(len(lines) for lines in result.logs.values())
    print(f"meltsim: ran {spec.duration}s over {len(spec.topology.domains)} domains, "
          f"{len(result.streams)} streams, {records} root records, "
          f"{log_lines} log lines, {len(result.transcript)} transcript events")
    for name in sorted(result.logs):
        print(f"  {name}: {len(result.logs[name])} lines")
    if out_path:
        print(f"  transcript written to {out_path}")
    return 0
