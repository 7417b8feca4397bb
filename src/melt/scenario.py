"""Scenario files and the deterministic synthetic workload model.

A scenario file bundles a topology, a run length, faults, and a workload
script. Workload lines::

    job <start_s> <end_s> <job_id> <client-node> [<client-node> ...]
    io <start_s> <end_s> <job_id> <read_Bps_per_client> <write_Bps_per_client> roundrobin|single:<oss>
    meta <start_s> <end_s> <job_id> <ops_per_s> <op>:<weight>[,<op>:<weight>...]
    paths <start_s> <end_s> <job_id> <path>:<accesses_per_s>[,...]
    load <node> <start_s> <end_s> <cpu_pct> <mem_pct>

Rate values accept plain numbers or humanized text ("156M" is 156 MiB/s).
Counters are evaluated in closed form (rate times interval overlap), so a
snapshot at time t never depends on sampling history and replays are exact.
Synthetic conventions: io operations are 1 MiB (which fixes the average
size/latency metrics), RPC request counts derive from io/meta volume, lock
counters stay flat, a node's counters carry the first filesystem its
domain mounts (none for routers), a ``roundrobin`` io event spreads over
the OSTs of the OSS domains that serve its clients' filesystems, and only
the seed-selected MDS node of a fail-over pair reports metadata activity.

A snapshot may be asked for only some counter and gauge names, the ones an
agent's streams read: a client snapshot then builds only those, with
the same values, bit for bit, as a whole one. Server and router snapshots
are always whole.
"""

from __future__ import annotations

import datetime as _dt
import heapq
import math
from dataclasses import dataclass, field

from .agent import SourceSnapshot
from .humanize import HumanizeError, parse_human
from .topology import ConfigError, OverlayTopology, parse_sections, topology_from_sections

IO_OP_BYTES = float(1024 * 1024)   # one synthetic io operation
RPC_BYTES = float(1024 * 1024)     # payload carried per synthetic RPC
RPC_WAIT_SECS = 0.0005
DIRTY_SECONDS = 2.0                # write-back buffer depth in seconds of traffic

META_OP_RAW = {"open": "META_OPEN", "close": "META_CLOSE", "mkdir": "META_MKDIR",
               "unlink": "META_UNLINK", "stat": "META_STAT"}

# what a client snapshot holds: counters at the filesystem level, counters
# per OST in this order, and gauges
CLIENT_FS_COUNTERS = ("IO_RD_BYTES", "IO_WR_BYTES", "META_OPS", "RPC_REQS", "RPC_WAIT_SUM")
CLIENT_OST_COUNTERS = ("IO_RD_BYTES", "IO_WR_BYTES", "IO_RD_OPS", "IO_WR_OPS",
                       "IO_RD_TIME_SUM", "IO_WR_TIME_SUM", "RPC_REQS", "RPC_WAIT_SUM")
CLIENT_META_READERS = frozenset(("META_OPS", "RPC_REQS", "RPC_WAIT_SUM",
                                 *META_OP_RAW.values()))
LOAD_GAUGES = ("LOAD_CPU_PCT", "LOAD_MEM_PCT")
CLIENT_NAMES = frozenset((*CLIENT_FS_COUNTERS, *CLIENT_OST_COUNTERS, *CLIENT_META_READERS,
                          "IO_CLNT_DIRTY", *LOAD_GAUGES))

DEFAULT_BASE_TIME = int(_dt.datetime(2015, 1, 15, 11, 22, 33,
                                     tzinfo=_dt.timezone.utc).timestamp())


@dataclass(frozen=True)
class JobEvent:
    start: int
    end: int
    job_id: str
    nodes: tuple[str, ...]


@dataclass(frozen=True)
class IoEvent:
    start: int
    end: int
    job_id: str
    read_bps: float
    write_bps: float
    spread: str  # "roundrobin" or "single:<oss-node>"


@dataclass(frozen=True)
class MetaEvent:
    start: int
    end: int
    job_id: str
    ops_per_s: float
    weights: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class PathsEvent:
    start: int
    end: int
    job_id: str
    weights: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class LoadEvent:
    node: str
    start: int
    end: int
    cpu_pct: float
    mem_pct: float


@dataclass(frozen=True)
class Fault:
    time: int
    kind: str     # detach-agent | drop-ring-link
    subject: str  # node id | domain id


@dataclass
class WorkloadScript:
    jobs: tuple[JobEvent, ...] = ()
    io: tuple[IoEvent, ...] = ()
    meta: tuple[MetaEvent, ...] = ()
    paths: tuple[PathsEvent, ...] = ()
    loads: tuple[LoadEvent, ...] = ()


def _rate(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        pass
    try:
        return parse_human(token)
    except HumanizeError:
        raise ConfigError(f"{where}: bad rate value {token!r}") from None


def _integer(token: str, where: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"{where}: {what} must be an integer, not {token!r}") from None


def _weights(token: str, where: str) -> tuple[tuple[str, float], ...]:
    out = []
    for part in token.split(","):
        name, sep, weight = part.partition(":")
        if not sep or not name:
            raise ConfigError(f"{where}: bad weight entry {part!r}, want name:weight")
        try:
            value = float(weight)
        except ValueError:
            raise ConfigError(f"{where}: bad weight {weight!r}") from None
        if value <= 0:
            raise ConfigError(f"{where}: weights must be positive")
        out.append((name, value))
    return tuple(out)


def parse_workload(lines, source: str = "<workload>",
                   located: dict | None = None) -> WorkloadScript:
    """Parse (lineno, text) pairs into a validated workload script; if
    ``located`` is given, map each event in it to its ``<source>:<lineno>``."""
    jobs: list[JobEvent] = []
    io: list[IoEvent] = []
    meta: list[MetaEvent] = []
    paths: list[PathsEvent] = []
    loads: list[LoadEvent] = []

    def span(a: str, b: str, where: str) -> tuple[int, int]:
        try:
            start, end = int(a), int(b)
        except ValueError:
            raise ConfigError(f"{where}: bad interval {a!r}..{b!r}") from None
        if start < 0 or end <= start:
            raise ConfigError(f"{where}: interval must satisfy 0 <= start < end")
        return start, end

    for lineno, text in lines:
        where = f"{source}:{lineno}"
        parts = text.split()
        kind = parts[0]
        if kind == "job":
            if len(parts) < 5:
                raise ConfigError(f"{where}: job needs start end id and at least one node")
            start, end = span(parts[1], parts[2], where)
            ev = JobEvent(start, end, parts[3], tuple(parts[4:]))
            jobs.append(ev)
        elif kind == "io":
            if len(parts) != 7:
                raise ConfigError(f"{where}: io needs start end job read write spread")
            start, end = span(parts[1], parts[2], where)
            spread = parts[6]
            if spread != "roundrobin" and not spread.startswith("single:"):
                raise ConfigError(f"{where}: spread must be roundrobin or single:<oss>")
            ev = IoEvent(start, end, parts[3], _rate(parts[4], where),
                         _rate(parts[5], where), spread)
            io.append(ev)
        elif kind == "meta":
            if len(parts) != 6:
                raise ConfigError(f"{where}: meta needs start end job rate weights")
            start, end = span(parts[1], parts[2], where)
            ev = MetaEvent(start, end, parts[3], _rate(parts[4], where),
                           _weights(parts[5], where))
            meta.append(ev)
        elif kind == "paths":
            if len(parts) != 5:
                raise ConfigError(f"{where}: paths needs start end job weights")
            start, end = span(parts[1], parts[2], where)
            ev = PathsEvent(start, end, parts[3], _weights(parts[4], where))
            paths.append(ev)
        elif kind == "load":
            if len(parts) != 6:
                raise ConfigError(f"{where}: load needs node start end cpu mem")
            start, end = span(parts[2], parts[3], where)
            ev = LoadEvent(parts[1], start, end,
                           _rate(parts[4], where), _rate(parts[5], where))
            loads.append(ev)
        else:
            raise ConfigError(f"{where}: unknown workload event {kind!r}")
        if located is not None:
            located.setdefault(ev, where)

    declared = {j.job_id for j in jobs}
    if len(declared) != len(jobs):
        raise ConfigError(f"{source}: duplicate job ids")
    for ev in [*io, *meta, *paths]:
        if ev.job_id not in declared:
            raise ConfigError(f"{source}: event references undeclared job {ev.job_id!r}")
    # a node runs one job at a time: sweep each node's jobs by start time and
    # name the clash a scan of all pairs in job order would meet first
    by_node: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        for node in set(job.nodes):
            by_node.setdefault(node, []).append(i)
    clash = None
    for on_node in by_node.values():
        running: list[tuple[int, int]] = []  # heap of (end, index) still running
        for i in sorted(on_node, key=lambda i: jobs[i].start):
            while running and running[0][0] <= jobs[i].start:
                heapq.heappop(running)
            for _end, k in running:
                pair = (min(i, k), max(i, k))
                if clash is None or pair < clash:
                    clash = pair
            heapq.heappush(running, (jobs[i].end, i))
    if clash is not None:
        j, other = jobs[clash[0]], jobs[clash[1]]
        shared = set(j.nodes) & set(other.nodes)
        raise ConfigError(f"{source}: node {sorted(shared)[0]} is in overlapping "
                          f"jobs {j.job_id} and {other.job_id}")
    return WorkloadScript(tuple(jobs), tuple(io), tuple(meta), tuple(paths), tuple(loads))


@dataclass
class ScenarioSpec:
    topology: OverlayTopology
    workload: WorkloadScript = field(default_factory=WorkloadScript)
    duration: int = 60
    seed: int = 0
    poll_secs: int = 5
    meltmon_enabled: bool = True
    base_time: int = DEFAULT_BASE_TIME
    faults: tuple[Fault, ...] = ()

    def validate(self, located: dict | None = None) -> None:
        """Raise ConfigError for a scenario that cannot run. ``located``, if
        given, maps "duration", "poll", and each fault and workload event, to
        the ``<file>:<line>`` that set it, and an error about one of them
        starts with that."""
        located = located or {}

        def error(item, message: str) -> ConfigError:
            where = located.get(item)
            return ConfigError(f"{where}: {message}" if where else message)

        if self.duration <= 0:
            raise error("duration", "scenario duration must be positive")
        if self.poll_secs < 1:
            raise error("poll", "poll interval must be >= 1 second")
        for group in (self.workload.jobs, self.workload.io, self.workload.meta,
                      self.workload.paths, self.workload.loads):
            for ev in group:
                if ev.end > self.duration:
                    raise error(ev, f"workload event ends at {ev.end}, after the "
                                    f"{self.duration}s scenario")
        for job in self.workload.jobs:
            for node in job.nodes:
                if not self.topology.has_node(node):
                    raise error(job, f"job {job.job_id} references unknown node {node!r}")
        for ev in self.workload.loads:
            if not self.topology.has_node(ev.node):
                raise error(ev, f"load event references unknown node {ev.node!r}")
        for ev in self.workload.io:
            if ev.spread.startswith("single:"):
                oss = ev.spread[len("single:"):]
                if oss not in self.topology.servers("oss"):
                    raise error(ev, f"io spread references unknown oss {oss!r}")
        detached: set[str] = set()
        for fault in self.faults:
            if fault.kind == "detach-agent":
                if not self.topology.has_node(fault.subject):
                    raise error(fault, f"fault subject {fault.subject!r} is not a node")
                if fault.subject in detached:  # it has no agent left to detach
                    raise error(fault, f"the agent on {fault.subject} is already detached")
                detached.add(fault.subject)
            elif fault.kind == "drop-ring-link":
                if fault.subject not in self.topology.ring_order:
                    raise error(fault, f"fault subject {fault.subject!r} is not a domain")
            else:
                raise error(fault, f"unknown fault kind {fault.kind!r}")
            if not 0 <= fault.time <= self.duration:
                raise error(fault, "fault time outside scenario duration")


def parse_scenario(text: str, source: str = "<scenario>") -> ScenarioSpec:
    sections = parse_sections(text, source)
    topology = topology_from_sections(sections, source)

    duration, seed, poll = 60, 0, 5
    meltmon_enabled = True
    base_time = DEFAULT_BASE_TIME
    faults: list[Fault] = []
    workload_lines: list[tuple[int, str]] = []
    located: dict = {}  # what validate names by its line

    for header, pairs, bare in sections:
        if header == "scenario":
            for lineno, key, value in pairs:
                where = f"{source}:{lineno}"
                if key in ("duration", "poll"):
                    located[key] = where
                if key == "duration":
                    duration = _integer(value, where, "duration")
                elif key == "seed":
                    seed = _integer(value, where, "seed")
                elif key == "poll":
                    poll = _integer(value, where, "poll")
                elif key == "meltmon":
                    if value not in ("on", "off"):
                        raise ConfigError(f"{where}: meltmon must be on or off")
                    meltmon_enabled = value == "on"
                elif key == "base_time":
                    try:
                        stamp = _dt.datetime.fromisoformat(value)
                    except ValueError:
                        raise ConfigError(f"{where}: bad base_time {value!r}") from None
                    base_time = int(stamp.replace(tzinfo=_dt.timezone.utc).timestamp())
                elif key == "fault":
                    parts = value.split()
                    if len(parts) != 3:
                        raise ConfigError(f"{where}: fault wants '<time> <kind> <subject>'")
                    faults.append(Fault(_integer(parts[0], where, "fault time"),
                                        parts[1], parts[2]))
                    located.setdefault(faults[-1], where)
                else:
                    raise ConfigError(f"{where}: unknown key {key!r} in [scenario]")
            if bare:
                raise ConfigError(f"{source}:{bare[0][0]}: stray line in [scenario]")
        elif header == "workload":
            workload_lines.extend(bare)
            if pairs:
                raise ConfigError(f"{source}:{pairs[0][0]}: workload lines must not contain '='")

    workload = parse_workload(workload_lines, source, located)
    spec = ScenarioSpec(topology, workload, duration, seed, poll,
                        meltmon_enabled, base_time, tuple(faults))
    spec.validate(located)
    return spec


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read(), source=path)


# --- closed-form counter model -------------------------------------------------


def _overlap(t: float, start: float, end: float) -> float:
    return max(0.0, min(t, end) - start)


@dataclass
class _Flow:
    start: int
    end: int
    job_id: str
    nodes: tuple[str, ...]
    read_bps: float
    write_bps: float
    osts: tuple[str, ...]


class WorkloadModel:
    """Closed-form counter trajectories for every node in a scenario.

    Client nodes fall into classes: two clients share a class when they
    share every input of a client snapshot, that is their filesystem, io
    flows, metadata events and load events, as the nodes of one job with no
    load event of their own do. A client snapshot is computed once per
    class, names and tick, and every client of the class gets that same
    object; the model keeps the current tick's snapshots only. Snapshots
    are read-only: an agent keeps one as its previous round's and reads
    it, and must never change it.
    """

    def __init__(self, topology: OverlayTopology, workload: WorkloadScript,
                 seed: int = 0) -> None:
        self.topology = topology
        self.workload = workload
        # node -> the filesystem its counters carry: its domain's first
        self.fs_of = {node: domain.filesystems[0] if domain.filesystems else ""
                      for domain in topology.domains for node in domain.member_nodes}
        self.role_of = {node: domain.lustre_role
                        for domain in topology.domains for node in domain.member_nodes}
        # a client snapshot's counter keys, made once per (fs, names) and per
        # (fs, ost, names): every snapshot reuses the same key objects, so a
        # grouping plan and the snapshot an agent keeps share them
        self._fs_keys: dict[tuple, tuple[tuple, dict]] = {}
        self._ost_keys: dict[tuple, tuple[tuple[int, tuple], ...]] = {}
        self.jobs = {j.job_id: j for j in workload.jobs}
        all_osts = [(ost, d.filesystems) for d in topology.domains if d.lustre_role == "oss"
                    for ost in d.osts]
        if all_osts:
            shift = seed % len(all_osts)
            all_osts = all_osts[shift:] + all_osts[:shift]
        self.all_osts = tuple(all_osts)
        self.flows = [self._flow(ev) for ev in workload.io]
        mds_nodes = topology.servers("mds")
        self.active_mds = mds_nodes[seed % len(mds_nodes)] if mds_nodes else ""
        self.meta = [self._clamp(ev) for ev in workload.meta]
        self.paths = [self._clamp(ev) for ev in workload.paths]
        # node -> its io flows and meta events, each in script order, so a
        # client snapshot touches only its own events and sums in the same order
        self.flows_of: dict[str, list[_Flow]] = {}
        for flow in self.flows:
            if flow is not None:
                for node in dict.fromkeys(flow.nodes):
                    self.flows_of.setdefault(node, []).append(flow)
        self.meta_of: dict[str, list[MetaEvent]] = {}
        for ev in self.meta:
            if ev is not None:
                for node in dict.fromkeys(self.jobs[ev.job_id].nodes):
                    self.meta_of.setdefault(node, []).append(ev)
        self.loads_of: dict[str, list[LoadEvent]] = {}
        for ev in workload.loads:
            self.loads_of.setdefault(ev.node, []).append(ev)
        # client -> its class, numbered by the filesystem and the identities
        # of the flows, meta events and load events a client snapshot reads;
        # and the current tick with its snapshots by (class, names)
        classes: dict[tuple, int] = {}
        self.class_of = {
            node: classes.setdefault(
                (self.fs_of[node], *map(id, self.flows_of.get(node, ())),
                 *map(id, self.meta_of.get(node, ())), *map(id, self.loads_of.get(node, ()))),
                len(classes))
            for node, role in self.role_of.items() if role == "client"}
        self._shared_t = -1
        self._shared: dict[tuple[int, frozenset[str]], SourceSnapshot] = {}
        # server -> its OSTs, and the io flows that touch them in script
        # order, so a server snapshot visits only its own flows and sums in
        # the same order
        self.server_osts: dict[str, frozenset[str]] = {}
        servers_of: dict[str, list[str]] = {}
        for domain in topology.domains:
            for node in domain.member_nodes:
                if mine := domain.osts_of(node):
                    self.server_osts[node] = frozenset(mine)
                    for ost in mine:
                        servers_of.setdefault(ost, []).append(node)
        self.server_flows_of: dict[str, list[_Flow]] = {}
        for flow in self.flows:
            if flow is not None:
                for node in dict.fromkeys(n for ost in flow.osts for n in servers_of.get(ost, ())):
                    self.server_flows_of.setdefault(node, []).append(flow)

    def _clamp(self, ev):
        job = self.jobs[ev.job_id]
        start, end = max(ev.start, job.start), min(ev.end, job.end)
        if end <= start:
            return None
        if (start, end) == (ev.start, ev.end):
            return ev
        from dataclasses import replace
        return replace(ev, start=start, end=end)

    def _flow(self, ev: IoEvent) -> "_Flow | None":
        job = self.jobs[ev.job_id]
        start, end = max(ev.start, job.start), min(ev.end, job.end)
        if end <= start:
            return None
        if ev.spread == "roundrobin":  # the OSTs of the OSS domains serving its nodes' fs
            mounted = {self.fs_of[node] for node in job.nodes}
            osts = tuple(ost for ost, served in self.all_osts if not mounted.isdisjoint(served))
        else:
            oss = ev.spread[len("single:"):]
            osts = self.topology.domain_of_node(oss).osts_of(oss)
        if not osts:
            osts = ("-",)
        return _Flow(start, end, ev.job_id, job.nodes, ev.read_bps, ev.write_bps, osts)

    # job scheduling ------------------------------------------------------------

    def active_jobs(self, t: int) -> dict[str, tuple[str, ...]]:
        return {j.job_id: j.nodes for j in self.workload.jobs if j.start <= t < j.end}

    def jobmap_text(self, t: int) -> str:
        lines = [f"{job} " + " ".join(nodes)
                 for job, nodes in sorted(self.active_jobs(t).items())]
        return "\n".join(lines) + ("\n" if lines else "")

    # per-role counter snapshots ---------------------------------------------------

    def _client_io(self, node: str, t: int):
        """Yields (ost, rd_bytes, wr_bytes, rd_ops, wr_ops, rd_tsum, wr_tsum)."""
        per_ost: dict[str, list[float]] = {}
        for flow in self.flows_of.get(node, ()):
            ov = _overlap(t, flow.start, flow.end)
            if ov <= 0:
                continue
            share = 1.0 / len(flow.osts)
            for ost in flow.osts:
                cell = per_ost.setdefault(ost, [0.0] * 6)
                rd, wr = flow.read_bps * ov * share, flow.write_bps * ov * share
                cell[0] += rd
                cell[1] += wr
                cell[2] += rd / IO_OP_BYTES
                cell[3] += wr / IO_OP_BYTES
                cell[4] += ov * share if flow.read_bps > 0 else 0.0
                cell[5] += ov * share if flow.write_bps > 0 else 0.0
        return sorted(per_ost.items())

    def _client_meta_ops(self, node: str, t: int) -> dict[str, float]:
        """Cumulative metadata ops by raw counter name for one client."""
        out: dict[str, float] = {"META_OPS": 0.0}
        for ev in self.meta_of.get(node, ()):
            nodes = self.jobs[ev.job_id].nodes
            ov = _overlap(t, ev.start, ev.end)
            share = ev.ops_per_s * ov / len(nodes)
            out["META_OPS"] += share
            total_w = sum(w for _, w in ev.weights)
            for op, w in ev.weights:
                raw = META_OP_RAW.get(op)
                if raw:
                    out[raw] = out.get(raw, 0.0) + share * w / total_w
        return out

    def _client_fs_keys(self, fs: str, names: frozenset[str]) -> tuple[tuple, dict]:
        """The filesystem-level keys of a client snapshot of ``names``: the
        ones it zeroes, in order, and raw name -> key of all it may write."""
        keys = self._fs_keys.get((fs, names))
        if keys is None:
            key_of = {raw: (raw, fs, "", "", "")
                      for raw in (*CLIENT_FS_COUNTERS, *META_OP_RAW.values()) if raw in names}
            zeroed = tuple(key_of[raw] for raw in CLIENT_FS_COUNTERS if raw in names)
            keys = self._fs_keys[(fs, names)] = (zeroed, key_of)
        return keys

    def _client_ost_keys(self, fs: str, ost: str,
                         names: frozenset[str]) -> tuple[tuple[int, tuple], ...]:
        """(position in a per-OST row, key) of each per-OST counter of ``names``."""
        keys = self._ost_keys.get((fs, ost, names))
        if keys is None:
            keys = self._ost_keys[(fs, ost, names)] = tuple(
                (i, (raw, fs, ost, "", "")) for i, raw in enumerate(CLIENT_OST_COUNTERS)
                if raw in names)
        return keys

    def snapshot_client(self, node: str, t: int,
                        names: frozenset[str] = CLIENT_NAMES) -> SourceSnapshot:
        """A client's counters and gauges; only those of ``names``. The
        clients of one class get the same read-only object at one tick."""
        if t != self._shared_t:
            self._shared_t, self._shared = t, {}
        key = (self.class_of[node], names)
        snap = self._shared.get(key)
        if snap is None:
            snap = self._shared[key] = self._client_snapshot(node, t, names)
        return snap

    def _client_snapshot(self, node: str, t: int, names: frozenset[str]) -> SourceSnapshot:
        snap = SourceSnapshot(ts=t)
        counters = snap.counters
        fs = self.fs_of[node]
        zeroed, fs_key = self._client_fs_keys(fs, names)
        for key in zeroed:
            counters[key] = 0.0
        if not names.isdisjoint(CLIENT_OST_COUNTERS):
            for ost, cell in self._client_io(node, t):
                rd, wr = cell[0], cell[1]
                reqs = float(math.floor((rd + wr) / RPC_BYTES))
                # operation and request counters are integral, like the real thing
                row = (rd, wr, float(math.floor(cell[2])), float(math.floor(cell[3])),
                       cell[4], cell[5], reqs, reqs * RPC_WAIT_SECS)
                for i, key in self._client_ost_keys(fs, ost, names):
                    counters[key] = row[i]
        if not names.isdisjoint(CLIENT_META_READERS):
            ops = self._client_meta_ops(node, t)
            for raw, value in sorted(ops.items()):
                if raw in names:
                    counters[fs_key[raw]] = float(math.floor(value))
            meta_ops = float(math.floor(ops["META_OPS"]))
            if "RPC_REQS" in names:
                counters[fs_key["RPC_REQS"]] = meta_ops
            if "RPC_WAIT_SUM" in names:
                counters[fs_key["RPC_WAIT_SUM"]] = meta_ops * RPC_WAIT_SECS
        if "IO_CLNT_DIRTY" in names:
            dirty = 0.0
            for flow in self.flows_of.get(node, ()):
                if flow.start <= t < flow.end:
                    dirty += flow.write_bps * DIRTY_SECONDS
            snap.gauges[("IO_CLNT_DIRTY", fs)] = dirty
        if not names.isdisjoint(LOAD_GAUGES):
            self._loads(node, t, snap, names)
        return snap

    def snapshot_oss(self, node: str, t: int) -> SourceSnapshot:
        snap = SourceSnapshot(ts=t)
        fs = self.fs_of[node]
        mine = self.server_osts.get(node, frozenset())
        for raw in ("IO_RD_BYTES", "IO_WR_BYTES", "RPC_REQS", "RPC_WAIT_SUM",
                    "LOCK_GRANTS", "LOCK_CANCELS"):
            snap.counters[(raw, fs, "", "", "")] = 0.0
        io_bytes = 0.0
        for flow in self.server_flows_of.get(node, ()):
            ov = _overlap(t, flow.start, flow.end)
            if ov <= 0:
                continue
            share = 1.0 / len(flow.osts)
            for ost in flow.osts:
                if ost not in mine:
                    continue
                for client in flow.nodes:
                    rd = flow.read_bps * ov * share
                    wr = flow.write_bps * ov * share
                    for raw, value in (("IO_RD_BYTES", rd), ("IO_WR_BYTES", wr)):
                        key = (raw, fs, ost, flow.job_id, client)
                        snap.counters[key] = snap.counters.get(key, 0.0) + value
                    io_bytes += rd + wr
        reqs = float(math.floor(io_bytes / RPC_BYTES))
        snap.counters[("RPC_REQS", fs, "", "", "")] = reqs
        snap.counters[("RPC_WAIT_SUM", fs, "", "", "")] = reqs * RPC_WAIT_SECS
        snap.gauges[("LOCK_COUNT", "")] = 0.0
        return snap

    def snapshot_mds(self, node: str, t: int) -> SourceSnapshot:
        snap = SourceSnapshot(ts=t)
        fs = self.fs_of[node]
        for raw in ("META_OPS", "RPC_REQS", "RPC_WAIT_SUM", "LOCK_GRANTS", "LOCK_CANCELS"):
            snap.counters[(raw, fs, "", "", "")] = 0.0
        snap.gauges[("LOCK_COUNT", "")] = 0.0
        if node != self.active_mds:
            return snap
        total = 0.0
        per_op: dict[str, float] = {}
        per_client: dict[str, float] = {}
        for ev in self.meta:
            if ev is None:
                continue
            ov = _overlap(t, ev.start, ev.end)
            amount = ev.ops_per_s * ov
            total += amount
            total_w = sum(w for _, w in ev.weights)
            for op, w in ev.weights:
                per_op[op] = per_op.get(op, 0.0) + amount * w / total_w
                raw = META_OP_RAW.get(op)
                if raw:
                    key = (raw, fs, "", "", "")
                    snap.counters[key] = snap.counters.get(key, 0.0) + amount * w / total_w
            nodes = self.jobs[ev.job_id].nodes
            for client in nodes:
                per_client[client] = per_client.get(client, 0.0) + amount / len(nodes)
        total = float(math.floor(total))
        for key in sorted(snap.counters):
            if key[0].startswith("META_") and key[0] != "META_OPS":
                snap.counters[key] = float(math.floor(snap.counters[key]))
        snap.counters[("META_OPS", fs, "", "", "")] = total
        snap.counters[("RPC_REQS", fs, "", "", "")] = total
        snap.counters[("RPC_WAIT_SUM", fs, "", "", "")] = total * RPC_WAIT_SECS
        for op, count in sorted(per_op.items()):
            snap.counted[("op", op)] = math.floor(count)
        for client, count in sorted(per_client.items()):
            snap.counted[("client", client)] = math.floor(count)
        for ev in self.paths:
            if ev is None:
                continue
            ov = _overlap(t, ev.start, ev.end)
            for path, per_sec in ev.weights:
                key = ("path", path)
                snap.counted[key] = snap.counted.get(key, 0.0) + per_sec * ov
        for key in [k for k in snap.counted if k[0] == "path"]:
            snap.counted[key] = math.floor(snap.counted[key])
        return snap

    def snapshot_router(self, node: str, t: int) -> SourceSnapshot:
        snap = SourceSnapshot(ts=t)
        routers = self.topology.servers("router")
        share = 1.0 / len(routers) if routers else 0.0
        total_bytes = 0.0
        total_meta = 0.0
        for flow in self.flows:
            if flow is None:
                continue
            ov = _overlap(t, flow.start, flow.end)
            total_bytes += (flow.read_bps + flow.write_bps) * ov * len(flow.nodes)
        for ev in self.meta:
            if ev is None:
                continue
            total_meta += ev.ops_per_s * _overlap(t, ev.start, ev.end)
        reqs = float(math.floor((total_bytes / RPC_BYTES + total_meta) * share))
        snap.counters[("RPC_REQS", "", "", "", "")] = reqs
        snap.counters[("RPC_WAIT_SUM", "", "", "", "")] = reqs * RPC_WAIT_SECS
        self._loads(node, t, snap)
        return snap

    def _loads(self, node: str, t: int, snap: SourceSnapshot,
               names: frozenset[str] = CLIENT_NAMES) -> None:
        cpu = mem = 0.0
        for ev in self.loads_of.get(node, ()):
            if ev.start <= t < ev.end:
                cpu, mem = ev.cpu_pct, ev.mem_pct
        for name, value in zip(LOAD_GAUGES, (cpu, mem)):
            if name in names:
                snap.gauges[(name, "")] = value

    def snapshot(self, node: str, t: int, names: frozenset[str] | None = None) -> SourceSnapshot:
        """The node's snapshot at ``t``; a client's holds only ``names``,
        if given, and every other role's is whole."""
        role = self.role_of.get(node)
        if role is None:  # an unknown node: the topology's KeyError
            role = self.topology.domain_of_node(node).lustre_role
        if role == "client":
            return self.snapshot_client(node, t, CLIENT_NAMES if names is None else names)
        if role == "oss":
            return self.snapshot_oss(node, t)
        if role == "mds":
            return self.snapshot_mds(node, t)
        return self.snapshot_router(node, t)


class SyntheticSource:
    """MetricSource over the workload model for one node. Its snapshots are
    read-only: a client's is shared with the other clients of its class
    (see :class:`WorkloadModel`)."""

    def __init__(self, model: WorkloadModel, node: str) -> None:
        self.model = model
        self.node = node

    def snapshot(self, now: int, names: frozenset[str] | None = None) -> SourceSnapshot:
        return self.model.snapshot(self.node, now, names)
