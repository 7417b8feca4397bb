"""Monitoring agents: periodic sampling, rate derivation, job tagging.

One agent runs per Lustre client, server, or router node. It attaches as a
leaf of its domain tree, learns stream specs via multicast, decides per
stream which metrics it produces, and emits one pre-aggregated Data record
per stream round, so leaves and internal tree processes speak the same
format.

Counter keys are (metric, fs, ost, job, client) tuples with "" for absent
dimensions; an empty fs means "not filesystem-specific" and passes any
filesystem filter. Stats files are complete snapshots re-read every tick;
their ``event`` lines are cumulative occurrence tallies, so an unchanged
file contributes zero new events.
"""

from __future__ import annotations

import math
import sys
from collections.abc import KeysView
from dataclasses import dataclass, field

from . import catalog, wire
from .aggregates import leaf_text
from .overlay import ProcessCore, apply_rate_override, overridden_interval
from .streams import (AgentIdentity, StreamSpec, Target, group_key, parse_target,
                      produced_metrics)
from .topology import OverlayTopology

CounterKey = tuple[str, str, str, str, str]  # metric, fs, ost, job, client


class SourceError(RuntimeError):
    pass


class StatsParseError(SourceError):
    pass


@dataclass(slots=True)
class SourceSnapshot:
    """Cumulative view of one node's counters at a point in time."""

    ts: int = 0
    counters: dict[CounterKey, float] = field(default_factory=dict)
    gauges: dict[tuple[str, str], float] = field(default_factory=dict)
    counted: dict[tuple[str, str], float] = field(default_factory=dict)


class IdleSource:
    """A source with nothing to report; useful for liveness smoke tests."""

    def snapshot(self, now: int) -> SourceSnapshot:
        return SourceSnapshot(ts=now)


def _stats_value(text: str, what: str, where: str) -> float:
    """A gauge or counter value; a word, ``nan``, ``inf`` or a number too
    large for a float (``1e999``) rejects the file."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise StatsParseError(f"{where}: bad {what} value {text!r}")
    return value


def read_stats_file(path: str) -> SourceSnapshot:
    """Parse one stats snapshot file; any malformed line rejects the file.

    Grammar: header ``ts <unix-seconds>``; counter lines
    ``<metric> <fs>[:<ost>] <cumulative-value>``; gauge lines
    ``gauge <metric> <value>``; event lines ``event <op> <path> [<client>]``.
    Values must be finite numbers.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    snap = SourceSnapshot()
    saw_ts = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if not saw_ts:
            if parts[0] != "ts" or len(parts) != 2 or not parts[1].isdigit():
                raise StatsParseError(f"{path}:{lineno}: expected 'ts <unix-seconds>' header")
            snap.ts = int(parts[1])
            saw_ts = True
            continue
        if parts[0] == "gauge":
            if len(parts) != 3:
                raise StatsParseError(f"{path}:{lineno}: gauge line needs metric and value")
            snap.gauges[(parts[1], "")] = _stats_value(parts[2], "gauge", f"{path}:{lineno}")
        elif parts[0] == "event":
            if len(parts) not in (3, 4):
                raise StatsParseError(f"{path}:{lineno}: event line needs op and path")
            op, pathname = parts[1], parts[2]
            snap.counted[("op", op)] = snap.counted.get(("op", op), 0.0) + 1
            snap.counted[("path", pathname)] = snap.counted.get(("path", pathname), 0.0) + 1
            if len(parts) == 4:
                snap.counted[("client", parts[3])] = snap.counted.get(("client", parts[3]), 0.0) + 1
        else:
            if len(parts) != 3:
                raise StatsParseError(f"{path}:{lineno}: counter line needs metric, location, value")
            metric, loc = parts[0], parts[1]
            fs, _, ost = loc.partition(":")
            key = (metric, fs, ost, "", "")
            if key in snap.counters:
                raise StatsParseError(f"{path}:{lineno}: duplicate counter for {metric} {loc}")
            snap.counters[key] = _stats_value(parts[2], "counter", f"{path}:{lineno}")
    if not saw_ts:
        raise StatsParseError(f"{path}: missing 'ts' header")
    return snap


class StatsFileSource:
    """Re-reads a complete snapshot file on every tick; the file is parsed
    whole, so a malformed line rejects it whichever streams are due."""

    def __init__(self, path: str) -> None:
        self.path = path

    def snapshot(self, now: int) -> SourceSnapshot:
        try:
            return read_stats_file(self.path)
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc


@dataclass
class AgentConfig:
    node_id: str
    domain_id: str
    lustre_role: str
    filesystems: tuple[str, ...] = ()
    osts: tuple[str, ...] = ()

    @classmethod
    def from_topology(cls, topology: OverlayTopology, node_id: str) -> "AgentConfig":
        domain = topology.domain_of_node(node_id)
        return cls(node_id=node_id, domain_id=domain.domain_id,
                   lustre_role=domain.lustre_role, filesystems=domain.filesystems,
                   osts=domain.osts_of(node_id))


# how a metric is derived from two snapshots: (way, the raw counter or gauge
# names it reads, its catalog entry). The ways: "counted" (the event
# tallies of its class, which no name selects), "clients" (IO_CLNT_NUM: the
# groups with io), "average" (a numerator over a denominator counter),
# "rate" (one counter's delta over the window) and "gauge" (by its own name)
Derivation = tuple[str, tuple[str, ...], catalog.MetricDef]


def _derive(mdef: catalog.MetricDef) -> Derivation:
    name = mdef.name
    if mdef.metric_class in catalog.COUNTED_CLASSES:
        return "counted", (), mdef
    if name == "IO_CLNT_NUM":
        return "clients", ("IO_RD_BYTES", "IO_WR_BYTES"), mdef
    if name in catalog.AVG_SOURCES:
        return "average", catalog.AVG_SOURCES[name], mdef
    if mdef.kind == "rate":
        return "rate", (catalog.RATE_TO_RAW[name],), mdef
    return "gauge", (name,), mdef


_DERIVATIONS = {d.name: _derive(d) for d in catalog.CATALOG}


def derivation(metric: str) -> Derivation:
    """How ``metric`` is derived; UnknownMetricError if the catalog lacks it."""
    try:
        return _DERIVATIONS[metric]
    except KeyError:
        raise catalog.UnknownMetricError(metric) from None


def read_names(metrics) -> frozenset[str]:
    """The raw counter and gauge names these metrics read of a snapshot,
    which a stream's grouping plan keeps the counter keys of; counted-key
    metrics read the snapshot's event tallies, which no name selects."""
    return frozenset(raw for metric in metrics for raw in derivation(metric)[1])


# a plan: raw counter name -> sorted (counter key, group or None) pairs
Plan = dict[str, list[tuple[CounterKey, "str | None"]]]


@dataclass(slots=True)  # one per agent and stream
class _StreamProduction:
    metrics: tuple[str, ...]
    derivations: tuple[Derivation, ...]  # of each metric, in order
    prev: SourceSnapshot
    prev_t: int
    target: Target
    names: frozenset[str]  # the raw names its plan keeps keys of (read_names)
    plan: Plan | None = None
    plan_keys: KeysView[CounterKey] | frozenset = frozenset()  # of the counters it was built on
    plan_job: str = ""                                        # and the agent's job then


class _RoundDeltas:
    """One stream round's counter deltas, summed per group of the stream.

    The stream's plan (:meth:`AgentCore.plan`) lists, for each raw counter
    name it reads, the sorted counter keys that match its target and the
    group of each, so a round is one subtraction per planned key. Each raw
    counter is summed once, on first use, however many metrics derive from
    it. Its ``counter-reset`` notes are made again on every use, as when
    each use grouped it anew, so transcripts do not change. One lives for
    one :meth:`AgentCore.build_contributions` call.
    """

    __slots__ = ("agent", "plan", "counters", "before", "grouped")

    def __init__(self, agent: "AgentCore", plan: Plan, snap: SourceSnapshot,
                 prev: SourceSnapshot) -> None:
        self.agent, self.plan = agent, plan
        self.counters, self.before = snap.counters, prev.counters
        self.grouped: dict[str, tuple[dict[str, float], list[str]]] = {}  # raw -> sums, resets

    def sums(self, raw: str) -> dict[str, float]:
        """Per-group sums of the deltas of ``raw``, added in counter order."""
        grouped = self.grouped.get(raw)
        if grouped is None:
            counters, before_of = self.counters, self.before
            sums: dict[str, float] = {}
            resets: list[str] = []
            for key, group in self.plan.get(raw, ()):
                before = before_of.get(key, 0.0)
                cur = counters[key]
                if cur < before:
                    resets.append(key[1])
                    continue
                delta = cur - before
                if delta != 0 and group is not None:
                    sums[group] = sums.get(group, 0.0) + delta
            self.grouped[raw] = sums, resets
        else:
            sums, resets = grouped
        for fs in resets:
            self.agent.note("counter-reset", self.agent.pid, raw, fs)
        return sums


class AgentCore(ProcessCore):
    def __init__(self, config: AgentConfig, source,
                 topology: OverlayTopology | None = None) -> None:
        super().__init__(f"agent.{config.node_id}", config.node_id)
        self.config = config
        self.source = source
        self.identity = AgentIdentity(config.node_id, config.lustre_role, config.filesystems)
        self.ost_server = topology.ost_to_server() if topology else {}
        self.attached = False
        self.clock = 0
        self.specs: dict[int, StreamSpec] = {}
        self.production: dict[int, _StreamProduction] = {}
        self.overrides: dict[int, dict[str, int]] = {}
        self.jobmap_epoch = 0
        self.my_job = ""
        self.health_skips = 0

    # --- overlay plumbing ------------------------------------------------------

    def start(self) -> None:
        self.emit("up", wire.Attach(self.config.node_id, self.config.domain_id,
                                    "agent", self.config.lustre_role))

    def send_detach(self) -> None:
        self.emit("up", wire.Detach(self.config.node_id))

    def on_message(self, link: str, msg: wire.Message) -> None:
        if isinstance(msg, wire.AttachAck):
            self.attached = True
        elif isinstance(msg, wire.CreateStream):
            self.learn_stream(msg.spec)
        elif isinstance(msg, wire.SetRate):
            self.apply_rate(msg)
        elif isinstance(msg, wire.JobMapUpdate):
            self.apply_job_map(msg)
        elif isinstance(msg, (wire.SubscribeAck, wire.Error)):
            pass
        else:
            self.note("agent-unexpected", self.pid, type(msg).__name__)

    def learn_stream(self, spec: StreamSpec) -> None:
        if spec.stream_id in self.specs:
            return
        self.specs[spec.stream_id] = spec
        target = parse_target(spec.target)
        metrics = produced_metrics(spec, self.identity, target)
        if not metrics:
            return
        try:
            baseline = self.source.snapshot(self.clock)
        except SourceError as exc:
            self.note("source-failure", self.pid, str(exc))
            baseline = SourceSnapshot(ts=self.clock)
        self.production[spec.stream_id] = _StreamProduction(
            metrics, tuple(map(derivation, metrics)), baseline, self.clock, target,
            read_names(metrics))
        self.emit("up", wire.Subscribe(spec.stream_id, "agent-producer"))

    def apply_rate(self, msg: wire.SetRate) -> None:
        if msg.stream_id in self.specs:
            apply_rate_override(self.overrides, msg)

    def apply_job_map(self, msg: wire.JobMapUpdate) -> None:
        if msg.epoch <= self.jobmap_epoch:
            return
        self.jobmap_epoch = msg.epoch
        self.my_job = ""
        for job_id, nodes in msg.entries:
            if self.config.node_id in nodes:
                self.my_job = job_id
                break

    # --- sampling intervals ------------------------------------------------------

    def stream_interval(self, stream_id: int) -> int:
        return overridden_interval(self.specs[stream_id], self.overrides)

    # --- the sampling tick ---------------------------------------------------------

    def on_tick(self, now: int) -> None:
        self.clock = now
        if not self.attached or now <= 0:
            return
        specs, overrides = self.specs, self.overrides
        due = [sid for sid in sorted(self.production)
               if now % (specs[sid].interval_secs if sid not in overrides
                         else self.stream_interval(sid)) == 0]
        if not due:
            return
        try:
            snap = self.source.snapshot(now)
        except SourceError as exc:
            self.health_skips += 1
            self.note("source-failure", self.pid, str(exc))
            return
        for sid in due:
            self.emit_round(sid, now, snap)

    def emit_round(self, sid: int, now: int, snap: SourceSnapshot) -> None:
        spec = self.specs[sid]
        prod = self.production[sid]
        window = now - prod.prev_t
        contributions = self.build_contributions(sid, snap, prod.prev, window)
        prod.prev = snap
        prod.prev_t = now
        node, note = self.config.node_id, self.notes.append
        for group, metric, value, weight in contributions:
            note(("sample", node, sid, now, metric, group, value, weight))
        body = leaf_text(contributions, spec.aggregation, spec.hist_edges)
        self.emit("up", wire.Data(sid, now, window, 1, 1, body))

    # --- contribution building ------------------------------------------------------

    def _group(self, spec: StreamSpec, key: CounterKey) -> str | None:
        _metric, _fs, ost, job, client = key
        role = self.config.lustre_role
        return group_key(
            spec.group_by,
            job_id=job or (self.my_job if role == "client" else "") or None,
            client_id=client or (self.config.node_id if role == "client" else "") or None,
            ost_id=ost or None,
            server_id=self.config.node_id if role in ("oss", "mds") else None,
            node_id=self.config.node_id,
            ost_server=self.ost_server,
        )

    def plan(self, prod: _StreamProduction, spec: StreamSpec,
             counters: dict[CounterKey, float]) -> Plan:
        """The stream's grouping plan for a snapshot's counters, rebuilt
        when their key set or the agent's job (the one input of the groups
        that changes) differs from the one it was built on. It keeps the
        keys view of the counters it was built on: snapshots are
        read-only, so the view is as good as a copy of the keys."""
        if prod.plan is not None and prod.plan_job == self.my_job \
                and counters.keys() == prod.plan_keys:
            return prod.plan
        keys_of: dict[str, list[CounterKey]] = {}
        for key in counters:
            if key[0] in prod.names and self._key_matches(key, prod.target):
                keys_of.setdefault(key[0], []).append(key)
        prod.plan = {raw: [(key, self._group(spec, key)) for key in sorted(keys)]
                     for raw, keys in keys_of.items()}
        prod.plan_keys = counters.keys()
        prod.plan_job = self.my_job
        return prod.plan

    def _key_matches(self, key: CounterKey, target) -> bool:
        _metric, fs, _ost, job, _client = key
        if target.kind == "fs" and target.name is not None:
            if fs and fs != target.name:
                return False
        if target.kind == "job" and self.config.lustre_role != "client":
            if job != target.name:
                return False
        return True

    def build_contributions(self, sid: int, snap: SourceSnapshot,
                            prev: SourceSnapshot, window: int) -> list[tuple[str, str, float, float]]:
        """(group, metric, value, weight) tuples for one stream round."""
        spec = self.specs[sid]
        prod = self.production[sid]
        target = prod.target
        role = self.config.lustre_role
        if target.kind == "job" and role == "client" and self.my_job != target.name:
            return []
        if target.kind == "fs" and target.name is None and role == "client" \
                and not self.config.filesystems:
            return []

        deltas = _RoundDeltas(self, self.plan(prod, spec, snap.counters), snap, prev)
        out: list[tuple[str, str, float, float]] = []
        for metric, (way, raws, mdef) in zip(prod.metrics, prod.derivations):
            if way == "rate":
                sums = deltas.sums(raws[0])
                for group in sorted(sums):
                    out.append((group, metric, sums[group] / window, 1.0))
                continue

            if way == "counted":
                metric_class = mdef.metric_class
                for (cls, key), cur in sorted(snap.counted.items()):
                    if cls != metric_class:
                        continue
                    delta = cur - prev.counted.get((cls, key), 0.0)
                    if delta > 0:
                        out.append((key, metric, delta, 1.0))
                continue

            if way == "clients":  # every delta is positive
                active = deltas.sums(raws[0]).keys() | deltas.sums(raws[1]).keys()
                for group in sorted(active):
                    out.append((group, metric, 1.0, 1.0))
                continue

            if way == "average":
                nums, dens = deltas.sums(raws[0]), deltas.sums(raws[1])
                for group in sorted(dens):
                    if dens[group] > 0:
                        out.append((group, metric, nums.get(group, 0.0) / dens[group], dens[group]))
                continue

            # plain gauges: node loads, dirty bytes, lock counts
            for (name, fs), value in sorted(snap.gauges.items()):
                if name != metric:
                    continue
                key = (metric, fs, "", "", "")
                if not self._key_matches(key, target):
                    continue
                if mdef.unit == "percent" and not 0.0 <= value <= 100.0:
                    self.note("gauge-out-of-range", self.pid, metric, value)
                    continue
                group = self._group(spec, key)
                if group is not None:
                    out.append((group, metric, value, 1.0))
        return out


def main(argv: list[str] | None = None) -> int:
    """Socket-mode agent entry point."""
    from .sockethost import parse_flags, run_core
    from .topology import load_topology

    args = sys.argv[1:] if argv is None else argv
    try:
        flags = parse_flags(args, ("node", "domain", "role", "connect", "config", "source"),
                            ("node", "domain", "role", "connect"))
        topology = load_topology(flags["config"]) if "config" in flags else None
    except (ValueError, OSError) as exc:
        print(f"meltagent: {exc}", file=sys.stderr)
        return 1
    if topology is not None and topology.has_node(flags["node"]):
        config = AgentConfig.from_topology(topology, flags["node"])
    else:
        config = AgentConfig(flags["node"], flags["domain"], flags["role"])

    source_spec = flags.get("source", "synthetic:0")
    if source_spec.startswith("stats:"):
        source = StatsFileSource(source_spec[len("stats:"):])
    elif source_spec.startswith("synthetic:"):
        source = IdleSource()
    else:
        print(f"meltagent: bad --source {source_spec!r}", file=sys.stderr)
        return 1

    agent = AgentCore(config, source, topology)
    return run_core("meltagent", agent, flags["connect"], agent.send_detach)
