"""Stream specifications: targets, validation, producer matching, group keys.

A stream names a target (filesystem, job, or a single server/client), the
metrics it carries, an aggregation kind, a grouping, and a round interval.
Producer resolution picks exactly one side of Lustre for each metric so
client-side and server-side views of the same traffic are never double
counted: fs/job/clnt targets draw io/meta/rpc/load from client agents and
lock from OSS agents; oss=/mds= targets draw only from the named server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import catalog
from .topology import OverlayTopology

TARGET_KINDS = ("fs", "job", "oss", "mds", "clnt")
GROUP_BYS = ("none", "client", "job", "ost", "server")
AGGREGATIONS = ("summary", "histogram", "counted-key")
UNASSIGNED = "unassigned"


class StreamSpecError(ValueError):
    pass


@dataclass(frozen=True, slots=True)  # every agent keeps one per stream
class Target:
    kind: str
    name: str | None = None

    def __str__(self) -> str:
        return self.kind if self.name is None else f"{self.kind}={self.name}"


# each kind as one string, which every Target of that kind shares: every
# agent keeps a Target per stream
_KINDS = {kind: kind for kind in TARGET_KINDS}


def parse_target(text: str) -> Target:
    written, sep, name = text.partition("=")
    kind = _KINDS.get(written)
    if kind is None:
        raise StreamSpecError(f"unknown target {text!r}")
    if not sep:
        if kind != "fs":
            raise StreamSpecError(f"target {kind!r} requires =<name>")
        return Target("fs", None)
    if not name:
        raise StreamSpecError(f"target {text!r} has an empty name")
    return Target(kind, name)


@dataclass(frozen=True)
class StreamSpec:
    """A published data stream; stream_id 0 means "not yet assigned"."""

    stream_id: int
    name: str
    target: str
    metric_names: tuple[str, ...]
    aggregation: str = "summary"
    hist_edges: tuple[float, ...] = ()
    group_by: str = "none"
    interval_secs: int = 10
    buffer_capacity: int = 1024

    def validate(self) -> None:
        if not self.name:
            raise StreamSpecError("stream name must be nonempty")
        parse_target(self.target)
        if not self.metric_names:
            raise StreamSpecError("stream needs at least one metric")
        for m in self.metric_names:
            if m not in catalog.BY_NAME:
                raise StreamSpecError(f"unknown metric name {m!r}")
        if self.aggregation not in AGGREGATIONS:
            raise StreamSpecError(f"unknown aggregation {self.aggregation!r}")
        if self.aggregation == "histogram":
            if not self.hist_edges:
                raise StreamSpecError("histogram aggregation needs edges")
            if any(a >= b for a, b in zip(self.hist_edges, self.hist_edges[1:])):
                raise StreamSpecError("histogram edges must be strictly increasing")
        elif self.hist_edges:
            raise StreamSpecError("edges only valid for histogram aggregation")
        if self.group_by not in GROUP_BYS:
            raise StreamSpecError(f"unknown group_by {self.group_by!r}")
        if not isinstance(self.interval_secs, int) or self.interval_secs < 1:
            raise StreamSpecError("interval_secs must be a whole number of seconds >= 1")
        if self.buffer_capacity < 1:
            raise StreamSpecError("buffer_capacity must be >= 1")
        counted = {m for m in self.metric_names
                   if catalog.metric(m).metric_class in catalog.COUNTED_CLASSES}
        if counted and self.aggregation != "counted-key":
            raise StreamSpecError(f"metrics {sorted(counted)} require counted-key aggregation")
        if self.aggregation == "counted-key" and not counted:
            raise StreamSpecError("counted-key aggregation needs an op/path/client metric")

    def with_id(self, stream_id: int) -> "StreamSpec":
        return replace(self, stream_id=stream_id)


def producer_roles_for(target: Target, metric_name: str) -> frozenset[str]:
    """Lustre roles that produce ``metric_name`` for this target.

    Exactly one side of each observable is chosen so client and server views
    of the same traffic never double count: fs/job/clnt targets draw
    io/meta/rpc/load from clients and lock from the serving side (both OSS
    and MDS hold their own locks); oss=/mds= targets draw only from the
    named server. Router counters are independent observables and feed none
    of the target kinds.
    """
    roles = catalog.metric(metric_name).roles
    if target.kind in ("fs", "job", "clnt"):
        if "client" in roles:
            return frozenset(("client",))
        return roles & frozenset(("oss", "mds"))
    if target.kind == "oss":
        return roles & frozenset(("oss",))
    if target.kind == "mds":
        return roles & frozenset(("mds",))
    return frozenset()


@dataclass(frozen=True)
class AgentIdentity:
    """What producer matching needs to know about one agent."""

    node_id: str
    lustre_role: str
    filesystems: tuple[str, ...] = ()


# (target kind, agent role) -> names of the catalog metrics that an agent of
# that role produces for a target of that kind: the role is one of the
# metric's producer roles for the kind, and the metric's class is one the
# role can produce
_PRODUCED = {(kind, role): frozenset(d.name for d in catalog.CATALOG
                                     if role in producer_roles_for(Target(kind), d.name)
                                     and d.metric_class in classes)
             for kind in TARGET_KINDS for role, classes in catalog.ROLE_CLASSES.items()}


def produced_metrics(spec: StreamSpec, agent: AgentIdentity,
                     target: Target | None = None) -> tuple[str, ...]:
    """Metrics of ``spec`` this agent produces; empty means not a producer.
    ``target`` is ``spec.target`` parsed, for a caller that has it."""
    if target is None:
        target = parse_target(spec.target)
    if target.kind in ("oss", "mds", "clnt"):
        if agent.node_id != target.name:
            return ()
    if target.kind == "fs" and target.name is not None:
        if target.name not in agent.filesystems:
            return ()
    names = _PRODUCED.get((target.kind, agent.lustre_role))
    if names is None:
        raise ValueError(f"unknown lustre role {agent.lustre_role!r}")
    return tuple([m for m in spec.metric_names if m in names])


def expected_producers(spec: StreamSpec, topology: OverlayTopology) -> list[str]:
    """Node ids expected to contribute to this stream (static resolution)."""
    target = parse_target(spec.target)
    nodes = []
    for domain in topology.domains:
        for node in domain.member_nodes:
            ident = AgentIdentity(node, domain.lustre_role, domain.filesystems)
            if produced_metrics(spec, ident, target):
                nodes.append(node)
    return nodes


def validate_target_exists(spec: StreamSpec, topology: OverlayTopology,
                           known_jobs=()) -> str | None:
    """Root-side target check; returns an error string or None."""
    target = parse_target(spec.target)
    if target.kind == "fs" and target.name is not None:
        if target.name not in topology.filesystems():
            return f"unknown filesystem {target.name!r}"
    elif target.kind in ("oss", "mds"):
        if target.name not in topology.servers(target.kind):
            return f"unknown {target.kind} server {target.name!r}"
    elif target.kind == "clnt":
        if not topology.has_node(target.name) or \
                topology.domain_of_node(target.name).lustre_role != "client":
            return f"unknown client {target.name!r}"
    elif target.kind == "job" and known_jobs and target.name not in known_jobs:
        return f"unknown job {target.name!r}"
    return None


def group_key(group_by: str, *, job_id: str | None = None, client_id: str | None = None,
              ost_id: str | None = None, server_id: str | None = None,
              node_id: str = "", ost_server: dict[str, str] | None = None) -> str | None:
    """Group key for one observation; None means the observation is skipped
    because it lacks the grouping dimension (for example a node-level gauge
    in an ost-grouped stream)."""
    if group_by == "none":
        return ""
    if group_by == "job":
        return job_id or UNASSIGNED
    if group_by == "client":
        return client_id or node_id or None
    if group_by == "ost":
        return ost_id
    if group_by == "server":
        if server_id:
            return server_id
        if ost_id and ost_server:
            return ost_server.get(ost_id)
        return None
    raise StreamSpecError(f"unknown group_by {group_by!r}")
