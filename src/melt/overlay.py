"""Overlay process cores: relays, domain managers, session root, clients.

Every process is a single logical event loop fed by its host (simulated or
socket-backed): messages arrive via :meth:`on_message`, time via
:meth:`on_tick`, link failures via :meth:`on_link_closed`. Processes never
share state; everything they say goes through the wire codec.

Data flows up each domain tree into the manager, then around the
unidirectional manager ring, merging at every hop, so the session root
receives exactly one record per stream and round. Multicasts (stream specs,
rate changes, job maps) flow the opposite way: root to first manager, along
the ring, down each tree, reaching every attached agent exactly once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import wire
from .aggregates import AggregateError, body_from_text, body_to_text, merge_all
from .streams import StreamSpec, parse_target, producer_roles_for, validate_target_exists
from .topology import OverlayTopology

SESSION_EPOCH = 1
ROUND_TIMEOUT_FACTOR = 2  # real-mode straggler bound; never fires in simulation


class ProcessCore:
    """Base event-loop state machine; the host drains ``outbox`` after each call."""

    kind = "process"

    def __init__(self, pid: str, node_id: str) -> None:
        self.pid = pid
        self.node_id = node_id
        self.outbox: list[tuple[str, wire.Message]] = []
        self.notes: list[tuple] = []

    def emit(self, link: str, msg: wire.Message) -> None:
        self.outbox.append((link, msg))

    def note(self, *event) -> None:
        self.notes.append(event)

    def start(self) -> None:
        """Called once after the host wires initial links."""

    def on_message(self, link: str, msg: wire.Message) -> None:
        raise NotImplementedError

    def on_tick(self, now: int) -> None:
        pass

    def on_link_closed(self, link: str) -> None:
        pass


class GatherNode(ProcessCore):
    """Shared merge/multicast logic for relays, managers, and the root.

    Contributor accounting is local: each node remembers the last expected
    count a link reported per stream, so a silent or severed link still
    counts toward ``expected_contributors`` while dropping out of ``actual``.
    A cleanly detached agent is removed from both.
    """

    always_emits = False  # managers and the root relay every stream every round

    def __init__(self, pid: str, node_id: str) -> None:
        super().__init__(pid, node_id)
        self.specs: dict[int, StreamSpec] = {}
        self.overrides: dict[int, dict[str, int]] = {}
        self.jobmap_msg: wire.JobMapUpdate | None = None
        self.tree_children: list[str] = []
        self.agent_children: dict[str, str] = {}  # link -> node id (attached agents)
        self.producer_children: dict[int, set[str]] = {}
        self.ring_prev_link: str | None = None
        self.ring_prev_produces = False
        self.ever_producers: set[int] = set()
        self.pending: dict[tuple[int, int], dict[str, wire.Data]] = {}
        self.last_expected: dict[tuple[str, int], int] = {}
        self.emitted: dict[int, int] = {}
        self.spec_seen: dict[int, int] = {}
        self.dead_links: set[str] = set()
        self.clock = 0

    # --- link topology -------------------------------------------------------

    def add_child_link(self, link: str) -> None:
        self.tree_children.append(link)

    def set_ring_prev(self, link: str, produces: bool) -> None:
        self.ring_prev_link = link
        self.ring_prev_produces = produces

    def producer_links(self, stream_id: int) -> list[str]:
        links = []
        if self.ring_prev_link is not None and self.ring_prev_produces:
            links.append(self.ring_prev_link)
        subscribed = self.producer_children.get(stream_id, set())
        links.extend(l for l in self.tree_children if l in subscribed)
        return links

    def live_producers(self, stream_id: int) -> list[str]:
        return [l for l in self.producer_links(stream_id) if l not in self.dead_links]

    def effective_interval(self, stream_id: int) -> int:
        spec = self.specs[stream_id]
        values = [spec.interval_secs]
        values.extend(self.overrides.get(stream_id, {}).values())
        return min(values)

    # --- message handling ----------------------------------------------------

    def on_message(self, link: str, msg: wire.Message) -> None:
        if isinstance(msg, wire.Attach):
            self.handle_attach(link, msg)
        elif isinstance(msg, wire.Subscribe) and msg.direction == "agent-producer":
            self.handle_producer_subscribe(link, msg)
        elif isinstance(msg, wire.Data):
            self.handle_data(link, msg)
        elif isinstance(msg, wire.CreateStream):
            self.handle_stream_spec(link, msg)
        elif isinstance(msg, wire.SetRate):
            self.handle_set_rate(link, msg)
        elif isinstance(msg, wire.JobMapUpdate):
            self.handle_jobmap(link, msg)
        elif isinstance(msg, wire.Detach):
            self.handle_detach(link, msg)
        elif isinstance(msg, wire.Error):
            self.forward_error(msg)
        elif isinstance(msg, (wire.AttachAck, wire.SubscribeAck)):
            pass
        else:
            self.note("unexpected-message", self.pid, type(msg).__name__)

    def handle_attach(self, link: str, msg: wire.Attach) -> None:
        # a socket-mode bootstrap binds ring links through the same handshake
        if msg.process_role == "manager":
            self.set_ring_prev(link, produces=True)
            self.emit(link, wire.AttachAck(SESSION_EPOCH))
            return
        if msg.process_role == "session-root":
            self.set_ring_prev(link, produces=False)
            self.emit(link, wire.AttachAck(SESSION_EPOCH))
            return
        if msg.process_role == "agent":
            self.agent_children[link] = msg.node_id
        if link not in self.tree_children:
            self.tree_children.append(link)
        self.emit(link, wire.AttachAck(SESSION_EPOCH))
        for sid in sorted(self.specs):
            self.emit(link, wire.CreateStream(self.specs[sid]))
        if self.jobmap_msg is not None:
            self.emit(link, self.jobmap_msg)
        for sid in sorted(self.overrides):
            for metric in sorted(self.overrides[sid]):
                self.emit(link, wire.SetRate(sid, (metric,), self.overrides[sid][metric]))

    def handle_producer_subscribe(self, link: str, msg: wire.Subscribe) -> None:
        first = not self.producer_children.get(msg.stream_id)
        self.producer_children.setdefault(msg.stream_id, set()).add(link)
        self.ever_producers.add(msg.stream_id)
        if link in self.agent_children:
            self.emit(link, wire.SubscribeAck(msg.stream_id))
        if first:
            self.forward_subscribe(msg)

    def handle_data(self, link: str, msg: wire.Data) -> None:
        sid, rnd = msg.stream_id, msg.round
        if sid not in self.specs:
            self.note("data-for-unknown-stream", self.pid, sid)
            return
        if rnd <= self.emitted.get(sid, -1):
            self.note("late-contribution-dropped", self.pid, sid, rnd, link)
            return
        self.pending.setdefault((sid, rnd), {})[link] = msg
        self.last_expected[(link, sid)] = msg.expected_contributors
        self.try_complete(sid, rnd)

    def handle_stream_spec(self, link: str, msg: wire.CreateStream) -> None:
        if msg.spec.stream_id in self.specs:
            return
        self.specs[msg.spec.stream_id] = msg.spec
        self.spec_seen[msg.spec.stream_id] = self.clock
        self.forward_multicast(msg)

    def handle_set_rate(self, link: str, msg: wire.SetRate) -> None:
        if msg.stream_id in self.specs:
            per_stream = self.overrides.setdefault(msg.stream_id, {})
            for metric in msg.metric_names:
                if msg.interval_secs == 0:
                    per_stream.pop(metric, None)
                else:
                    per_stream[metric] = msg.interval_secs
            if not per_stream:
                self.overrides.pop(msg.stream_id, None)
        self.forward_multicast(msg)

    def handle_jobmap(self, link: str, msg: wire.JobMapUpdate) -> None:
        if self.jobmap_msg is not None and msg.epoch <= self.jobmap_msg.epoch:
            return
        self.jobmap_msg = msg
        self.forward_multicast(msg)

    def handle_detach(self, link: str, msg: wire.Detach) -> None:
        self.remove_child(link, clean=True)

    def on_link_closed(self, link: str) -> None:
        if link == self.ring_prev_link or link in self.tree_children:
            self.dead_links.add(link)
            self.recheck_pending()
        else:
            self.link_down(link)

    def remove_child(self, link: str, clean: bool) -> None:
        if link in self.tree_children:
            self.tree_children.remove(link)
        self.agent_children.pop(link, None)
        for subscribed in self.producer_children.values():
            subscribed.discard(link)
        if clean:
            for key in [k for k in self.last_expected if k[0] == link]:
                del self.last_expected[key]
        self.recheck_pending()

    def recheck_pending(self) -> None:
        for sid, rnd in sorted(self.pending):
            self.try_complete(sid, rnd)

    # --- round completion ------------------------------------------------------

    def try_complete(self, sid: int, rnd: int) -> None:
        have = self.pending.get((sid, rnd), {})
        needed = self.live_producers(sid)
        if needed and all(l in have for l in needed):
            self.complete_round(sid, rnd)

    def complete_round(self, sid: int, rnd: int) -> None:
        spec = self.specs[sid]
        contributions = self.pending.pop((sid, rnd), {})
        order = self.producer_links(sid)
        bodies = []
        try:
            for link in order:
                if link in contributions:
                    bodies.append(body_from_text(contributions[link].aggregate_body))
            merged = merge_all(bodies, spec.aggregation, spec.hist_edges)
        except AggregateError as exc:
            self.note("merge-fault", self.pid, sid, rnd, str(exc))
            self.forward_error(wire.Error("merge-fault", f"stream {sid} round {rnd}: {exc}"))
            self.emitted[sid] = rnd
            return
        expected = actual = 0
        window = self.effective_interval(sid)
        for link in order:
            if link in contributions:
                expected += contributions[link].expected_contributors
                actual += contributions[link].actual_contributors
            else:
                expected += self.last_expected.get((link, sid), 0)
        contributed = [l for l in order if l in contributions]
        if contributed:
            window = contributions[contributed[0]].window_secs
        self.emitted[sid] = rnd
        record = wire.Data(sid, rnd, window, expected, actual, body_to_text(merged))
        self.deliver_up(record)

    def on_tick(self, now: int) -> None:
        self.clock = now
        for sid in sorted(self.specs):
            interval = self.effective_interval(sid)
            if now <= 0 or now % interval != 0:
                continue
            if now <= self.spec_seen.get(sid, -1):
                continue
            if self.emitted.get(sid, -1) >= now:
                continue
            if self.live_producers(sid):
                continue
            if self.always_emits or sid in self.ever_producers:
                self.complete_round(sid, now)
        self.expire_stale_rounds(now)

    def expire_stale_rounds(self, now: int) -> None:
        for sid, rnd in sorted(self.pending):
            if now >= rnd + ROUND_TIMEOUT_FACTOR * self.effective_interval(sid):
                self.note("round-timeout", self.pid, sid, rnd)
                self.complete_round(sid, rnd)

    # --- role-specific hooks -----------------------------------------------------

    def deliver_up(self, record: wire.Data) -> None:
        raise NotImplementedError

    def forward_subscribe(self, msg: wire.Subscribe) -> None:
        pass

    def forward_multicast(self, msg) -> None:
        raise NotImplementedError

    def forward_error(self, msg: wire.Error) -> None:
        raise NotImplementedError

    def link_down(self, link: str) -> None:
        pass


class RelayProcess(GatherNode):
    """Internal tree process on a member node with heap children."""

    kind = "relay"

    def deliver_up(self, record: wire.Data) -> None:
        if "up" not in self.dead_links:
            self.emit("up", record)

    def forward_subscribe(self, msg: wire.Subscribe) -> None:
        if "up" not in self.dead_links:
            self.emit("up", msg)

    def forward_multicast(self, msg) -> None:
        for link in self.tree_children:
            if link not in self.dead_links:
                self.emit(link, msg)

    def forward_error(self, msg: wire.Error) -> None:
        if "up" not in self.dead_links:
            self.emit("up", msg)

    def link_down(self, link: str) -> None:
        if link == "up":
            self.dead_links.add(link)


class ManagerProcess(GatherNode):
    """Domain tree root and ring member."""

    kind = "manager"
    always_emits = True

    def __init__(self, pid: str, node_id: str, domain_id: str, domain_role: str,
                 up_is_root: bool) -> None:
        super().__init__(pid, node_id)
        self.domain_id = domain_id
        self.domain_role = domain_role
        self.up_is_root = up_is_root

    def scope_allows_tree(self, msg) -> bool:
        if not isinstance(msg, wire.SetRate):
            return True
        spec = self.specs.get(msg.stream_id)
        if spec is None:
            return False
        target = parse_target(spec.target)
        return any(self.domain_role in producer_roles_for(target, m)
                   for m in spec.metric_names)

    def forward_multicast(self, msg) -> None:
        if self.scope_allows_tree(msg):
            for link in self.tree_children:
                if link not in self.dead_links:
                    self.emit(link, msg)
        if not self.up_is_root and "up" not in self.dead_links:
            self.emit("up", msg)

    def deliver_up(self, record: wire.Data) -> None:
        if "up" not in self.dead_links:
            self.emit("up", record)

    def forward_error(self, msg: wire.Error) -> None:
        if "up" not in self.dead_links:
            self.emit("up", msg)

    def link_down(self, link: str) -> None:
        if link == "up":
            self.dead_links.add(link)
            self.note("ring-link-lost", self.pid)


@dataclass
class StreamState:
    """Root-side record of one stream: spec, buffer, consumers."""

    spec: StreamSpec
    buffer: deque = field(default_factory=deque)
    consumers: list[str] = field(default_factory=list)
    last_round: int = -1

    def __post_init__(self) -> None:
        self.buffer = deque(self.buffer, maxlen=self.spec.buffer_capacity)


class RootProcess(GatherNode):
    """Session root: top-level aggregator, stream registry, client attach point."""

    kind = "root"
    always_emits = True

    def __init__(self, pid: str, node_id: str, topology: OverlayTopology) -> None:
        super().__init__(pid, node_id)
        self.topology = topology
        self.streams: dict[int, StreamState] = {}
        self.by_name: dict[str, int] = {}
        self.next_stream_id = 1
        self.client_links: dict[str, str] = {}  # link -> client name
        self.known_jobs: set[str] = set()

    # clients speak to the root directly
    def on_message(self, link: str, msg: wire.Message) -> None:
        if link in self.client_links or (isinstance(msg, wire.Attach)
                                         and msg.process_role == "session-client"):
            self.on_client_message(link, msg)
        else:
            super().on_message(link, msg)

    def on_client_message(self, link: str, msg: wire.Message) -> None:
        if isinstance(msg, wire.Attach):
            self.client_links[link] = msg.node_id
            self.emit(link, wire.AttachAck(SESSION_EPOCH))
            for sid in sorted(self.streams):
                self.emit(link, wire.CreateStream(self.streams[sid].spec))
            if self.jobmap_msg is not None:
                self.emit(link, self.jobmap_msg)
        elif isinstance(msg, wire.CreateStream):
            self.client_create_stream(link, msg.spec)
        elif isinstance(msg, wire.Subscribe) and msg.direction == "up-consumer":
            self.client_subscribe(link, msg.stream_id)
        elif isinstance(msg, wire.SetRate):
            self.client_set_rate(link, msg)
        elif isinstance(msg, wire.JobMapUpdate):
            self.client_jobmap(link, msg)
        elif isinstance(msg, wire.Detach):
            self.detach_client(link)
        else:
            self.emit(link, wire.Error("bad-request", f"unexpected {type(msg).__name__}"))

    def client_create_stream(self, link: str, spec: StreamSpec) -> None:
        if spec.name in self.by_name:
            self.emit(link, wire.StreamCreated(self.by_name[spec.name]))
            return
        try:
            spec.validate()
        except ValueError as exc:
            self.emit(link, wire.Error("bad-spec", str(exc)))
            return
        problem = validate_target_exists(spec, self.topology, self.known_jobs)
        if problem:
            self.emit(link, wire.Error("unknown-target", problem))
            return
        sid = self.next_stream_id
        self.next_stream_id += 1
        spec = spec.with_id(sid)
        self.register_stream(spec)
        self.multicast(wire.CreateStream(spec))
        self.emit(link, wire.StreamCreated(sid))

    def register_stream(self, spec: StreamSpec) -> None:
        self.specs[spec.stream_id] = spec
        self.spec_seen[spec.stream_id] = self.clock
        self.streams[spec.stream_id] = StreamState(spec)
        self.by_name[spec.name] = spec.stream_id

    def client_subscribe(self, link: str, stream_id: int) -> None:
        state = self.streams.get(stream_id)
        if state is None:
            self.emit(link, wire.Error("unknown-stream", f"no stream {stream_id}"))
            return
        self.emit(link, wire.SubscribeAck(stream_id))
        for record in state.buffer:
            self.emit(link, record)
        state.buffer.clear()
        if link not in state.consumers:
            state.consumers.append(link)

    def client_set_rate(self, link: str, msg: wire.SetRate) -> None:
        if msg.stream_id not in self.streams:
            self.emit(link, wire.Error("unknown-stream", f"no stream {msg.stream_id}"))
            return
        self.handle_set_rate(link, msg)

    def client_jobmap(self, link: str, msg: wire.JobMapUpdate) -> None:
        if self.jobmap_msg is not None and msg.epoch <= self.jobmap_msg.epoch:
            return
        self.jobmap_msg = msg
        self.known_jobs = {job for job, _ in msg.entries}
        self.multicast(msg)

    def detach_client(self, link: str) -> None:
        self.client_links.pop(link, None)
        for state in self.streams.values():
            if link in state.consumers:
                state.consumers.remove(link)

    def multicast(self, msg) -> None:
        if "ring_next" not in self.dead_links:
            self.emit("ring_next", msg)
        if isinstance(msg, (wire.CreateStream, wire.JobMapUpdate)):
            for link in self.client_links:
                self.emit(link, msg)

    # stream specs and rate changes reaching handle_* on the root originate
    # from clients, so forwarding means multicasting down the ring
    def forward_multicast(self, msg) -> None:
        self.multicast(msg)

    def forward_error(self, msg: wire.Error) -> None:
        self.note("stream-fault", self.pid, msg.code, msg.text)

    def deliver_up(self, record: wire.Data) -> None:
        state = self.streams.get(record.stream_id)
        if state is None:
            return
        if record.round <= state.last_round:
            return
        state.last_round = record.round
        live = [l for l in state.consumers if l in self.client_links]
        self.note("root-record", record.stream_id, record.round,
                  record.expected_contributors, record.actual_contributors)
        if live:
            for link in live:
                self.emit(link, record)
        else:
            state.buffer.append(record)

    def on_link_closed(self, link: str) -> None:
        if link in self.client_links:
            self.detach_client(link)
        else:
            super().on_link_closed(link)


class ClientCore(ProcessCore):
    """Session-client base: attach handshake, request tracking, record intake.

    Subclasses (the monitoring daemon, the interactive tool, test drivers)
    override the ``on_*`` hooks.
    """

    kind = "client"

    def __init__(self, pid: str, client_name: str) -> None:
        super().__init__(pid, client_name)
        self.client_name = client_name
        self.attached = False
        self.session_epoch = 0
        self.specs: dict[int, StreamSpec] = {}
        self.stream_ids: dict[str, int] = {}
        self.created: list[int] = []
        self.records: list[wire.Data] = []
        self.errors: list[wire.Error] = []
        self.jobmap: wire.JobMapUpdate | None = None

    def start(self) -> None:
        self.emit("up", wire.Attach(self.client_name, "-", "session-client", "-"))

    def on_message(self, link: str, msg: wire.Message) -> None:
        if isinstance(msg, wire.AttachAck):
            self.attached = True
            self.session_epoch = msg.session_epoch
            self.on_attached()
        elif isinstance(msg, wire.CreateStream):
            self.specs[msg.spec.stream_id] = msg.spec
            self.stream_ids[msg.spec.name] = msg.spec.stream_id
            self.on_stream_known(msg.spec)
        elif isinstance(msg, wire.StreamCreated):
            self.created.append(msg.stream_id)
            self.on_stream_created(msg.stream_id)
        elif isinstance(msg, wire.SubscribeAck):
            self.on_subscribed(msg.stream_id)
        elif isinstance(msg, wire.Data):
            self.records.append(msg)
            self.on_record(msg)
        elif isinstance(msg, wire.JobMapUpdate):
            self.jobmap = msg
        elif isinstance(msg, wire.Error):
            self.errors.append(msg)
            self.on_error(msg)
        else:
            self.note("client-unexpected", self.pid, type(msg).__name__)

    # request helpers
    def create_stream(self, spec: StreamSpec) -> None:
        self.emit("up", wire.CreateStream(spec))

    def subscribe(self, stream_id: int) -> None:
        self.emit("up", wire.Subscribe(stream_id, "up-consumer"))

    def set_rate(self, stream_id: int, metrics: tuple[str, ...], interval: int) -> None:
        self.emit("up", wire.SetRate(stream_id, metrics, interval))

    def detach(self) -> None:
        self.emit("up", wire.Detach(self.client_name))

    # subclass hooks
    def on_attached(self) -> None:
        pass

    def on_stream_known(self, spec: StreamSpec) -> None:
        pass

    def on_stream_created(self, stream_id: int) -> None:
        pass

    def on_subscribed(self, stream_id: int) -> None:
        pass

    def on_record(self, record: wire.Data) -> None:
        pass

    def on_error(self, error: wire.Error) -> None:
        pass


# --- construction ------------------------------------------------------------

@dataclass
class OverlayHandle:
    """A running overlay: the process graph plus attach points."""

    topology: OverlayTopology
    host: object
    root: RootProcess
    managers: dict[str, ManagerProcess]
    relays: dict[str, RelayProcess]
    agents: dict[str, ProcessCore] = field(default_factory=dict)
    clients: dict[str, ClientCore] = field(default_factory=dict)

    def attach_point(self, node_id: str) -> tuple[ProcessCore, str]:
        """(process, link name) where this node's agent plugs into its tree."""
        domain = self.topology.domain_of_node(node_id)
        pos = domain.member_nodes.index(node_id) + 1
        if domain.tree_children(pos):
            return self.relays[node_id], f"a{pos}"
        parent_pos = domain.tree_parent(pos)
        if parent_pos == 0:
            return self.managers[domain.domain_id], f"a{pos}"
        return self.relays[domain.node_at(parent_pos)], f"a{pos}"

    def attach_agent(self, agent: ProcessCore) -> ProcessCore:
        node_id = agent.node_id
        if not self.topology.has_node(node_id):
            raise KeyError(f"unknown node {node_id!r}")
        if node_id in self.agents:
            raise ValueError(f"agent already attached on {node_id}")
        parent, link = self.attach_point(node_id)
        self.host.add_process(agent)
        self.host.wire(agent, "up", parent, link)
        self.agents[node_id] = agent
        agent.start()
        self.host.flush(agent)
        return agent

    def detach_agent(self, node_id: str, clean: bool = True) -> None:
        agent = self.agents.pop(node_id)
        if clean and hasattr(agent, "send_detach"):
            agent.send_detach()
            self.host.flush(agent)
            self.host.pump()
        self.host.drop_process(agent)

    def add_client(self, client: ClientCore) -> ClientCore:
        self.host.add_process(client)
        self.host.wire(client, "up", self.root, f"client:{client.client_name}")
        self.clients[client.client_name] = client
        client.start()
        self.host.flush(client)
        return client

    def detach_client(self, name: str, clean: bool = True) -> None:
        client = self.clients.pop(name)
        if clean:
            client.detach()
            self.host.flush(client)
            self.host.pump()
        self.host.drop_process(client)


def build_overlay(topology: OverlayTopology, host) -> OverlayHandle:
    """Instantiate root, managers, and relays on ``host`` and wire the graph."""
    root = RootProcess("root", topology.root_node, topology)
    host.add_process(root)

    managers: dict[str, ManagerProcess] = {}
    order = list(topology.ring_order)
    for i, domain_id in enumerate(order):
        domain = topology.domain(domain_id)
        managers[domain_id] = ManagerProcess(
            f"mgr.{domain_id}", domain.manager_node, domain_id,
            domain.lustre_role, up_is_root=(i == len(order) - 1))
        host.add_process(managers[domain_id])

    relays: dict[str, RelayProcess] = {}
    for domain_id in order:
        domain = topology.domain(domain_id)
        for pos in domain.internal_positions():
            node = domain.node_at(pos)
            relay = RelayProcess(f"rel.{node}", node)
            relays[node] = relay
            host.add_process(relay)

    # ring: root -> first manager -> ... -> last manager -> root
    first, last = managers[order[0]], managers[order[-1]]
    host.wire(root, "ring_next", first, "ring_prev")
    first.set_ring_prev("ring_prev", produces=False)
    for a, b in zip(order, order[1:]):
        host.wire(managers[a], "up", managers[b], "ring_prev")
        managers[b].set_ring_prev("ring_prev", produces=True)
    host.wire(last, "up", root, "ring_prev")
    root.set_ring_prev("ring_prev", produces=True)

    # domain trees: relays wired to their heap parents
    for domain_id in order:
        domain = topology.domain(domain_id)
        for pos in domain.internal_positions():
            node = domain.node_at(pos)
            parent_pos = domain.tree_parent(pos)
            parent = managers[domain_id] if parent_pos == 0 else relays[domain.node_at(parent_pos)]
            link = f"c{pos}"
            host.wire(relays[node], "up", parent, link)
            parent.add_child_link(link)

    return OverlayHandle(topology, host, root, managers, relays)
