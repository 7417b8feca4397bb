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

import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from . import wire
from .aggregates import AggregateError, merge_texts
from .streams import StreamSpec, parse_target, producer_roles_for, validate_target_exists
from .topology import DomainSpec, OverlayTopology

SESSION_EPOCH = 1
ROUND_TIMEOUT_FACTOR = 2  # intervals a round waits for an open producer link that sends nothing
RING_ROLES = frozenset({"manager", "session-root"})  # openers of a ring link, not a tree link
RECORDS_KEPT = 1024  # a session client's record and error history; older ones are dropped


def apply_rate_override(overrides: dict[int, dict[str, int]], msg: wire.SetRate) -> None:
    """Record one SetRate in a stream -> metric -> interval table; 0 withdraws."""
    per_stream = overrides.setdefault(msg.stream_id, {})
    for metric in msg.metric_names:
        if msg.interval_secs == 0:
            per_stream.pop(metric, None)
        else:
            per_stream[metric] = msg.interval_secs
    if not per_stream:
        overrides.pop(msg.stream_id, None)


def overridden_interval(spec: StreamSpec, overrides: dict[int, dict[str, int]]) -> int:
    """A stream's round interval: the fastest of its own and its overrides."""
    return min((spec.interval_secs, *overrides.get(spec.stream_id, {}).values()))


class RoundFault(NamedTuple):
    """What an Error about one round of one stream says; its text is
    ``stream <sid> round <rnd>: <reason>``."""

    stream_id: int
    round: int
    reason: str

    def text(self) -> str:
        return f"stream {self.stream_id} round {self.round}: {self.reason}"

    @classmethod
    def parse(cls, text: str) -> RoundFault | None:
        """The fault an Error's text names, or None if it names none."""
        match = _ROUND_FAULT.fullmatch(text)
        if match is None:
            return None
        return cls(int(match[1]), int(match[2]), match[3])


_ROUND_FAULT = re.compile(r"stream ([0-9]+) round ([0-9]+): (.*)", re.DOTALL)


class ProcessCore:
    """Base event-loop state machine; the host drains ``outbox`` after each call."""

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


class MergedBodies:
    """The bodies that the hops of one host merged, for the round in flight
    of each stream.

    :func:`build_overlay` gives one to every gather node it places on a
    host, and each round's merge passes the round's table to
    :func:`~melt.aggregates.merge_texts`: it maps each text a hop merged to
    the entries that parsing it gives. A parent hop on the same host then
    takes a child's entries from the table instead of parsing its text
    again, and a hop whose only child is known passes it on unchanged. The
    parent pops the entries it takes, so a table holds only the bodies
    still in flight. A newer round of a stream replaces the older one's
    table, so at most one round is held per stream; a round older than the
    one held is merged without a table. The root, the last hop of every
    round, releases the round's table once it has merged it.
    """

    def __init__(self) -> None:
        self.rounds: dict[int, tuple[int, dict]] = {}  # stream -> (round, table)

    def table(self, sid: int, rnd: int) -> dict | None:
        held = self.rounds.get(sid)
        if held is not None and held[0] >= rnd:
            return held[1] if held[0] == rnd else None
        table: dict = {}
        self.rounds[sid] = (rnd, table)
        return table

    def release(self, sid: int, rnd: int) -> None:
        held = self.rounds.get(sid)
        if held is not None and held[0] == rnd:
            del self.rounds[sid]


class Stream:
    """One stream's round ledger at a gather node.

    It holds the stream's spec; the tree children subscribed to produce it
    (``None`` until the first Subscribe, so a node can tell a stream that
    never had a producer from one whose producers all left); the last
    expected count and the last round each producer link sent; the rounds
    in flight, by round; the last round emitted; and the stream's producer
    links as ``(merge order, live)``, kept until the node's links change. A
    producer link with no count here has never reported, and counts as one
    expected contributor.

    The node keeps three things outside its streams: ``overrides``, the
    stream -> metric -> interval table that :class:`~melt.agent.AgentCore`
    keeps too, through :func:`apply_rate_override` and
    :func:`overridden_interval`; ``spec_seen`` and ``effective_interval``,
    which ``bench/`` reads by stream id; and the ``on_message``,
    ``on_tick`` and ``complete_round`` methods, which ``bench/tracing.py``
    wraps by name.
    """

    __slots__ = ("spec", "children", "expected", "sent", "pending", "emitted", "links")

    def __init__(self, spec: StreamSpec) -> None:
        self.spec = spec
        self.children: set[str] | None = None
        self.expected: dict[str, int] = {}  # producer link -> last expected count
        self.sent: dict[str, int] = {}  # producer link -> last round it sent
        self.pending: dict[int, dict[str, wire.Data]] = {}  # round -> link -> its Data
        self.emitted = -1
        self.links: tuple[list[str], list[str]] | None = None


class GatherNode(ProcessCore):
    """Shared merge/multicast logic for relays, managers, and the root.

    Contributor accounting is local: each node's :class:`Stream` remembers
    the last expected count each producer link reported, so a silent or
    severed link still counts toward ``expected_contributors`` while
    dropping out of ``actual``. A producer link that never reported counts
    as one expected contributor, which under-counts a silent relay or ring
    predecessor that carries many producers, but still leaves ``actual <
    expected``. A cleanly detached agent is removed from both.

    A link sends a stream's rounds in order, so a link that has sent a
    later round will never send this one. A round in flight completes once
    every live producer link has sent it or a later round, at once if no
    producer link is live, and a stream's rounds complete in round order;
    a round that one producer skipped thus completes without it when that
    producer sends its next round. A round still waits, up to
    ``ROUND_TIMEOUT_FACTOR`` intervals, for a link that is open and silent.
    """

    always_emits = False  # managers and the root relay every stream every round
    new_stream = Stream

    def __init__(self, pid: str, node_id: str) -> None:
        super().__init__(pid, node_id)
        self.streams: dict[int, Stream] = {}
        self.overrides: dict[int, dict[str, int]] = {}
        self.jobmap_msg: wire.JobMapUpdate | None = None
        self.tree_children: list[str] = []
        self.agent_children: dict[str, str] = {}  # link -> node id (attached agents)
        self.ring_prev_link: str | None = None
        self.ring_prev_produces = False
        self.spec_seen: dict[int, int] = {}
        self.dead_links: set[str] = set()
        self.waiting: set[int] = set()  # streams with rounds in flight; a tick sorts only theirs
        self.clock = 0
        self.merged_bodies: MergedBodies | None = None  # shared by the nodes of a host

    # --- link topology -------------------------------------------------------

    def bind_link(self, link: str, opener_role: str) -> None:
        """Bind a link another process opened to this one, by that process's
        role: a ring predecessor (data flows in only from a manager) or a
        tree child."""
        self.links_changed()
        if opener_role in RING_ROLES:
            self.ring_prev_link = link
            self.ring_prev_produces = opener_role == "manager"
        elif link not in self.tree_children:
            self.tree_children.append(link)

    def links_changed(self) -> None:
        """Forget every stream's producer links: a link was bound, removed
        or found closed."""
        for stream in self.streams.values():
            stream.links = None

    def producers(self, stream: Stream) -> tuple[list[str], list[str]]:
        """A stream's producer links in merge order (a producing ring
        predecessor, then the subscribed tree children), and those of them
        not found closed. Kept on the stream until the links change; a
        caller must not change the lists."""
        if stream.links is None:
            order = [self.ring_prev_link] if self.ring_prev_produces else []
            order += [l for l in self.tree_children if l in (stream.children or ())]
            stream.links = (order, [l for l in order if l not in self.dead_links])
        return stream.links

    def effective_interval(self, stream_id: int) -> int:
        return overridden_interval(self.streams[stream_id].spec, self.overrides)

    # --- message handling ----------------------------------------------------

    def on_message(self, link: str, msg: wire.Message) -> None:
        if type(msg) is wire.Data:  # the message of every round, by far the most
            self.handle_data(link, msg)
        elif isinstance(msg, wire.Attach):
            self.handle_attach(link, msg)
        elif isinstance(msg, wire.Subscribe) and msg.direction == "agent-producer":
            self.handle_producer_subscribe(link, msg)
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
        # a socket-mode bootstrap binds ring and tree links through this handshake
        self.bind_link(link, msg.process_role)
        self.emit(link, wire.AttachAck(SESSION_EPOCH))
        if msg.process_role in RING_ROLES:
            return
        if msg.process_role == "agent":
            self.agent_children[link] = msg.node_id
        self.catch_up(link)
        for sid in sorted(self.overrides):
            for metric in sorted(self.overrides[sid]):
                self.emit(link, wire.SetRate(sid, (metric,), self.overrides[sid][metric]))

    def catch_up(self, link: str) -> None:
        """Send a process that attached late every stream spec and the job map."""
        for sid in sorted(self.streams):
            self.emit(link, wire.CreateStream(self.streams[sid].spec))
        if self.jobmap_msg is not None:
            self.emit(link, self.jobmap_msg)

    def handle_producer_subscribe(self, link: str, msg: wire.Subscribe) -> None:
        stream = self.streams.get(msg.stream_id)
        if stream is None:
            self.note("subscribe-for-unknown-stream", self.pid, msg.stream_id)
            return
        first = not stream.children
        stream.children = (stream.children or set()) | {link}
        stream.links = None
        if link in self.agent_children:
            self.emit(link, wire.SubscribeAck(msg.stream_id))
        if first:
            self.forward_subscribe(msg)

    def handle_data(self, link: str, msg: wire.Data) -> None:
        sid, rnd = msg.stream_id, msg.round
        stream = self.streams.get(sid)
        if stream is None:
            self.note("data-for-unknown-stream", self.pid, sid)
            return
        if rnd <= stream.emitted:
            self.note("late-contribution-dropped", self.pid, sid, rnd, link)
            return
        stream.pending.setdefault(rnd, {})[link] = msg
        self.waiting.add(sid)
        stream.expected[link] = msg.expected_contributors
        stream.sent[link] = rnd
        self.try_complete(sid)

    def handle_stream_spec(self, link: str, msg: wire.CreateStream) -> None:
        if msg.spec.stream_id in self.streams:
            return
        self.streams[msg.spec.stream_id] = self.new_stream(msg.spec)
        self.spec_seen[msg.spec.stream_id] = self.clock
        self.forward_multicast(msg)

    def handle_set_rate(self, link: str, msg: wire.SetRate) -> None:
        if msg.stream_id in self.streams:
            apply_rate_override(self.overrides, msg)
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
            self.links_changed()
            self.recheck_pending()
        elif link == "up":
            self.dead_links.add(link)
            if self.up_lost_note:
                self.note(self.up_lost_note, self.pid)

    def remove_child(self, link: str, clean: bool) -> None:
        self.links_changed()
        if link in self.tree_children:
            self.tree_children.remove(link)
        self.agent_children.pop(link, None)
        for stream in self.streams.values():
            if stream.children:
                stream.children.discard(link)
            stream.sent.pop(link, None)
            if clean:
                stream.expected.pop(link, None)
        self.recheck_pending()

    def pending_rounds(self) -> list[tuple[int, int]]:
        """(stream, round) of every round in flight, in order."""
        return sorted((sid, rnd) for sid in self.waiting for rnd in self.streams[sid].pending)

    def recheck_pending(self) -> None:
        for sid in sorted(self.waiting):
            self.try_complete(sid)

    # --- round completion ------------------------------------------------------

    def try_complete(self, sid: int) -> None:
        """Complete, in round order, each round in flight of the stream
        that every live producer link has sent or passed."""
        stream = self.streams[sid]
        live = self.producers(stream)[1]
        if len(stream.pending) == 1:  # no link can have sent a later round
            (rnd, have), = stream.pending.items()
            if len(have) >= len(live) and all(l in have for l in live):
                self.complete_round(sid, rnd)
            return
        sent = stream.sent
        for rnd in sorted(stream.pending):
            if any(sent.get(l, -1) < rnd for l in live):
                return
            self.complete_round(sid, rnd)

    def complete_round(self, sid: int, rnd: int) -> None:
        stream = self.streams[sid]
        contributions = stream.pending.pop(rnd, {})
        if not stream.pending:
            self.waiting.discard(sid)
        order = self.producers(stream)[0]
        present = [link for link in order if link in contributions]
        texts = [contributions[link].aggregate_body for link in present]
        merged = self.merged_bodies
        table = merged.table(sid, rnd) if merged is not None else None
        try:
            body = merge_texts(texts, stream.spec.aggregation, stream.spec.hist_edges, table)
        except AggregateError as exc:
            self.note("merge-fault", self.pid, sid, rnd, str(exc))
            self.forward_error(wire.Error("merge-fault", RoundFault(sid, rnd, str(exc)).text()))
            stream.emitted = rnd
            return
        expected = actual = 0
        for link in order:
            if link in contributions:
                expected += contributions[link].expected_contributors
                actual += contributions[link].actual_contributors
            else:
                expected += stream.expected.get(link, 1)
        window = (contributions[present[0]].window_secs if present
                  else self.effective_interval(sid))
        stream.emitted = rnd
        # a lone child's record goes on as itself when the merge left its
        # body as it came and no silent link adds to its expected count
        # (its window and actual count are the record's), so a host that
        # kept the frame it came in sends that frame
        record = contributions[present[0]] if len(present) == 1 else None
        if record is None or record.expected_contributors != expected \
                or record.aggregate_body != body:
            record = wire.Data(sid, rnd, window, expected, actual, body)
        self.deliver_up(record)

    def on_tick(self, now: int) -> None:
        self.clock = now
        for sid, stream in sorted(self.streams.items()):
            interval = self.effective_interval(sid)
            if now <= 0 or now % interval != 0:
                continue
            if now <= self.spec_seen.get(sid, -1):
                continue
            if stream.emitted >= now:
                continue
            if self.producers(stream)[1]:
                continue
            if self.always_emits or stream.children is not None:
                self.complete_round(sid, now)
        self.expire_stale_rounds(now)

    def expire_stale_rounds(self, now: int) -> None:
        for sid, rnd in self.pending_rounds():
            if now >= rnd + ROUND_TIMEOUT_FACTOR * self.effective_interval(sid):
                self.note("round-timeout", self.pid, sid, rnd)
                self.complete_round(sid, rnd)

    # --- role-specific hooks: relays and managers send toward the root over
    # "up" and multicast down their tree; the root overrides what it needs

    up_lost_note = ""  # noted when the "up" link closes

    def send_up(self, msg) -> None:
        if "up" not in self.dead_links:
            self.emit("up", msg)

    def send_down(self, msg) -> None:
        for link in self.tree_children:
            if link not in self.dead_links:
                self.emit(link, msg)

    deliver_up = forward_error = send_up
    forward_multicast = send_down

    def forward_subscribe(self, msg: wire.Subscribe) -> None:
        pass


class RelayProcess(GatherNode):
    """Internal tree process on a member node with heap children."""

    forward_subscribe = GatherNode.send_up


class ManagerProcess(GatherNode):
    """Domain tree root and ring member."""

    always_emits = True
    up_lost_note = "ring-link-lost"

    def __init__(self, pid: str, node_id: str, domain_id: str, domain_role: str,
                 up_is_root: bool) -> None:
        super().__init__(pid, node_id)
        self.domain_id = domain_id
        self.domain_role = domain_role
        self.up_is_root = up_is_root

    def scope_allows_tree(self, msg) -> bool:
        if not isinstance(msg, wire.SetRate):
            return True
        stream = self.streams.get(msg.stream_id)
        if stream is None:
            return False
        target = parse_target(stream.spec.target)
        return any(self.domain_role in producer_roles_for(target, m)
                   for m in stream.spec.metric_names)

    def forward_multicast(self, msg) -> None:
        if self.scope_allows_tree(msg):
            self.send_down(msg)
        if not self.up_is_root:
            self.send_up(msg)


class RootStream(Stream):
    """A stream at the root: its ledger, plus the records kept for a
    consumer to come (the oldest dropped past the spec's buffer capacity)
    and its consumers."""

    __slots__ = ("buffer", "consumers")

    def __init__(self, spec: StreamSpec) -> None:
        super().__init__(spec)
        self.buffer: deque[wire.Data] = deque(maxlen=spec.buffer_capacity)
        self.consumers: list[str] = []


class RootProcess(GatherNode):
    """Session root: top-level aggregator, stream registry, client attach point."""

    always_emits = True
    new_stream = RootStream

    def __init__(self, pid: str, node_id: str, topology: OverlayTopology) -> None:
        super().__init__(pid, node_id)
        self.topology = topology
        self.by_name: dict[str, int] = {}
        self.next_stream_id = 1
        self.client_links: dict[str, str] = {}  # link -> client name

    @property
    def known_jobs(self) -> set[str]:
        return {job for job, _ in self.jobmap_msg.entries} if self.jobmap_msg else set()

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
            self.catch_up(link)
        elif isinstance(msg, wire.CreateStream):
            self.client_create_stream(link, msg.spec)
        elif isinstance(msg, wire.Subscribe) and msg.direction == "up-consumer":
            self.client_subscribe(link, msg.stream_id)
        elif isinstance(msg, wire.SetRate):
            self.client_set_rate(link, msg)
        elif isinstance(msg, wire.JobMapUpdate):
            self.handle_jobmap(link, msg)
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
        self.by_name[spec.name] = sid
        self.handle_stream_spec(link, wire.CreateStream(spec.with_id(sid)))
        self.emit(link, wire.StreamCreated(sid))

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

    def complete_round(self, sid: int, rnd: int) -> None:
        super().complete_round(sid, rnd)
        if self.merged_bodies is not None:  # no hop on this host merges the round after the root
            self.merged_bodies.release(sid, rnd)

    def live_consumers(self, state: RootStream) -> list[str]:
        return [l for l in state.consumers if l in self.client_links]

    def forward_error(self, msg: wire.Error) -> None:
        """Note a fault that reached the root; a dropped round's merge fault
        also goes to the live consumers of its stream."""
        self.note("stream-fault", self.pid, msg.code, msg.text)
        fault = RoundFault.parse(msg.text) if msg.code == "merge-fault" else None
        state = self.streams.get(fault.stream_id) if fault is not None else None
        if state is not None:
            for link in self.live_consumers(state):
                self.emit(link, msg)

    def deliver_up(self, record: wire.Data) -> None:
        state = self.streams.get(record.stream_id)
        if state is None:
            return
        live = self.live_consumers(state)
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

    def __init__(self, pid: str, client_name: str) -> None:
        super().__init__(pid, client_name)
        self.client_name = client_name
        self.attached = False
        self.session_epoch = 0
        self.specs: dict[int, StreamSpec] = {}
        self.stream_ids: dict[str, int] = {}
        self.created: list[int] = []
        self.records: deque[wire.Data] = deque(maxlen=RECORDS_KEPT)
        self.errors: deque[wire.Error] = deque(maxlen=RECORDS_KEPT)
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
        elif isinstance(msg, wire.StreamCreated):
            self.created.append(msg.stream_id)
            self.on_stream_created(msg.stream_id)
        elif isinstance(msg, wire.SubscribeAck):
            pass
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

    def on_stream_created(self, stream_id: int) -> None:
        pass

    def on_record(self, record: wire.Data) -> None:
        pass

    def on_error(self, error: wire.Error) -> None:
        pass


# --- the process graph ---------------------------------------------------------
#
# The overlay is described once, here, and every deployment places this one
# description: build_overlay puts every process on one host with in-process
# links, sockethost.serve_overlay adds one TCP endpoint that places each
# connection by its Attach, and sockethost.launch_distributed gives every
# process a host of its own and dials every link over TCP. Only build_overlay shares a MergedBodies: the
# processes of launch_distributed share nothing, so each parses its children.

ROOT_PID = "root"


def process_id(domain: DomainSpec, pos: int) -> str:
    """Pid of the process at a tree position: the manager at 0, else a relay."""
    return f"mgr.{domain.domain_id}" if pos == 0 else f"rel.{domain.node_at(pos)}"


def overlay_processes(topology: OverlayTopology) -> dict[str, GatherNode]:
    """pid -> core: the root, the managers in ring order, then each domain's
    relays, in the order a host registers them."""
    procs: dict[str, GatherNode] = {
        ROOT_PID: RootProcess(ROOT_PID, topology.root_node, topology)}
    order = topology.ring_order
    for i, domain_id in enumerate(order):
        domain = topology.domain(domain_id)
        pid = process_id(domain, 0)
        procs[pid] = ManagerProcess(pid, domain.manager_node, domain_id,
                                    domain.lustre_role, up_is_root=(i == len(order) - 1))
    for domain_id in order:
        domain = topology.domain(domain_id)
        for pos in domain.internal_positions():
            pid = process_id(domain, pos)
            procs[pid] = RelayProcess(pid, domain.node_at(pos))
    return procs


def overlay_links(topology: OverlayTopology) -> list[tuple[str, str, str, str, wire.Attach]]:
    """Every ring and tree link in wiring order, as (pid, link, peer pid,
    peer link, Attach): the pid end opens the link and names itself with
    the Attach. The ring runs root -> first manager -> ... -> last manager
    -> root; in each domain tree, every relay links up to its heap parent."""
    managers = [process_id(topology.domain(d), 0) for d in topology.ring_order]
    links = [(ROOT_PID, "ring_next", managers[0], "ring_prev",
              wire.Attach(topology.root_node, "-", "session-root", "-"))]
    for domain_id, pid, successor in zip(topology.ring_order, managers,
                                         managers[1:] + [ROOT_PID]):
        domain = topology.domain(domain_id)
        links.append((pid, "up", successor, "ring_prev",
                      wire.Attach(domain.manager_node, domain_id, "manager", domain.lustre_role)))
    for domain_id in topology.ring_order:
        domain = topology.domain(domain_id)
        for pos in domain.internal_positions():
            links.append((process_id(domain, pos), "up",
                          process_id(domain, domain.tree_parent(pos)), f"c{pos}",
                          wire.Attach(domain.node_at(pos), domain_id, "relay",
                                      domain.lustre_role)))
    return links


def attach_point(topology: OverlayTopology, node_id: str) -> tuple[str, str]:
    """(pid, link name) where a member node's agent attaches: the node's own
    relay if it hosts one, else the process of its heap parent."""
    domain = topology.domain_of_node(node_id)
    pos = domain.position(node_id)
    owner = pos if domain.tree_children(pos) else domain.tree_parent(pos)
    return process_id(domain, owner), f"a{pos}"


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
        pid, link = attach_point(self.topology, node_id)
        return self.host.by_pid[pid], link
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
    """Place the process graph on ``host`` with in-process links.

    Every gather node placed here shares one :class:`MergedBodies`, so a
    body that one hop merged is not parsed again by the hop above it on
    this host, and a hop whose only child is such a body passes it on
    unchanged. It holds the bodies still in flight of at most one round
    per stream, and none once the root has merged the round.
    """
    procs = overlay_processes(topology)
    merged = MergedBodies()
    for proc in procs.values():
        proc.merged_bodies = merged
        host.add_process(proc)
    for pid, link, peer, peer_link, attach in overlay_links(topology):
        host.wire(procs[pid], link, procs[peer], peer_link)
        procs[peer].bind_link(peer_link, attach.process_role)
    managers = {p.domain_id: p for p in procs.values() if isinstance(p, ManagerProcess)}
    relays = {p.node_id: p for p in procs.values() if isinstance(p, RelayProcess)}
    return OverlayHandle(topology, host, procs[ROOT_PID], managers, relays)
