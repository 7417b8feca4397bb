"""Socket backend of the host contract: the same process cores over real TCP.

:class:`SocketHost` is :class:`~melt.simnet.SimHost` plus TCP links: flush,
delivery, link-closed handling and the link counters are the sim
backend's, unchanged. In-process links (ring, relay tree) stay sim
channels, which hand the peer the sender's message with its frame, so a
record that climbs several hops of one host is decoded once, where it
came in over TCP, and a stream spec or job map that the relays forward
reaches a TCP child in the frame the root encoded. A process can dial out
over a channel of its own. This is the desk-scale deployment mode behind
the ``--connect`` flags of meltagent, meltmon, and melt, each of which runs
its core as a one-process SocketHost with one dialed ``up`` link.

Agents and session clients attach over TCP. A host needs one listener
however many of its processes take connections: :func:`serve_overlay`
opens one endpoint for the whole overlay. A listener is given a route, a
function from an Attach to the process that takes it, or None. An
accepted connection is held unbound until its first frame is whole. That
frame must be an Attach that the route places; the connection is then
added as a ``tcp<n>`` link of that process, with its decoder and byte
count, and the process is handed the Attach and every frame read behind
it. Anything else ends the connection as a link fault, like a malformed
frame on a link: a first frame that is not an Attach, an Attach that the
route refuses, a malformed first frame, EOF before the first frame, and
a first frame not whole ``ATTACH_SECONDS`` after the accept, so a silent
peer cannot hold a descriptor open.

The socket backend keeps no transcript: sends and receives are counted
per link, and notes, sends and link closures go to this module's logger
at DEBUG.

A TCP link released while its socket is open (a ``link-fault``, a dropped
process) is half-closed rather than closed: closing a socket with unread
bytes makes the kernel reset the connection, and the peer would lose the
``Error`` it was just sent. The socket stays in the selector, what it
reads is dropped, and it is closed at EOF or after ``LINGER_SECONDS``,
whichever comes first; other links are served meanwhile.
"""

from __future__ import annotations

import selectors
import sys
import threading
import time

from . import wire
from .overlay import (ROOT_PID, OverlayHandle, attach_point, build_overlay, overlay_links,
                      overlay_processes)
from .simnet import LinkState, SimHost
from .topology import OverlayTopology
from .transport import ChannelClosedError, TcpChannel, TcpListener, transport_connect

LINGER_SECONDS = 2.0  # longest a released socket is drained before it is closed
ATTACH_SECONDS = 10.0  # longest an accepted connection may take to complete its first frame


class SocketHost(SimHost):
    """The shared host loop over links that may be sockets or in-process."""

    def __init__(self) -> None:
        # logging is imported here, not at module level: loading it adds
        # about 0.5 MB to peak RSS, which in-process runs should not pay
        import logging

        super().__init__()
        self.log = logging.getLogger(__name__)
        self.listeners: list[tuple[object, TcpListener]] = []  # (route, listener)
        # accepted, waiting for a whole Attach -> the deadline to complete it
        self.unbound: dict[TcpChannel, float] = {}
        self.selector = selectors.DefaultSelector()
        self._accept_seq = 0
        self.lingering: dict[TcpChannel, float] = {}  # half-closed socket -> close deadline

    def record(self, event: tuple) -> None:
        self.log.debug("%s", event)

    def release(self, state: LinkState) -> None:
        channel = state.channel
        if not isinstance(channel, TcpChannel):
            channel.close()
            return
        if channel.closed:  # the peer closed it, or it was released before
            self.lingering.pop(channel, None)
            try:
                self.selector.unregister(channel)
            except (KeyError, ValueError):
                pass
            channel.close()
            return
        # A socket closed with unread bytes is reset, and the peer would lose
        # what it was last sent (a link-fault Error): half-close it instead,
        # and drop what it reads until EOF or LINGER_SECONDS, then close it.
        channel.shutdown_write()
        self.selector.modify(channel, selectors.EVENT_READ, channel)
        self.lingering[channel] = time.monotonic() + LINGER_SECONDS

    def _drop_lingering(self, channel: TcpChannel) -> None:
        del self.lingering[channel]
        self.selector.unregister(channel)
        channel.close()

    def listen(self, route, host: str = "127.0.0.1", port: int = 0) -> str:
        """Accept connections at a new endpoint and return it; ``route``
        maps each connection's Attach to the process that takes it, or
        to None to refuse it."""
        listener = TcpListener(host, port)
        self.listeners.append((route, listener))
        self.selector.register(listener, selectors.EVENT_READ, route)
        return listener.endpoint

    def attach_channel(self, proc, link: str, channel) -> None:
        """Bind a TCP channel as one of the process's links; its first read
        is queued at once, since the peer may have sent before it was bound."""
        state = LinkState(channel)
        self.add_link(proc, link, state)
        self.selector.register(channel, selectors.EVENT_READ, state)
        self.wake(state)

    def _place(self, route, state: LinkState) -> None:
        """Read an unbound connection; once its first frame is whole, add it
        as a link of the process ``route`` gives for that Attach and hand
        the process what it read, or end it as a link fault."""
        channel = state.channel
        try:
            data = channel.try_recv()
        except ChannelClosedError:
            self._refuse(state, "connection closed before its Attach")
            return
        if not data:
            return
        state.bytes_received += len(data)
        fault = None
        try:
            msgs = state.decoder.feed(data)
        except wire.ProtocolError as exc:
            msgs, fault = exc.messages, exc
        if not msgs:
            if fault is not None:
                self._refuse(state, str(fault))
            return
        first = msgs[0]
        if not isinstance(first, wire.Attach):
            self._refuse(state, f"first frame is {type(first).__name__}, not Attach")
            return
        proc = route(first)
        if proc is None:
            self._refuse(state, f"no process takes an Attach from {first.process_role} "
                                f"{first.node_id!r}")
            return
        del self.unbound[channel]
        self.add_link(proc, state.name, state)
        self.selector.modify(channel, selectors.EVENT_READ, state)
        arrived = [(None, msg) for msg in msgs]
        if fault is None:
            self.receive(proc, state, arrived)
        else:
            self.link_fault(proc, state, arrived, fault)

    def _refuse(self, state: LinkState, reason: str) -> None:
        """End an unbound connection: tell the peer why, if it still
        reads, and release it as a link."""
        self.unbound.pop(state.channel, None)
        try:
            state.channel.send(wire.encode_message(wire.Error("link-fault", reason)))
        except ChannelClosedError:
            pass
        self.record(("link-fault", self.now, "-", state.name, reason))
        self.release(state)

    def pump(self) -> None:
        """Close half-closed sockets past their deadline, refuse unbound
        connections past theirs, queue readable sockets, accept on readable
        listeners and place what unbound connections bring, then deliver
        until quiescent; never blocks."""
        if self.lingering:
            now = time.monotonic()
            for channel in [c for c, deadline in self.lingering.items() if deadline <= now]:
                self._drop_lingering(channel)
        if self.unbound:
            now = time.monotonic()
            for channel in [c for c, deadline in self.unbound.items() if deadline <= now]:
                _route, state = self.selector.get_key(channel).data
                self._refuse(state, f"no Attach within {ATTACH_SECONDS:g} s")
        for key, _events in self.selector.select(0):
            if isinstance(key.data, LinkState):
                self.wake(key.data)
            elif isinstance(key.data, TcpChannel):  # half-closed: drop what it reads
                if not key.data.discard():
                    self._drop_lingering(key.data)
            elif isinstance(key.data, tuple):  # unbound: (route, state)
                self._place(*key.data)
            else:
                channel = key.fileobj.accept()
                if channel is not None:
                    self._accept_seq += 1
                    state = LinkState(channel, decoder=wire.FrameDecoder(),
                                      name=f"tcp{self._accept_seq}")
                    self.unbound[channel] = time.monotonic() + ATTACH_SECONDS
                    self.selector.register(channel, selectors.EVENT_READ, (key.data, state))
                    self._place(key.data, state)  # the peer may have sent already
        super().pump()

    def serve(self, logical_seconds: int, wall_per_tick: float = 1.0,
              stop=None) -> None:
        """Run the loop, mapping one logical second to ``wall_per_tick`` seconds.

        Between ticks the host sleeps in the selector and pumps whenever a
        listener or socket is readable. ``stop`` is checked once per tick.
        """
        for t in range(self.now + 1, self.now + logical_seconds + 1):
            if stop is not None and stop.is_set():
                return
            deadline = time.monotonic() + wall_per_tick
            self.tick(t)
            while (left := deadline - time.monotonic()) > 0:
                if self.selector.select(left):
                    self.pump()

    def close(self) -> None:
        """Close every listener, every link, every unbound connection and
        the selector."""
        for _route, listener in self.listeners:
            listener.close()
        for state in self.links.values():
            state.channel.close()
        for channel in self.unbound:
            channel.close()
        self.unbound.clear()
        for channel in self.lingering:
            channel.close()
        self.lingering.clear()
        self.selector.close()


def dial_core(core, endpoint: str) -> tuple[SocketHost, TcpChannel]:
    """Run ``core`` alone on a SocketHost whose ``up`` link dials ``endpoint``.

    Starts the core and sends what it emitted on start. Returns the host
    and the dialed channel; raises OSError if the endpoint is unreachable.
    """
    channel = transport_connect(endpoint)
    host = SocketHost()
    host.add_process(core)
    host.attach_channel(core, "up", channel)
    core.start()
    host.flush(core)
    return host, channel


def parse_flags(args: list[str], known: tuple[str, ...],
                required: tuple[str, ...]) -> dict[str, str]:
    """``--key=value`` arguments of a binary; ValueError names the first
    malformed, unknown or missing one."""
    flags: dict[str, str] = {}
    for arg in args:
        if not arg.startswith("--") or "=" not in arg:
            raise ValueError(f"bad argument {arg!r}")
        key, _, value = arg[2:].partition("=")
        if key not in known:
            raise ValueError(f"unknown option {arg.partition('=')[0]!r}")
        flags[key] = value
    for needed in required:
        if needed not in flags:
            raise ValueError(f"--{needed}=... is required")
    return flags


def run_core(prog: str, core, endpoint: str, goodbye, step=None) -> int | None:
    """Serve a binary's core with its ``up`` link dialed to ``endpoint``.

    Runs one logical second per wall second until the link closes, or
    until ``step``, called after each second, returns True; then it
    returns None. On Ctrl-C it calls ``goodbye``, sends what the core
    emitted and returns 0. If the endpoint cannot be reached or the link
    is lost, it prints ``<prog>: ...`` to stderr and returns 2.
    """
    try:
        host, up = dial_core(core, endpoint)
    except OSError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2
    try:
        while not up.closed:
            host.serve(1)
            if step is not None and step():
                return None
    except KeyboardInterrupt:
        goodbye()
        host.flush(core)
        return 0
    finally:
        host.close()
    print(f"{prog}: connection lost: {endpoint}", file=sys.stderr)
    return 2


def serve_overlay(topology: OverlayTopology, bind: str = "127.0.0.1"):
    """Build the overlay on one SocketHost with one TCP endpoint.

    Internal ring and tree links stay in process; agents and session
    clients attach over TCP, all at the host's one endpoint, and each
    connection is placed by its Attach: a session client at the root, an
    agent or a relay child at the attach point of the member node it
    names. Any other Attach, such as one that claims a ring role, is
    refused as a link fault. Returns (host, handle, endpoints) where
    endpoints maps "@root" and every member node id to that endpoint.
    """
    host = SocketHost()
    handle: OverlayHandle = build_overlay(topology, host)

    def route(attach: wire.Attach):
        if attach.process_role == "session-client":
            return handle.root
        if attach.process_role in ("agent", "relay") and topology.has_node(attach.node_id):
            return host.by_pid.get(attach_point(topology, attach.node_id)[0])
        return None

    endpoint = host.listen(route, bind)
    return host, handle, dict.fromkeys(["@root", *topology.all_nodes()], endpoint)


class DistributedOverlay:
    """Every infrastructure process on its own host, every link a socket."""

    def __init__(self, hosts: dict[str, SocketHost], cores: dict[str, object],
                 endpoints: dict[str, str]) -> None:
        self.hosts = hosts
        self.cores = cores
        self.endpoints = endpoints
        self._threads: list = []
        self._stop = None

    def serve(self, logical_seconds: int, wall_per_tick: float = 1.0):
        self._stop = threading.Event()
        for host in self.hosts.values():
            thread = threading.Thread(
                target=host.serve,
                kwargs=dict(logical_seconds=logical_seconds,
                            wall_per_tick=wall_per_tick, stop=self._stop),
                daemon=True)
            thread.start()
            self._threads.append(thread)
        return self._stop

    def stop(self) -> None:
        """Stop serving, if it was started, and close every host."""
        if self._stop is not None:
            self._stop.set()
            for thread in self._threads:
                thread.join(timeout=5)
        for host in self.hosts.values():
            host.close()


def launch_distributed(topology: OverlayTopology,
                       bind: str = "127.0.0.1") -> DistributedOverlay:
    """Run root, managers, and relays as separate hosts joined only by TCP.

    Every process listens on its own host, which gives it every Attach;
    then the opening end of each ring and tree link dials its peer and
    names itself with the link's Attach, which binds the link at the peer
    through the normal handshake.
    """
    cores = overlay_processes(topology)
    hosts: dict[str, SocketHost] = {}
    endpoints: dict[str, str] = {}
    for pid, core in cores.items():
        hosts[pid] = SocketHost()
        hosts[pid].add_process(core)
        endpoints[pid] = hosts[pid].listen(lambda _attach, core=core: core, bind)
    for pid, link, peer, _peer_link, attach in overlay_links(topology):
        hosts[pid].attach_channel(cores[pid], link, transport_connect(endpoints[peer]))
        cores[pid].emit(link, attach)
        hosts[pid].flush(cores[pid])

    # agents and clients attach where the tree expects them
    endpoints["@root"] = endpoints[ROOT_PID]
    for node in topology.all_nodes():
        endpoints[node] = endpoints[attach_point(topology, node)[0]]
    return DistributedOverlay(hosts, cores, endpoints)
