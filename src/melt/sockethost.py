"""Socket backend of the host contract: the same process cores over real TCP.

:class:`SocketHost` is :class:`~melt.simnet.SimHost` plus TCP links: flush,
delivery, link-closed handling and the link counters are the sim
backend's, unchanged. In-process links (ring, relay tree) stay sim
channels, which hand the peer the sender's message with its frame, so a
record that climbs several hops of one host is decoded once, where it
came in over TCP, and a stream spec or job map that the relays forward
reaches a TCP child in the frame the root encoded. Agents and session
clients attach over TCP listeners, identifying themselves with their
first message (Attach), exactly as the protocol intends, and a process
can dial out over a channel of its own.
This is the desk-scale deployment mode behind the ``--connect`` flags of
meltagent, meltmon, and melt, each of which runs its core as a one-process
SocketHost with one dialed ``up`` link.

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

from .overlay import (ROOT_PID, OverlayHandle, attach_point, build_overlay, overlay_links,
                      overlay_processes)
from .simnet import LinkState, SimHost
from .topology import OverlayTopology
from .transport import TcpChannel, TcpListener, transport_connect

LINGER_SECONDS = 2.0  # longest a released socket is drained before it is closed


class SocketHost(SimHost):
    """The shared host loop over links that may be sockets or in-process."""

    def __init__(self) -> None:
        # logging is imported here, not at module level: loading it adds
        # about 0.5 MB to peak RSS, which in-process runs should not pay
        import logging

        super().__init__()
        self.log = logging.getLogger(__name__)
        self.listeners: list[tuple[object, TcpListener]] = []
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

    def listen(self, proc, host: str = "127.0.0.1", port: int = 0) -> str:
        listener = TcpListener(host, port)
        self.listeners.append((proc, listener))
        self.selector.register(listener, selectors.EVENT_READ, proc)
        return listener.endpoint

    def attach_channel(self, proc, link: str, channel) -> None:
        """Bind a TCP channel as one of the process's links; its first read
        is queued at once, since the peer may have sent before it was bound."""
        state = LinkState(channel)
        self.add_link(proc, link, state)
        self.selector.register(channel, selectors.EVENT_READ, state)
        self.wake(state)

    def pump(self) -> None:
        """Queue readable sockets, accept on readable listeners, then deliver
        until quiescent; never blocks."""
        for key, _events in self.selector.select(0):
            if isinstance(key.data, LinkState):
                self.wake(key.data)
            elif isinstance(key.data, TcpChannel):  # half-closed: drop what it reads
                if not key.data.discard():
                    self._drop_lingering(key.data)
            else:
                channel = key.fileobj.accept()
                if channel is not None:
                    self._accept_seq += 1
                    self.attach_channel(key.data, f"tcp{self._accept_seq}", channel)
        if self.lingering:
            now = time.monotonic()
            for channel in [c for c, deadline in self.lingering.items() if deadline <= now]:
                self._drop_lingering(channel)
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
        """Close every listener, every link and the selector."""
        for _proc, listener in self.listeners:
            listener.close()
        for state in self.links.values():
            state.channel.close()
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
    """Build the overlay on one SocketHost with TCP attach points.

    Internal ring and tree links stay in process; agents and session clients
    attach over TCP. Returns (host, handle, endpoints) where endpoints maps
    "@root" and every member node id to the host:port its agent should
    --connect to.
    """
    host = SocketHost()
    handle: OverlayHandle = build_overlay(topology, host)
    endpoints: dict[str, str] = {"@root": host.listen(handle.root, bind)}
    opened: dict[str, str] = {}
    for node in topology.all_nodes():
        pid, _link = attach_point(topology, node)
        if pid not in opened:
            opened[pid] = host.listen(host.by_pid[pid], bind)
        endpoints[node] = opened[pid]
    return host, handle, endpoints


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

    Every process listens on its own host; then the opening end of each
    ring and tree link dials its peer and names itself with the link's
    Attach, which binds the link at the peer through the normal handshake.
    """
    cores = overlay_processes(topology)
    hosts: dict[str, SocketHost] = {}
    endpoints: dict[str, str] = {}
    for pid, core in cores.items():
        hosts[pid] = SocketHost()
        hosts[pid].add_process(core)
        endpoints[pid] = hosts[pid].listen(core, bind)
    for pid, link, peer, _peer_link, attach in overlay_links(topology):
        hosts[pid].attach_channel(cores[pid], link, transport_connect(endpoints[peer]))
        cores[pid].emit(link, attach)
        hosts[pid].flush(cores[pid])

    # agents and clients attach where the tree expects them
    endpoints["@root"] = endpoints[ROOT_PID]
    for node in topology.all_nodes():
        endpoints[node] = endpoints[attach_point(topology, node)[0]]
    return DistributedOverlay(hosts, cores, endpoints)
