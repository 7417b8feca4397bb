"""Socket backend of the host contract: the same process cores over real TCP.

:class:`SocketHost` is :class:`~melt.simnet.SimHost` plus TCP links: flush,
delivery, link-closed handling and the message counters are the sim
backend's, unchanged. In-process links (ring, relay tree) stay sim
channels; agents and session clients attach over TCP listeners,
identifying themselves with their first message (Attach), exactly as the
protocol intends, and a process can dial out over a channel of its own.
This is the desk-scale deployment mode behind the ``--connect`` flags of
meltagent, meltmon, and melt, each of which runs its core as a one-process
SocketHost with one dialed ``up`` link.

The socket backend keeps no transcript: sends are counted, and notes,
sends and link closures go to this module's logger at DEBUG.
"""

from __future__ import annotations

import selectors
import threading
import time

from . import wire
from .overlay import ManagerProcess, OverlayHandle, RelayProcess, RootProcess, build_overlay
from .simnet import LinkState, SimHost
from .topology import OverlayTopology
from .transport import TcpChannel, TcpListener, transport_connect


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

    def record(self, event: tuple) -> None:
        self.log.debug("%s", event)

    def release(self, state: LinkState) -> None:
        if isinstance(state.channel, TcpChannel):
            try:
                self.selector.unregister(state.channel)
            except (KeyError, ValueError):
                pass  # already released: a link found closed, then dropped
        state.channel.close()

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
                continue
            channel = key.fileobj.accept()
            if channel is not None:
                self._accept_seq += 1
                self.attach_channel(key.data, f"tcp{self._accept_seq}", channel)
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
        proc, _link = handle.attach_point(node)
        if proc.pid not in opened:
            opened[proc.pid] = host.listen(proc, bind)
        endpoints[node] = opened[proc.pid]
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
        if self._stop is not None:
            self._stop.set()
            for thread in self._threads:
                thread.join(timeout=5)
            for host in self.hosts.values():
                host.close()


def launch_distributed(topology: OverlayTopology,
                       bind: str = "127.0.0.1") -> DistributedOverlay:
    """Run root, managers, and relays as separate hosts joined only by TCP.

    Ring and tree links bootstrap through the normal attach handshake: each
    process dials its data-direction successor (managers their ring
    successor, relays their tree parent, the root the first manager for the
    multicast direction) and identifies itself with its process role.
    """
    order = list(topology.ring_order)
    hosts: dict[str, SocketHost] = {}
    cores: dict[str, object] = {}
    endpoints: dict[str, str] = {}

    def place(core) -> None:
        host = SocketHost()
        host.add_process(core)
        hosts[core.pid] = host
        cores[core.pid] = core
        endpoints[core.pid] = host.listen(core, bind)

    place(RootProcess("root", topology.root_node, topology))
    for i, domain_id in enumerate(order):
        domain = topology.domain(domain_id)
        place(ManagerProcess(f"mgr.{domain_id}", domain.manager_node, domain_id,
                             domain.lustre_role, up_is_root=(i == len(order) - 1)))
        for pos in domain.internal_positions():
            node = domain.node_at(pos)
            place(RelayProcess(f"rel.{node}", node))

    def dial(core, link: str, target_pid: str, attach: wire.Attach) -> None:
        channel = transport_connect(endpoints[target_pid])
        hosts[core.pid].attach_channel(core, link, channel)
        core.emit(link, attach)
        hosts[core.pid].flush(core)

    root = cores["root"]
    dial(root, "ring_next", f"mgr.{order[0]}",
         wire.Attach(topology.root_node, "-", "session-root", "-"))
    for i, domain_id in enumerate(order):
        domain = topology.domain(domain_id)
        successor = "root" if i == len(order) - 1 else f"mgr.{order[i + 1]}"
        dial(cores[f"mgr.{domain_id}"], "up", successor,
             wire.Attach(domain.manager_node, domain_id, "manager", domain.lustre_role))
        for pos in domain.internal_positions():
            node = domain.node_at(pos)
            parent_pos = domain.tree_parent(pos)
            parent_pid = f"mgr.{domain_id}" if parent_pos == 0 \
                else f"rel.{domain.node_at(parent_pos)}"
            dial(cores[f"rel.{node}"], "up", parent_pid,
                 wire.Attach(node, domain_id, "relay", domain.lustre_role))

    # agents and clients attach where the tree expects them
    endpoints["@root"] = endpoints["root"]
    for node in topology.all_nodes():
        domain = topology.domain_of_node(node)
        pos = domain.member_nodes.index(node) + 1
        if domain.tree_children(pos):
            endpoints[node] = endpoints[f"rel.{node}"]
        else:
            parent_pos = domain.tree_parent(pos)
            parent_pid = f"mgr.{domain.domain_id}" if parent_pos == 0 \
                else f"rel.{domain.node_at(parent_pos)}"
            endpoints[node] = endpoints[parent_pid]
    return DistributedOverlay(hosts, cores, endpoints)
