"""The host contract for overlay process cores, with its in-process backend.

A host owns the processes, their links and the delivery loop: it flushes
each process outbox through the wire codec, delivers decoded frames in
registration order, tells a process when one of its links closes, and
counts messages sent and received per process. :class:`SimHost` runs every
link in process on a logical clock: each logical second every process gets
a tick in registration order, then messages are pumped until the network
is quiescent, so rounds are barrier-complete. Every frame still passes
through the wire codec in both directions, keeping the layers above
byte-exact with a socket deployment. The socket backend
(:class:`melt.sockethost.SocketHost`) adds TCP links to the same loop.

The sim backend records every send, note and link closure in the
transcript, which is what the flat-fold oracles and the message accounting
checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import wire
from .transport import ChannelClosedError, sim_channel_pair


@dataclass
class LinkState:
    channel: object  # SimChannelEnd or TcpChannel
    peer_pid: str = "-"
    peer_link: str = "-"
    decoder: wire.FrameDecoder = field(default_factory=wire.FrameDecoder)
    closed_notified: bool = False


def _msg_key(msg: wire.Message):
    if isinstance(msg, (wire.Data, wire.SetRate, wire.Subscribe, wire.SubscribeAck,
                        wire.StreamCreated)):
        return msg.stream_id
    if isinstance(msg, wire.CreateStream):
        return msg.spec.stream_id
    if isinstance(msg, wire.JobMapUpdate):
        return msg.epoch
    return ""


class SimHost:
    """Owns channels, delivery order, the transcript, and message counters."""

    def __init__(self) -> None:
        self.procs: list = []
        self.by_pid: dict[str, object] = {}
        self.links: dict[tuple[str, str], LinkState] = {}
        self.proc_links: dict[str, list[str]] = {}
        self.transcript: list[tuple] = []
        self.sent: dict[str, int] = {}
        self.received: dict[str, int] = {}
        self.now = 0

    # --- construction ----------------------------------------------------------

    def add_process(self, proc) -> None:
        if proc.pid in self.by_pid:
            raise ValueError(f"duplicate process id {proc.pid}")
        self.procs.append(proc)
        self.by_pid[proc.pid] = proc
        self.proc_links.setdefault(proc.pid, [])
        self.sent.setdefault(proc.pid, 0)
        self.received.setdefault(proc.pid, 0)

    def add_link(self, proc, link: str, state: LinkState) -> None:
        self.links[(proc.pid, link)] = state
        self.proc_links[proc.pid].append(link)

    def wire(self, proc_a, link_a: str, proc_b, link_b: str) -> None:
        end_a, end_b = sim_channel_pair()
        self.add_link(proc_a, link_a, LinkState(end_a, proc_b.pid, link_b))
        self.add_link(proc_b, link_b, LinkState(end_b, proc_a.pid, link_a))

    def drop_process(self, proc) -> None:
        for link in self.proc_links.get(proc.pid, []):
            state = self.links.pop((proc.pid, link), None)
            if state is not None:
                self.release(state)
        self.proc_links.pop(proc.pid, None)
        self.by_pid.pop(proc.pid, None)
        self.procs = [p for p in self.procs if p.pid != proc.pid]

    def sever_link(self, pid: str, link: str) -> None:
        """Hard failure of one channel; both sides see it after draining."""
        state = self.links.get((pid, link))
        if state is None:
            raise KeyError(f"no link {link!r} on {pid}")
        state.channel.close()

    # --- backend hooks -----------------------------------------------------------

    def record(self, event: tuple) -> None:
        """Keep one send, note or link event; the sim backend keeps them all."""
        self.transcript.append(event)

    def release(self, state: LinkState) -> None:
        """Close a link that was dropped or found closed."""
        state.channel.close()

    # --- delivery ----------------------------------------------------------------

    def flush(self, proc) -> bool:
        """Encode and send everything in a process outbox; drain its notes."""
        progress = False
        for note in proc.notes:
            self.record((note[0], self.now) + tuple(note[1:]))
        proc.notes.clear()
        for link, msg in proc.outbox:
            state = self.links.get((proc.pid, link))
            if state is None or state.channel.closed:
                self.record(("send-dropped", self.now, proc.pid, link,
                             type(msg).__name__))
                continue
            frame = wire.encode_message(msg)
            try:
                state.channel.send(frame)
            except ChannelClosedError:
                self.record(("send-dropped", self.now, proc.pid, link,
                             type(msg).__name__))
                continue
            self.sent[proc.pid] += 1
            event = ("send", self.now, proc.pid, state.peer_pid, type(msg).__name__,
                     _msg_key(msg))
            if isinstance(msg, wire.Data):
                event += (msg.round, msg.window_secs, msg.expected_contributors,
                          msg.actual_contributors)
            self.record(event)
            progress = True
        proc.outbox.clear()
        return progress

    def _deliver_to(self, proc) -> bool:
        progress = False
        for link in list(self.proc_links.get(proc.pid, [])):
            state = self.links.get((proc.pid, link))
            if state is None:
                continue
            try:
                data = state.channel.try_recv()
            except ChannelClosedError:
                data = b""
                if not state.closed_notified:
                    state.closed_notified = True
                    self.release(state)
                    self.record(("link-closed", self.now, proc.pid, link))
                    proc.on_link_closed(link)
                    progress |= self.flush(proc) or True
            if not data:
                continue
            for msg in state.decoder.feed(data):
                self.received[proc.pid] += 1
                proc.on_message(link, msg)
                self.flush(proc)
            progress = True
        return progress

    def pump(self, limit: int = 100_000) -> None:
        """Deliver messages until the network is quiescent."""
        for proc in self.procs:
            self.flush(proc)
        for _ in range(limit):
            progress = False
            for proc in list(self.procs):
                progress |= self._deliver_to(proc)
            if not progress:
                return
        raise RuntimeError("message pump did not quiesce")

    def tick(self, now: int) -> None:
        """Advance the logical clock one step: timers first, then delivery."""
        self.now = now
        for proc in list(self.procs):
            proc.on_tick(now)
            self.flush(proc)
        self.pump()

    def counters_snapshot(self) -> list[tuple]:
        return [("counter", self.now, proc.pid, self.sent[proc.pid], self.received[proc.pid])
                for proc in self.procs]
