"""The host contract for overlay process cores, with its in-process backend.

A host owns the processes, their links and the delivery loop: it flushes
each process outbox through the wire codec, delivers received messages,
tells a process when one of its links closes, and counts the frames and
bytes each link sends and receives. :class:`SimHost` runs every link in
process on a logical clock: each logical second every process gets a tick
in registration order, and is flushed right after it if the tick emitted or
noted something (most processes, most seconds, do neither), then messages
are pumped until the network is quiescent, so rounds are barrier-complete.
The socket backend (:class:`melt.sockethost.SocketHost`) adds TCP links to
the same loop.

Every send is encoded by :func:`~melt.wire.encode_message`, which checks
the message and gives the frame that is counted and sent. A message sent
again right after itself (the same object, as in a multicast to a
process's links) reuses that frame. The host also keeps the message it
handed a process last with the frame it arrived with over an in-process
link, so a process that sends it on, even after a reply of its own (a
relay forwarding a stream spec, a rate change, a job map or a producer's
Subscribe), sends that frame: a spec is encoded where it is made, not once
per forwarding hop, and a TCP child below in-process relays gets the
frame encoded where the spec was made. The host holds these two messages
and their frames until ``pump`` returns.
On a link whose peer is in process the channel carries the sender's
frozen message with its frame, and the peer's process is handed that
message: no in-process hop decodes. The codec refuses to encode any
message that its frame would not decode back to, so the message handed
over is the one a decode would give, its frame is the one encoding it
would give, and the layers above stay byte-exact with a socket
deployment. A read of an in-process link takes every send since the last
read. Bytes written to it without a message, and a frame that arrives
while the link's decoder holds part of a frame, go through the link's
:class:`~melt.wire.FrameDecoder`, built on the first such bytes, in the
order they were sent, as does everything a TCP link reads; a message
decoded so has no frame to reuse.

Delivery runs off one heap of ready links; idle links are never polled. A
link is ready when a send has put bytes on it, when it or its in-process
peer was closed, when a read left a close behind on it, or, in the socket
backend, when the selector reports its socket readable. A ready
link is keyed by (pass, rank of its process, its position among the
process's links): ``pump`` pops the heap until it is empty, so each pass
visits processes in registration order and reads their links in the order
they were added. A link woken while a process of lower rank is being
visited joins the current pass; one of that process or an earlier one
waits for the next. For links between two processes that is the order a
scan of every link of every process would deliver in, so the work of a
round is proportional to the frames it moves, not to the number of links.

A frame the codec rejects ends only the link it came on. The host
delivers the messages that came before it in the same read, sends
``Error("link-fault", <reason>)`` to the peer, records a ``link-fault``
event with the reason, releases the link and tells its process, as for a
link found closed; the other links go on.

The sim backend records every send, note and link closure in the
transcript, which is what the flat-fold oracles and the message accounting
checks consume.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from . import wire
from .transport import ChannelClosedError, sim_channel_pair

MAX_PUMP_PASSES = 100_000  # more means messages keep causing messages: pump raises


@dataclass(eq=False, slots=True)
class LinkState:
    """One end of a link as its process sees it; ``add_link`` fills the owner fields."""

    channel: object  # SimChannelEnd or TcpChannel
    peer: LinkState | None = field(default=None, repr=False)  # the in-process other end
    # for what arrives without its message; built on the first such bytes
    decoder: wire.FrameDecoder | None = None
    closed_notified: bool = False
    pid: str = "-"       # owning process
    name: str = ""       # link name within the owning process
    rank: int = -1       # registration rank of the owning process
    seq: int = -1        # position among the owning process's links
    ready: bool = False  # in the ready heap; a dropped link stays True forever
    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0  # messages handed to the owning process
    bytes_received: int = 0


def _msg_key(msg: wire.Message):
    if isinstance(msg, (wire.SetRate, wire.Subscribe, wire.SubscribeAck, wire.StreamCreated)):
        return msg.stream_id
    if isinstance(msg, wire.CreateStream):
        return msg.spec.stream_id
    if isinstance(msg, wire.JobMapUpdate):
        return msg.epoch
    return ""


class SimHost:
    """Owns channels, delivery order, the transcript, and link counters."""

    def __init__(self) -> None:
        self.by_pid: dict[str, object] = {}
        self.links: dict[tuple[str, str], LinkState] = {}
        self.proc_links: dict[str, list[str]] = {}
        self.transcript: list[tuple] = []
        self.now = 0
        self._rank: dict[str, int] = {}  # pid -> registration rank, never reused
        self._ranks = itertools.count()
        self._heap: list[tuple] = []  # ready links: (pass, rank, seq, state)
        self._at = (0, -1)  # the (pass, rank) being visited; (0, -1) once quiescent
        # the message encoded last and its frame, and the message handed to
        # a process last with the frame it arrived with, until the network
        # is quiescent. Messages are frozen, so the same object has the same
        # frame; an equal one may not encode at all (Data(True, ...) == Data(1, ...))
        self._encoded: object = None
        self._frame = b""
        self._arrived: object = None
        self._arrived_frame = b""

    # --- construction ----------------------------------------------------------

    def add_process(self, proc) -> None:
        if proc.pid in self.by_pid:
            raise ValueError(f"duplicate process id {proc.pid}")
        self.by_pid[proc.pid] = proc
        self.proc_links.setdefault(proc.pid, [])
        self._rank[proc.pid] = next(self._ranks)

    def add_link(self, proc, link: str, state: LinkState) -> None:
        state.pid, state.name, state.rank = proc.pid, link, self._rank[proc.pid]
        state.seq = len(self.proc_links[proc.pid])
        self.links[(proc.pid, link)] = state
        self.proc_links[proc.pid].append(link)

    def wire(self, proc_a, link_a: str, proc_b, link_b: str) -> None:
        end_a, end_b = sim_channel_pair()
        state_a, state_b = LinkState(end_a), LinkState(end_b)
        state_a.peer, state_b.peer = state_b, state_a
        self.add_link(proc_a, link_a, state_a)
        self.add_link(proc_b, link_b, state_b)

    def drop_process(self, proc) -> None:
        for link in self.proc_links.pop(proc.pid, []):
            state = self.links.pop((proc.pid, link), None)
            if state is None:
                continue
            state.ready = True
            self.release(state)
            if state.peer is not None:
                self.wake(state.peer)
        self._rank.pop(proc.pid, None)
        self.by_pid.pop(proc.pid, None)

    def sever_link(self, pid: str, link: str) -> None:
        """Hard failure of one channel; both sides see it after draining."""
        state = self.links.get((pid, link))
        if state is None:
            raise KeyError(f"no link {link!r} on {pid}")
        state.channel.close()
        self.wake(state)
        if state.peer is not None:
            self.wake(state.peer)

    # --- backend hooks -----------------------------------------------------------

    def record(self, event: tuple) -> None:
        """Keep one send, note or link event; the sim backend keeps them all."""
        self.transcript.append(event)

    def release(self, state: LinkState) -> None:
        """Close a link that was dropped or found closed."""
        state.channel.close()

    # --- delivery ----------------------------------------------------------------

    def wake(self, state: LinkState) -> None:
        """Queue a link to be read: in this pass if its process comes after
        the one being visited, else in the next."""
        if state.ready:
            return
        state.ready = True
        at_pass, at_rank = self._at
        heapq.heappush(self._heap, (at_pass + (state.rank <= at_rank), state.rank,
                                    state.seq, state))

    def flush(self, proc) -> None:
        """Encode and send everything in a process outbox; drain its notes."""
        now = self.now
        for note in proc.notes:
            self.record((note[0], now) + note[1:])
        proc.notes.clear()
        for link, msg in proc.outbox:
            self.send(proc, link, msg)
        proc.outbox.clear()

    def send(self, proc, link: str, msg: wire.Message) -> None:
        """Encode one message of a process and send it on one of its links,
        with the message itself when the peer is in process. The message
        encoded last, or handed to a process last with its frame (the same
        object either way), reuses that frame."""
        state = self.links.get((proc.pid, link))
        if state is None or state.channel.closed:
            self.record(("send-dropped", self.now, proc.pid, link, type(msg).__name__))
            return
        if msg is self._encoded:
            frame = self._frame
        elif msg is self._arrived:
            frame = self._arrived_frame
        else:
            frame = wire.encode_message(msg)
            self._encoded, self._frame = msg, frame
        peer = state.peer
        try:
            if peer is None:
                state.channel.send(frame)
            else:
                state.channel.send(frame, msg)
        except ChannelClosedError:
            self.record(("send-dropped", self.now, proc.pid, link, type(msg).__name__))
            return
        state.frames_sent += 1
        state.bytes_sent += len(frame)
        to = "-" if peer is None else peer.pid
        if type(msg) is wire.Data:
            self.record(("send", self.now, proc.pid, to, "Data", msg.stream_id, msg.round,
                         msg.window_secs, msg.expected_contributors, msg.actual_contributors))
        else:
            self.record(("send", self.now, proc.pid, to, type(msg).__name__, _msg_key(msg)))
        if peer is not None:
            self.wake(peer)

    def _deliver(self, proc, state: LinkState) -> None:
        """Read one ready link of a process."""
        state.ready = False
        if state.closed_notified:
            return
        try:
            read = state.channel.try_recv()
        except ChannelClosedError:
            self.close_link(proc, state, ("link-closed", self.now, proc.pid, state.name))
            return
        if not read:
            return
        if state.peer is None:  # a socket read is bytes
            read = ((read, None),)
        elif state.channel.readable:
            self.wake(state)  # a close behind the read
        decoder = state.decoder
        arrived: list = []  # (frame it arrived with or None, message)
        try:
            for piece in read:
                data, msg = piece
                state.bytes_received += len(data)
                if msg is not None and (decoder is None or not decoder.pending_bytes):
                    arrived.append(piece)  # msg is what decoding its frame would give
                else:
                    if decoder is None:
                        decoder = state.decoder = wire.FrameDecoder()
                    arrived += [(None, m) for m in decoder.feed(data)]
        except wire.ProtocolError as exc:
            self.link_fault(proc, state, arrived + [(None, m) for m in exc.messages], exc)
            return
        self.receive(proc, state, arrived)

    def link_fault(self, proc, state: LinkState, arrived, exc: wire.ProtocolError) -> None:
        """End a link that brought a malformed frame: hand its process the
        messages that came before that frame, tell the peer why, then
        release the link and tell its process."""
        self.receive(proc, state, arrived)
        self.send(proc, state.name, wire.Error("link-fault", str(exc)))
        self.close_link(proc, state, ("link-fault", self.now, proc.pid, state.name, str(exc)))
        if state.peer is not None:
            self.wake(state.peer)

    def receive(self, proc, state: LinkState, arrived) -> None:
        """Hand the messages of one link to its process, one at a time, from
        (frame or None, message) pairs, and flush the process when it emitted
        or noted something. A message that arrived with its frame is kept
        with it, so forwarding it reuses that frame."""
        for frame, msg in arrived:
            state.frames_received += 1
            if frame is not None:  # a decoded message has no frame to reuse
                self._arrived, self._arrived_frame = msg, frame
            proc.on_message(state.name, msg)
            if proc.outbox or proc.notes:
                self.flush(proc)

    def close_link(self, proc, state: LinkState, event: tuple) -> None:
        """Release a link found closed or faulty, record ``event`` and tell
        its process, once."""
        state.closed_notified = True
        self.release(state)
        self.record(event)
        proc.on_link_closed(state.name)
        self.flush(proc)

    def pump(self) -> None:
        """Deliver messages until the network is quiescent, popping the ready
        heap (see the module docstring for the order). Raises RuntimeError,
        leaving the heap as it is, when the work runs past MAX_PUMP_PASSES
        passes. Returning or raising, it forgets the messages it keeps frames of."""
        try:
            for proc in self.by_pid.values():
                if proc.outbox or proc.notes:
                    self.flush(proc)
            heap = self._heap
            limit = self._at[0] + MAX_PUMP_PASSES
            while heap:
                if heap[0][0] >= limit:
                    raise RuntimeError("message pump did not quiesce")
                at_pass, rank, _seq, state = heapq.heappop(heap)
                self._at = at_pass, rank
                if self._rank.get(state.pid) == rank:  # else its process was dropped
                    self._deliver(self.by_pid[state.pid], state)
            self._at = (0, -1)
        finally:
            self._encoded, self._frame = None, b""
            self._arrived, self._arrived_frame = None, b""

    def tick(self, now: int) -> None:
        """Advance the logical clock one step: timers first, each process
        flushed right after its own if it emitted or noted something, then
        delivery."""
        self.now = now
        for proc in list(self.by_pid.values()):
            proc.on_tick(now)
            if proc.outbox or proc.notes:
                self.flush(proc)
        self.pump()

    def counters_snapshot(self) -> list[tuple]:
        """One ``counter`` event per process: the frames its links sent and
        received."""
        events = []
        for pid in self.by_pid:
            links = [self.links[(pid, name)] for name in self.proc_links[pid]]
            events.append(("counter", self.now, pid, sum(s.frames_sent for s in links),
                           sum(s.frames_received for s in links)))
        return events
