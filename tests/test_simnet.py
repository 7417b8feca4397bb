"""The sim host's ready-queue delivery."""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt import simnet, wire
from melt.simnet import SimHost
from melt.transport import ChannelClosedError, SimChannelEnd

from simutil import (add_driver, attach_agents, create_stream, decode_every_frame, deep_domain,
                     encode_every_send, io_stream_spec, make_sim, received)


def test_round_reads_links_only_when_they_carry_frames(monkeypatch):
    nodes = " ".join(f"n{i:03d}" for i in range(64))
    host, handle, model = make_sim(
        deep_domain(64, fanout=4), (f"job 0 8 j1 {nodes}", "io 0 8 j1 1M 0 roundrobin"))
    attach_agents(handle, model)
    driver = add_driver(handle)
    sid = create_stream(handle, driver, io_stream_spec(interval=1))
    driver.subscribe(sid)
    host.flush(driver)
    host.pump()
    host.tick(1)

    calls = 0
    try_recv = SimChannelEnd.try_recv

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return try_recv(self, *args)

    monkeypatch.setattr(SimChannelEnd, "try_recv", counted)
    before = sum(received(host).values())
    host.tick(2)
    frames = sum(received(host).values()) - before
    assert len(driver.records) == 2
    assert frames >= 64 + len(handle.relays)  # every tree edge carried round 2
    assert calls <= 2 * frames


class Node:
    """A bare process core that logs what it receives and answers by script."""

    def __init__(self, pid: str, log: list, replies=None) -> None:
        self.pid = pid
        self.outbox: list = []
        self.notes: list = []
        self.log = log
        self.replies = replies or {}

    def on_message(self, link: str, msg) -> None:
        if isinstance(msg, wire.Error):
            self.log.append((self.pid, f"{msg.code}: {msg.text}"))
            return
        self.log.append((self.pid, msg.node_id))
        for out_link, text in self.replies.get(msg.node_id, ()):
            self.outbox.append((out_link, wire.Detach(text)))

    def on_link_closed(self, link: str) -> None:
        self.log.append((self.pid, f"closed {link}"))

    def on_tick(self, now: int) -> None:
        pass


def hosted(*nodes) -> SimHost:
    host = SimHost()
    for node in nodes:
        host.add_process(node)
    return host


def test_pass_order_later_process_same_pass_earlier_next_pass():
    log: list = []
    a = Node("a", log, {"x": [("c", "y")]})
    b = Node("b", log)
    c = Node("c", log, {"x": [("a", "z"), ("d", "w")]})
    d = Node("d", log)
    host = hosted(a, b, c, d)
    host.wire(a, "c", c, "a")   # c reads its link from a before its link from b
    host.wire(a, "b", b, "a")
    host.wire(b, "c", c, "b")
    host.wire(c, "d", d, "c")
    b.outbox += [("c", wire.Detach("x")), ("a", wire.Detach("x"))]
    host.pump()
    # pass 1: a, then c (its links in the order they were added), then d,
    # which c woke behind itself; a, woken by c, waits for pass 2
    assert log == [("a", "x"), ("c", "y"), ("c", "x"), ("d", "w"), ("a", "z")]


def test_process_added_after_a_drop_is_read_after_earlier_ones():
    log: list = []
    a, b, c = Node("a", log), Node("b", log), Node("c", log)
    host = hosted(a, b, c)
    host.drop_process(a)
    e = Node("e", log)
    host.add_process(e)
    host.wire(b, "e", e, "b")
    host.wire(b, "c", c, "b")
    b.outbox += [("e", wire.Detach("to-e")), ("c", wire.Detach("to-c"))]
    host.pump()
    assert log == [("c", "to-c"), ("e", "to-e")]
    assert received(host) == {"b": 0, "c": 1, "e": 1}


def test_severed_link_is_seen_by_both_ends_in_order():
    log: list = []
    a, b = Node("a", log), Node("b", log)
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    host.sever_link("b", "a")
    host.pump()
    assert log == [("a", "closed b"), ("b", "closed a")]
    assert [e for e in host.transcript if e[0] == "link-closed"] == [
        ("link-closed", 0, "a", "b"), ("link-closed", 0, "b", "a")]


def test_malformed_frame_ends_only_its_link():
    log: list = []
    a, b, c = Node("a", log), Node("b", log), Node("c", log)
    host = hosted(a, b, c)
    host.wire(a, "b", b, "a")
    host.wire(c, "b", b, "c")
    host.links[("a", "b")].channel.send(b"BADMAGIC" + wire.encode_message(wire.Detach("x")))
    host.wake(host.links[("b", "a")])
    c.outbox.append(("b", wire.Detach("y")))
    host.pump()
    # the faulty peer reads why before it sees the close
    assert log == [("b", "closed a"), ("b", "y"), ("a", "link-fault: bad magic b'BA'"),
                   ("a", "closed b")]
    assert [e for e in host.transcript if e[0] in ("link-fault", "link-closed")] == [
        ("link-fault", 0, "b", "a", "bad magic b'BA'"), ("link-closed", 0, "a", "b")]
    c.outbox.append(("b", wire.Detach("z")))
    host.pump()
    assert log[-1] == ("b", "z")


def test_frames_before_a_malformed_one_in_the_same_read_are_delivered():
    log: list = []
    a, b = Node("a", log), Node("b", log, replies={"x": [("a", "ack-x")]})
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    host.links[("a", "b")].channel.send(wire.encode_message(wire.Detach("x")) + b"BADMAGIC")
    host.wake(host.links[("b", "a")])
    host.pump()
    # b's answer to the good frame goes out before the fault's Error and the close
    assert log == [("b", "x"), ("b", "closed a"), ("a", "ack-x"),
                   ("a", "link-fault: bad magic b'BA'"), ("a", "closed b")]
    events = [e for e in host.transcript if e[0] in ("send", "link-fault")]
    assert events == [("send", 0, "b", "a", "Detach", ""), ("send", 0, "b", "a", "Error", ""),
                      ("link-fault", 0, "b", "a", "bad magic b'BA'")]
    assert received(host) == {"a": 2, "b": 1}


class Hop(Node):
    """A Node that passes each message on, one hop shorter, on its routes:
    indices into the names of its links, in the order they were wired."""

    def __init__(self, pid: str, log: list, routes=()) -> None:
        super().__init__(pid, log)
        self.routes = list(routes)
        self.names: list[str] = []

    def forward(self, tag: str, ttl: int) -> None:
        if ttl < 0 or not self.names:
            return
        for route in self.routes:
            self.outbox.append((self.names[route % len(self.names)],
                                wire.Detach(f"{tag}/{ttl}")))

    def on_message(self, link: str, msg) -> None:
        if isinstance(msg, wire.Error):
            super().on_message(link, msg)
            return
        self.log.append((self.pid, link, msg.node_id))
        tag, _, ttl = msg.node_id.rpartition("/")
        self.forward(tag, int(ttl) - 1)

    def on_link_closed(self, link: str) -> None:
        super().on_link_closed(link)
        self.forward(f"{self.pid}-lost-{link}", 0)


def link(host: SimHost, a: Hop, b: Hop, name: str) -> None:
    host.wire(a, name, b, name)
    a.names.append(name)
    b.names.append(name)


class FullScanHost(SimHost):
    """The reference delivery order: every link of every process, processes
    in registration order and links in the order they were added, each
    readable link read once per scan, scans repeated until none is readable.
    It decodes every frame it reads, handed-over or not, with a decoder it
    builds on a link's first read."""

    def wake(self, state) -> None:
        pass  # nothing is queued: every scan looks at every link

    def pump(self) -> None:
        for proc in list(self.by_pid.values()):
            if proc.outbox or proc.notes:
                self.flush(proc)
        busy = True
        while busy:
            busy = False
            for proc in list(self.by_pid.values()):
                for name in list(self.proc_links[proc.pid]):
                    state = self.links[(proc.pid, name)]
                    if not state.closed_notified and state.channel.readable:
                        busy = True
                        self.read_once(proc, state)

    def read_once(self, proc, state) -> None:
        try:
            read = state.channel.try_recv()
        except ChannelClosedError:
            self.close_link(proc, state, ("link-closed", self.now, proc.pid, state.name))
            return
        if state.decoder is None:
            state.decoder = wire.FrameDecoder()
        try:
            msgs = state.decoder.feed(b"".join(data for data, _msg in read))
        except wire.ProtocolError as exc:
            self.receive(proc, state, [(None, m) for m in exc.messages])
            self.send(proc, state.name, wire.Error("link-fault", str(exc)))
            self.close_link(proc, state,
                            ("link-fault", self.now, proc.pid, state.name, str(exc)))
            return
        self.receive(proc, state, [(None, m) for m in msgs])


@st.composite
def plans(draw):
    """A graph of 2-5 processes with no link from a process to itself, the
    routes of each, and a script of sends, severed links, garbled frames,
    dropped and re-added processes, and pumps."""
    n = draw(st.integers(2, 5))
    proc = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(proc, proc).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=8))
    routes = draw(st.lists(st.lists(st.integers(0, 7), max_size=2), min_size=n, max_size=n))
    step = st.one_of(
        st.tuples(st.just("send"), proc, st.integers(0, 7), st.integers(0, 4)),
        st.tuples(st.just("sever"), proc, st.integers(0, 7)),
        st.tuples(st.just("garble"), proc, st.integers(0, 7)),
        st.tuples(st.just("drop"), proc),
        st.tuples(st.just("readd"), proc, proc),
        st.just(("pump",)))
    return n, pairs, routes, draw(st.lists(step, max_size=14))


def run_plan(host: SimHost, plan) -> tuple:
    n, pairs, routes, steps = plan
    log: list = []
    hops: dict[int, Hop] = {}

    def add(i: int) -> None:
        hops[i] = Hop(f"p{i}", log, routes[i])
        host.add_process(hops[i])

    for i in range(n):
        add(i)
    for k, (i, j) in enumerate(pairs):
        link(host, hops[i], hops[j], f"l{k}")
    for s, (kind, *args) in enumerate(steps):
        if kind == "pump":
            host.pump()
            continue
        hop = hops.get(args[0])
        if kind == "readd":
            if hop is None and args[1] in hops and args[1] != args[0]:
                add(args[0])
                link(host, hops[args[0]], hops[args[1]], f"r{s}")
            continue
        if hop is None:
            continue
        if kind == "drop":
            host.drop_process(hops.pop(args[0]))
            continue
        if not hop.names:
            continue
        name = hop.names[args[1] % len(hop.names)]
        if kind == "send":
            hop.outbox.append((name, wire.Detach(f"s{s}/{args[2]}")))
        elif kind == "sever":
            host.sever_link(hop.pid, name)
        else:  # garble: a bad frame on the link, as if the peer had sent it
            state = host.links[(hop.pid, name)]
            if not state.channel.closed:
                state.channel.send(b"BADMAGIC")
                host.wake(state.peer)
    host.pump()
    return log, host.transcript, received(host)


@settings(max_examples=300, deadline=None)
@given(plans())
def test_pump_delivers_in_full_scan_order(plan):
    assert run_plan(SimHost(), plan) == run_plan(FullScanHost(), plan)


def two_ping_pongs(host: SimHost, log: list) -> None:
    a, b, c, d = (Hop(pid, log, [0]) for pid in "abcd")
    for hop in (a, b, c, d):
        host.add_process(hop)
    link(host, a, b, "ab")
    link(host, c, d, "cd")
    a.outbox.append(("ab", wire.Detach("ping/30")))
    d.outbox.append(("cd", wire.Detach("pong/31")))


def test_pump_that_does_not_quiesce_raises_and_the_next_pump_goes_on(monkeypatch):
    whole: list = []
    host = SimHost()
    two_ping_pongs(host, whole)
    host.pump()
    assert len(whole) == 31 + 32

    log: list = []
    host = SimHost()
    two_ping_pongs(host, log)
    monkeypatch.setattr(simnet, "MAX_PUMP_PASSES", 4)
    with pytest.raises(RuntimeError, match="message pump did not quiesce"):
        host.pump()
    assert 0 < len(log) < len(whole)
    monkeypatch.setattr(simnet, "MAX_PUMP_PASSES", 100)
    host.pump()  # every link still queued is read, in the order one pump reads them
    assert log == whole


def test_dropped_process_is_never_read_through_its_old_links():
    log: list = []
    a, b = Hop("a", log), Hop("b", log)
    host = hosted(a, b)
    link(host, a, b, "ab")
    b.outbox.append(("ab", wire.Detach("old/0")))
    host.flush(b)  # a's link is queued with a frame on it
    host.drop_process(a)
    again = Hop("a", log)
    host.add_process(again)
    link(host, b, again, "ab2")
    b.outbox.append(("ab2", wire.Detach("new/0")))
    host.pump()
    assert log == [("b", "closed ab"), ("a", "ab2", "new/0")]
    assert received(host) == {"a": 1, "b": 0}


class Fragile(Hop):
    """A Hop whose handler fails on one message."""

    def on_message(self, link: str, msg) -> None:
        super().on_message(link, msg)
        if msg.node_id == "boom/0":
            raise ValueError("handler failed")


def test_links_queued_behind_a_failing_handler_are_read_by_the_next_pump():
    log: list = []
    a, b, c = Fragile("a", log), Hop("b", log), Hop("c", log)
    host = hosted(a, b, c)
    link(host, b, a, "ba")
    link(host, c, a, "ca")
    b.outbox.append(("ba", wire.Detach("boom/0")))
    c.outbox.append(("ca", wire.Detach("after/0")))
    with pytest.raises(ValueError, match="handler failed"):
        host.pump()
    host.pump()
    assert log == [("a", "ba", "boom/0"), ("a", "ca", "after/0")]


# --- what a sim link carries besides handed-over messages -------------------------

def test_a_raw_partial_frame_is_completed_by_the_bytes_of_a_handed_over_one(monkeypatch):
    """Bytes sent without a message come first, so the handed-over frame
    after them is read as the bytes it is, as a socket would read it."""
    # the handed-over frame's bytes end this frame's payload as part of the
    # node id: that frame's header has no LF and its payload one line
    handed = wire.encode_message(wire.StreamCreated(5))
    payload = b"node_id="
    head = wire.MAGIC + bytes((wire.VERSION, wire.TYPE_CODES[wire.Detach]))
    raw = head + (len(payload) + len(handed)).to_bytes(4, "big") + payload

    def run(monkeypatch) -> tuple:
        decodes = []
        decode = wire.decode_payload
        monkeypatch.setattr(wire, "decode_payload",
                            lambda code, body: decodes.append(code) or decode(code, body))
        log: list = []
        a, b = Node("a", log), Node("b", log)
        host = hosted(a, b)
        host.wire(a, "b", b, "a")
        host.links[("a", "b")].channel.send(raw)
        a.outbox.append(("b", wire.StreamCreated(5)))
        host.pump()
        return log, host.transcript, received(host), len(decodes)

    with monkeypatch.context() as patch:
        got = run(patch)
    (want_msg,) = wire.FrameDecoder().feed(raw + handed)
    assert got[0] == [("b", want_msg.node_id)] and want_msg.node_id == handed[:-1].decode()
    assert got[2] == {"a": 0, "b": 1} and got[3] == 1  # one frame, decoded
    with monkeypatch.context() as patch:
        decode_every_frame(patch)
        assert run(patch)[:3] == got[:3]


def test_a_raw_partial_frame_that_swallows_a_handed_over_one_faults_the_link():
    """A Detach whose length covers the next frame reads that frame's bytes
    as keys a Detach does not declare: a link-fault, not Detach('x')."""
    handed = wire.encode_message(wire.Detach("yy"))
    payload = b"node_id=x\nz="
    head = wire.MAGIC + bytes((wire.VERSION, wire.TYPE_CODES[wire.Detach]))
    log: list = []
    a, b = Node("a", log), Node("b", log)
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    host.links[("a", "b")].channel.send(
        head + (len(payload) + len(handed)).to_bytes(4, "big") + payload)
    a.outbox.append(("b", wire.Detach("yy")))
    host.pump()
    assert log == [("b", "closed a"), ("a", "link-fault: Detach payload has stray keys"),
                   ("a", "closed b")]
    assert [e for e in host.transcript if e[0] == "link-fault"] == [
        ("link-fault", 0, "b", "a", "Detach payload has stray keys")]
    assert received(host) == {"a": 1, "b": 0}


def test_raw_garbage_after_a_handed_over_frame_faults_the_link_after_it():
    log: list = []
    a, b = Node("a", log), Node("b", log, replies={"x": [("a", "ack-x")]})
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    a.outbox.append(("b", wire.Detach("x")))
    host.flush(a)
    host.links[("a", "b")].channel.send(b"BADMAGIC")
    host.pump()
    assert log == [("b", "x"), ("b", "closed a"), ("a", "ack-x"),
                   ("a", "link-fault: bad magic b'BA'"), ("a", "closed b")]
    assert [e for e in host.transcript if e[0] == "link-fault"] == [
        ("link-fault", 0, "b", "a", "bad magic b'BA'")]
    assert received(host) == {"a": 2, "b": 1}


def test_a_read_takes_every_frame_sent_since_the_last_one(monkeypatch):
    """Five 300 KB frames on one link and a small one on the next arrive
    whole, in scan order, without a decode, and leave the same log,
    transcript and counters as when every frame was decoded off the bytes."""
    big = 300_000

    def run(monkeypatch) -> tuple:
        decodes = []
        decode = wire.decode_payload
        monkeypatch.setattr(wire, "decode_payload",
                            lambda code, body: decodes.append(code) or decode(code, body))
        log: list = []
        a, b, c = Hop("a", log), Hop("b", log), Hop("c", log)
        host = hosted(a, b, c)
        link(host, a, b, "ab")
        link(host, c, b, "cb")
        a.outbox += [("ab", wire.Detach(f"{i}{'.' * big}/0")) for i in range(5)]
        c.outbox.append(("cb", wire.Detach("small/0")))
        host.pump()
        return ([(pid, name, tag[:1]) for pid, name, tag in log], host.transcript,
                received(host), len(decodes))

    with monkeypatch.context() as patch:
        got = run(patch)
    assert got[0] == [("b", "ab", "0"), ("b", "ab", "1"), ("b", "ab", "2"),
                      ("b", "ab", "3"), ("b", "ab", "4"), ("b", "cb", "s")]
    assert got[3] == 0
    with monkeypatch.context() as patch:
        decode_every_frame(patch)
        want = run(patch)
    assert got[:3] == want[:3] and want[3] == 6


def test_links_count_the_frames_and_bytes_they_carry():
    log: list = []
    a, b = Node("a", log), Node("b", log, replies={"x": [("a", "ack-x")]})
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    a.outbox += [("b", wire.Detach("x")), ("b", wire.Detach("yy"))]
    host.pump()
    a_end, b_end = host.links[("a", "b")], host.links[("b", "a")]
    sent = [wire.encode_message(wire.Detach(t)) for t in ("x", "yy")]
    assert (a_end.frames_sent, a_end.bytes_sent) == (2, sum(map(len, sent)))
    assert (b_end.frames_received, b_end.bytes_received) == (a_end.frames_sent, a_end.bytes_sent)
    ack = len(wire.encode_message(wire.Detach("ack-x")))
    assert (b_end.frames_sent, b_end.bytes_sent) == (1, ack)
    assert (a_end.frames_received, a_end.bytes_received) == (1, ack)
    assert host.counters_snapshot() == [("counter", 0, "a", 2, 1), ("counter", 0, "b", 1, 2)]


class Sink(Node):
    """A process core that logs every message it receives."""

    def on_message(self, link: str, msg) -> None:
        self.log.append((self.pid, msg))


def counted_encodes(monkeypatch) -> list:
    encoded: list = []
    encode = wire.encode_message
    monkeypatch.setattr(wire, "encode_message", lambda msg: encoded.append(msg) or encode(msg))
    return encoded


def test_a_multicast_is_encoded_once(monkeypatch):
    msg = wire.CreateStream(io_stream_spec())
    frame = wire.encode_message(msg)
    encoded = counted_encodes(monkeypatch)
    log: list = []
    relay, kids = Node("r", log), [Sink(f"c{i}", log) for i in range(4)]
    host = hosted(relay, *kids)
    for kid in kids:
        host.wire(relay, kid.pid, kid, "up")
    relay.outbox += [(kid.pid, msg) for kid in kids]
    host.pump()
    assert encoded == [msg]
    assert [e for e in host.transcript if e[0] == "send"] == [
        ("send", 0, "r", kid.pid, "CreateStream", 0) for kid in kids]
    assert log == [(kid.pid, msg) for kid in kids]
    for kid in kids:
        end = host.links[(kid.pid, "up")]
        assert (end.frames_received, end.bytes_received) == (1, len(frame))


def test_equal_but_distinct_messages_are_each_encoded(monkeypatch):
    encoded = counted_encodes(monkeypatch)
    log: list = []
    a, b = Node("a", log), Sink("b", log)
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    first, second = wire.Detach("x"), wire.Detach("x")
    assert first == second and first is not second
    a.outbox += [("b", first), ("b", second), ("b", second)]
    host.pump()
    assert [m is first for m in encoded] == [True, False]
    assert log == [("b", first)] * 3
    assert host.links[("b", "a")].bytes_received == 3 * len(wire.encode_message(first))


def test_an_unencodable_message_after_an_equal_encodable_one_is_refused(monkeypatch):
    """The host matches its last encoded message by identity: Data(True, ...)
    equals Data(1, ...) but does not encode. A failed encode leaves the last
    encoded message as it was."""
    encoded = counted_encodes(monkeypatch)
    log: list = []
    a, b = Node("a", log), Sink("b", log)
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    good = wire.Data(1, 2, 1, 1, 1, "kind=summary\n")
    bad = wire.Data(True, 2, 1, 1, 1, "kind=summary\n")
    assert good == bad
    host.send(a, "b", good)
    with pytest.raises(wire.ProtocolError, match="unencodable Data"):
        host.send(a, "b", bad)
    host.send(a, "b", good)  # still the last message encoded: no encode
    assert [m is good for m in encoded] == [True, False]
    host.pump()
    assert log == [("b", good), ("b", good)]
    assert [e[0] for e in host.transcript] == ["send", "send"]


class Forwarder(Sink):
    """A relay-like core: it answers each CreateStream on the link it came
    in on, then passes the message itself on to its down links, as a
    relay's handle_producer_subscribe acks a Subscribe before it forwards it."""

    def __init__(self, pid: str, log: list, down=()) -> None:
        super().__init__(pid, log)
        self.down = list(down)

    def on_message(self, link: str, msg) -> None:
        super().on_message(link, msg)
        if isinstance(msg, wire.CreateStream):
            self.outbox.append((link, wire.Detach(f"{self.pid}-got")))
            self.outbox += [(name, msg) for name in self.down]


def forwarding_chain(monkeypatch, raw: bool) -> tuple:
    """A source, two forwarding hops and three sinks below them; the source
    sends one CreateStream with its message or, when ``raw``, as bytes alone.
    Returns (encoded messages, the message, the host, every frame sent)."""
    frames: list = []
    send = SimChannelEnd.send

    def sent(self, data, msg=None) -> None:
        frames.append(data)
        send(self, data, msg)

    monkeypatch.setattr(SimChannelEnd, "send", sent)
    encoded = counted_encodes(monkeypatch)
    log: list = []
    src, f1, f2 = Sink("s", log), Forwarder("f1", log, ["f2"]), Forwarder("f2", log)
    kids = [Sink(f"k{i}", log) for i in range(3)]
    host = hosted(src, f1, f2, *kids)
    host.wire(src, "f1", f1, "up")
    host.wire(f1, "f2", f2, "up")
    for kid in kids:
        host.wire(f2, kid.pid, kid, "up")
        f2.down.append(kid.pid)
    msg = wire.CreateStream(io_stream_spec())
    if raw:
        host.links[("s", "f1")].channel.send(wire.encode_message(msg))
        host.wake(host.links[("f1", "up")])
    else:
        src.outbox.append(("f1", msg))
    host.pump()
    return encoded, msg, host, frames


def test_a_forwarded_message_goes_out_with_the_frame_it_arrived_with(monkeypatch):
    """Each hop answers before it forwards, so the host's last encoded
    message is the answer, yet the spec is encoded only at its source: each
    hop sends it with the frame it arrived with, and every link carries the
    bytes it carried when every send was encoded."""
    with monkeypatch.context() as patch:
        encoded, msg, host, frames = forwarding_chain(patch, raw=False)
    assert [type(m).__name__ for m in encoded] == ["CreateStream", "Detach", "Detach"]
    assert encoded[0] is msg
    frame = wire.encode_message(msg)
    for pid in ("f2", "k0", "k1", "k2"):
        end = host.links[(pid, "up")]
        assert (end.frames_received, end.bytes_received) == (1, len(frame))
    with monkeypatch.context() as patch:
        encode_every_send(patch)
        every = forwarding_chain(patch, raw=False)
    assert len(every[0]) == 5 + 2  # the spec on each of its five links, and the answers
    assert frames == every[3] and host.transcript == every[2].transcript


def test_a_decoded_message_that_is_forwarded_is_encoded_once(monkeypatch):
    """A message decoded off bytes has no frame to reuse: the first hop
    encodes it, and the next hop forwards that frame."""
    with monkeypatch.context() as patch:
        encoded, msg, host, frames = forwarding_chain(patch, raw=True)
    frame = wire.encode_message(msg)
    assert [type(m).__name__ for m in encoded] == [
        "CreateStream", "Detach", "CreateStream", "Detach"]  # the raw frame, then f1, f2
    assert encoded[2] == msg and frames.count(frame) == 1 + 1 + 3
    assert host.links[("f1", "up")].decoder is not None
    assert host.links[("f2", "up")].decoder is None


def test_after_pump_the_host_holds_no_message_and_no_frame(monkeypatch):
    """Neither the message encoded last nor the one handed over last, nor
    their frames, stay on the host once pump returns, or once it raises."""

    def held(host) -> list:
        return [name for name, value in vars(host).items()
                if isinstance(value, (bytes, wire.Detach, wire.CreateStream)) and value]

    with monkeypatch.context() as patch:
        _encoded, msg, host, _frames = forwarding_chain(patch, raw=False)
    gone = weakref.ref(msg)
    del msg, _encoded
    host.by_pid["s"].log.clear()  # every process's log: they share one
    assert held(host) == [] and gone() is None

    class Breaking(Forwarder):
        def on_message(self, link: str, msg) -> None:
            super().on_message(link, msg)
            self.outbox.append((link, wire.AttachAck(True)))  # unencodable

    log: list = []
    src, hop = Sink("s", log), Breaking("b", log)
    host = hosted(src, hop)
    host.wire(src, "b", hop, "up")
    src.outbox.append(("b", wire.CreateStream(io_stream_spec())))
    with pytest.raises(wire.ProtocolError, match="unencodable AttachAck"):
        host.pump()
    assert held(host) == []


def test_a_link_that_carries_only_handed_over_messages_builds_no_decoder():
    log: list = []
    a, b = Node("a", log), Node("b", log, replies={"x": [("a", "ack-x")]})
    host = hosted(a, b)
    host.wire(a, "b", b, "a")
    a.outbox.append(("b", wire.Detach("x")))
    host.pump()
    assert log == [("b", "x"), ("a", "ack-x")]
    assert [state.decoder for state in host.links.values()] == [None, None]
    # raw bytes build the decoder, and decode after what was handed over
    a.outbox.append(("b", wire.Detach("y")))
    host.flush(a)
    host.links[("a", "b")].channel.send(wire.encode_message(wire.Detach("z")))
    host.pump()
    assert log[2:] == [("b", "y"), ("b", "z")]
    assert host.links[("b", "a")].decoder is not None and host.links[("a", "b")].decoder is None
