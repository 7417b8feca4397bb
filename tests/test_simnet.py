"""The sim host's ready-queue delivery."""

from __future__ import annotations

from melt import wire
from melt.simnet import SimHost
from melt.transport import SimChannelEnd

from simutil import add_driver, attach_agents, create_stream, deep_domain, io_stream_spec, make_sim


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
    before = sum(host.received.values())
    host.tick(2)
    frames = sum(host.received.values()) - before
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
    assert host.received == {"a": 0, "b": 0, "c": 1, "e": 1}


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
    assert host.received == {"a": 2, "b": 1}
