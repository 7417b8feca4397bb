from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt.transport import (
    ChannelClosedError, TcpListener, TransportError, sim_channel_pair, transport_connect,
)
from melt.wire import AttachAck, Detach, FrameDecoder, encode_message


class TestSimTransport:
    def test_connect_and_fifo_order(self):
        client, server = sim_channel_pair()
        a, b = Detach("one"), AttachAck(2)
        client.send(encode_message(a), a)  # a frame with the message it encodes
        client.send(encode_message(b))
        assert server.try_recv() == [(encode_message(a), a), (encode_message(b), None)]
        assert server.try_recv() == []

    def test_close_visible_to_peer(self):
        client, server = sim_channel_pair()
        client.send(b"tail")
        client.close()
        assert server.try_recv() == [(b"tail", None)]  # drained before the error
        with pytest.raises(ChannelClosedError):
            server.try_recv()
        with pytest.raises(ChannelClosedError):
            server.send(b"nope")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.tuples(st.just("send"), st.binary(min_size=1, max_size=40),
                                    st.booleans()),
                          st.just(("read",))), max_size=30))
def test_a_sim_read_takes_every_send_since_the_last_read(steps):
    """Each read returns every entry sent since the last read, in send
    order, each with its message or None; a close is seen only after the
    entries drain."""
    client, server = sim_channel_pair()
    sent = []
    for i, (kind, *args) in enumerate(steps):
        if kind == "send":
            data, with_msg = args
            entry = (data, i if with_msg else None)
            client.send(*entry)
            sent.append(entry)
        else:
            assert server.try_recv() == sent
            assert not server.readable
            sent = []
    client.close()
    assert server.readable
    if sent:
        assert server.try_recv() == sent
    with pytest.raises(ChannelClosedError):
        server.try_recv()


class TestTcpTransport:
    def test_frames_roundtrip_over_localhost(self):
        listener = TcpListener("127.0.0.1", 0)
        client = transport_connect(listener.endpoint)
        server = None
        deadline = time.time() + 2
        while server is None and time.time() < deadline:
            server = listener.accept()
        assert server is not None

        sent = [Detach("tcp-node"), AttachAck(7), Detach("line\nbreak")]
        for m in sent:
            client.send(encode_message(m))
        dec = FrameDecoder()
        got = []
        deadline = time.time() + 2
        while len(got) < len(sent) and time.time() < deadline:
            got.extend(dec.feed(server.try_recv()))
        assert got == sent

        # contract symmetry: server writes, client reads
        server.send(encode_message(AttachAck(9)))
        dec2 = FrameDecoder()
        got2 = []
        deadline = time.time() + 2
        while not got2 and time.time() < deadline:
            got2.extend(dec2.feed(client.try_recv()))
        assert got2 == [AttachAck(9)]
        client.close(), server.close(), listener.close()

    def test_connection_refused(self):
        with pytest.raises(TransportError, match="failed"):
            transport_connect("127.0.0.1:1", timeout=0.3)

    def test_endpoint_handoff_between_threads(self):
        listener = TcpListener("127.0.0.1", 0)
        client = transport_connect(listener.endpoint)
        server = None
        deadline = time.time() + 2
        while server is None and time.time() < deadline:
            server = listener.accept()

        def writer(chan):
            chan.send(encode_message(Detach("from-thread")))

        t = threading.Thread(target=writer, args=(client,))
        t.start()
        t.join()
        dec = FrameDecoder()
        got = []
        deadline = time.time() + 2
        while not got and time.time() < deadline:
            got.extend(dec.feed(server.try_recv()))
        assert got == [Detach("from-thread")]
        client.close(), server.close(), listener.close()


def test_bad_kind_and_endpoint():
    with pytest.raises(TransportError, match="host:port"):
        transport_connect("no-port-here")
