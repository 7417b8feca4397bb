from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt import transport
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

    @pytest.mark.parametrize("size", [15, 16, 17, 53])
    def test_a_lone_entry_comes_whole_or_is_cut_at_the_read_boundary(self, size, monkeypatch):
        """A lone entry that fits one read is that read, with its message;
        a longer one is cut into reads of SIM_RECV_BYTES, without it."""
        monkeypatch.setattr(transport, "SIM_RECV_BYTES", 16)
        client, server = sim_channel_pair()
        data = bytes(range(size))
        client.send(data, "msg")
        reads = []
        while server.readable:
            reads.append(server.try_recv())
        if size <= 16:
            assert reads == [[(data, "msg")]]
        else:
            assert reads == [[(data[i:i + 16], None)] for i in range(0, size, 16)]
        client.send(b"next", "m2")  # a read after a cut starts afresh
        assert server.try_recv() == [(b"next", "m2")]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.tuples(st.just("send"), st.binary(min_size=1, max_size=40),
                                    st.booleans()),
                          st.just(("read",))), max_size=30))
def test_a_sim_read_takes_what_a_byte_pipe_read_would(steps):
    """Each read takes the first SIM_RECV_BYTES pending bytes, as a read of
    one byte pipe would, and a frame sent with its message comes with it
    exactly when it lies whole in one read."""
    budget = 16
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "SIM_RECV_BYTES", budget)
        client, server = sim_channel_pair()
        pipe = b""
        spans = {}  # message -> (first, last + 1) offset of its frame in the pipe
        whole, got = set(), set()
        read_at = 0
        for i, (kind, *args) in enumerate(steps + [("read",)] * 100):
            if kind == "send":
                data, with_msg = args
                client.send(data, i if with_msg else None)
                if with_msg:
                    spans[i] = (len(pipe), len(pipe) + len(data))
                pipe += data
                continue
            pieces = server.try_recv()
            taken = b"".join(data for data, _msg in pieces)
            assert taken == pipe[read_at:read_at + budget]
            whole |= {i for i, (first, end) in spans.items()
                      if read_at <= first and end <= read_at + len(taken)}
            got |= {msg for data, msg in pieces if msg is not None and data == steps[msg][1]}
            read_at += len(taken)
        assert read_at == len(pipe) and not server.readable
        assert got == whole


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
