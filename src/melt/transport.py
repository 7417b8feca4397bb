"""Duplex byte channels with two interchangeable backends.

Everything above this layer is transport-agnostic: a channel is an ordered,
reliable, bidirectional byte pipe with non-blocking reads. The in-process
backend is a pair of queues (closing either end closes both, and each side
drains what it was sent before it sees the close); the TCP backend wraps
real sockets, with endpoints given as host:port strings.

An in-process send may carry, beside a whole frame, the message that frame
encodes. A read returns every send since the last read, in send order, as
(bytes, message or None).
"""

from __future__ import annotations

import socket

TCP_RECV_BYTES = 1 << 16


class TransportError(OSError):
    pass


class ChannelClosedError(TransportError):
    pass


class SimChannelEnd:
    """One end of an in-process duplex channel."""

    __slots__ = ("_rx", "closed", "peer")

    def __init__(self) -> None:
        # (bytes, message or None) sent to this end; a list, not a deque:
        # most channels hold nothing most of the time, and an empty deque
        # takes 760 bytes to an empty list's 56 (CPython 3.11)
        self._rx: list[tuple[bytes, object]] = []
        self.closed = False
        self.peer: "SimChannelEnd" | None = None

    def send(self, data: bytes, msg=None) -> None:
        """Queue ``data`` for the peer; ``msg``, when given, is the message
        that ``data``, one whole frame, encodes."""
        if self.closed or self.peer is None or self.peer.closed:
            raise ChannelClosedError("send on closed channel")
        if data:
            self.peer._rx.append((data, msg))

    def try_recv(self) -> list[tuple[bytes, object]]:
        """Every (bytes, message or None) sent since the last read, in send
        order; [] when nothing is pending. Raises ChannelClosedError once
        the channel is closed and nothing is pending."""
        rx = self._rx
        if rx:
            self._rx = []
        elif self.closed:
            raise ChannelClosedError("recv on closed channel")
        return rx

    @property
    def readable(self) -> bool:
        """Whether ``try_recv`` would return entries or raise ChannelClosedError."""
        return bool(self._rx) or self.closed

    def close(self) -> None:
        self.closed = True
        if self.peer is not None:
            self.peer.closed = True


def sim_channel_pair() -> tuple[SimChannelEnd, SimChannelEnd]:
    a, b = SimChannelEnd(), SimChannelEnd()
    a.peer, b.peer = b, a
    return a, b


class TcpChannel:
    """Non-blocking channel over a connected TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.closed = False

    def send(self, data: bytes) -> None:
        if self.closed:
            raise ChannelClosedError("send on closed channel")
        view = memoryview(data)
        while view:
            try:
                sent = self._sock.send(view)
            except BlockingIOError:
                continue
            except OSError as exc:
                raise ChannelClosedError(str(exc)) from exc
            view = view[sent:]

    def try_recv(self) -> bytes:
        if self.closed:
            raise ChannelClosedError("recv on closed channel")
        try:
            data = self._sock.recv(TCP_RECV_BYTES)
        except BlockingIOError:
            return b""
        except OSError as exc:
            raise ChannelClosedError(str(exc)) from exc
        if data == b"":
            self.closed = True
            raise ChannelClosedError("peer closed the connection")
        return data

    def fileno(self) -> int:
        return self._sock.fileno()

    def shutdown_write(self) -> None:
        """Send FIN after what was sent, and neither send nor receive on
        the channel again; the socket stays open for :meth:`discard`."""
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def discard(self) -> bool:
        """Read and drop one read's worth; False once the peer has closed
        or the socket failed, True while more may come."""
        try:
            return self._sock.recv(TCP_RECV_BYTES) != b""
        except BlockingIOError:
            return True
        except OSError:
            return False

    def close(self) -> None:
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass


class TcpListener:
    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self._sock.setblocking(False)
        self.endpoint = f"{host}:{self._sock.getsockname()[1]}"

    def accept(self) -> TcpChannel | None:
        try:
            sock, _addr = self._sock.accept()
        except BlockingIOError:
            return None
        return TcpChannel(sock)

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        self._sock.close()


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise TransportError(f"bad tcp endpoint {endpoint!r}, want host:port")
    return host, int(port)


def transport_connect(endpoint: str, timeout: float = 5.0) -> TcpChannel:
    """Open a TCP channel to ``endpoint`` (host:port)."""
    host, port = parse_endpoint(endpoint)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connect to {endpoint} failed: {exc}") from exc
    return TcpChannel(sock)
