"""Framed message protocol spoken by every overlay process.

Frame layout: 2 magic bytes 0x4D 0x4C, 1 version byte (0x01), 1 message-type
byte, 4-byte big-endian payload length, UTF-8 payload. The payload is
ordered ``key=value`` lines terminated by LF; values escape backslash as
``\\\\`` and LF as ``\\n``; repeated fields use indexed keys (``job.0.id``).
Floats are serialized as the shortest decimal that round-trips binary64.

Any magic or version mismatch is a hard error; there is no negotiation.
Node lists inside JobMapUpdate are comma-joined, so node ids used there must
not contain commas or newlines (enforced at construction).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .streams import StreamSpec

MAGIC = b"\x4d\x4c"
VERSION = 1
HEADER_LEN = 8
_LENGTH = struct.Struct(">I")  # payload length field, at offset 4
MAX_PAYLOAD = 2 ** 32 - 1

DIRECTIONS = ("up-consumer", "agent-producer")


class ProtocolError(ValueError):
    """Malformed frame or payload; distinct from an incomplete prefix."""


@dataclass(frozen=True)
class Attach:
    node_id: str
    domain_id: str
    process_role: str
    lustre_role: str


@dataclass(frozen=True)
class AttachAck:
    session_epoch: int


@dataclass(frozen=True)
class CreateStream:
    spec: StreamSpec


@dataclass(frozen=True)
class StreamCreated:
    stream_id: int


@dataclass(frozen=True)
class Subscribe:
    stream_id: int
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"bad subscribe direction {self.direction!r}")


@dataclass(frozen=True)
class SubscribeAck:
    stream_id: int


@dataclass(frozen=True)
class Data:
    stream_id: int
    round: int
    window_secs: int
    expected_contributors: int
    actual_contributors: int
    aggregate_body: str


@dataclass(frozen=True)
class SetRate:
    stream_id: int
    metric_names: tuple[str, ...]
    interval_secs: int  # 0 clears any override these metrics hold on the stream

    def __post_init__(self) -> None:
        _check_tokens(self.metric_names, "metric name")


@dataclass(frozen=True)
class JobMapUpdate:
    epoch: int
    entries: tuple[tuple[str, tuple[str, ...]], ...]  # (job_id, nodes), sorted

    def __post_init__(self) -> None:
        _check_tokens([j for j, _ in self.entries], "job id")
        for _, nodes in self.entries:
            _check_tokens(nodes, "node id")
        object.__setattr__(self, "entries",
                           tuple(sorted(((j, tuple(n)) for j, n in self.entries))))


@dataclass(frozen=True)
class Detach:
    node_id: str


@dataclass(frozen=True)
class Error:
    code: str
    text: str


Message = (Attach | AttachAck | CreateStream | StreamCreated | Subscribe |
           SubscribeAck | Data | SetRate | JobMapUpdate | Detach | Error)

MESSAGE_TYPES: tuple[type, ...] = (
    Attach, AttachAck, CreateStream, StreamCreated, Subscribe, SubscribeAck,
    Data, SetRate, JobMapUpdate, Detach, Error,
)
TYPE_CODES = {cls: i + 1 for i, cls in enumerate(MESSAGE_TYPES)}
CODE_TYPES = {i + 1: cls for i, cls in enumerate(MESSAGE_TYPES)}


def _check_tokens(tokens, what: str) -> None:
    for tok in tokens:
        if "," in tok or "\n" in tok:
            raise ValueError(f"{what} {tok!r} must not contain commas or newlines")
        if not tok:
            raise ValueError(f"{what} must be nonempty")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape(value: str) -> str:
    if "\\" not in value:
        return value
    # split pairs backslashes left to right, as a scan would, so a backslash
    # left in a part is valid only as the start of a \n escape
    parts = value.split("\\\\")
    for i, part in enumerate(parts):
        plain = part.replace("\\n", "\n")
        if "\\" in plain:
            rest = part.replace("\\n", "")
            at = rest.index("\\")
            if at + 1 == len(rest):  # only possible at the end of the value
                raise ProtocolError("dangling escape in payload value")
            raise ProtocolError(f"bad escape \\{rest[at + 1]} in payload value")
        parts[i] = plain
    return "\\".join(parts)


def _num(x: float) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(x)


# --- payload field tables -----------------------------------------------------

def _fields_of(msg: Message) -> list[tuple[str, str]]:
    """Ordered (key, value-text) pairs for one message."""
    if isinstance(msg, Attach):
        return [("node_id", msg.node_id), ("domain_id", msg.domain_id),
                ("process_role", msg.process_role), ("lustre_role", msg.lustre_role)]
    if isinstance(msg, AttachAck):
        return [("session_epoch", str(msg.session_epoch))]
    if isinstance(msg, CreateStream):
        s = msg.spec
        pairs = [("stream_id", str(s.stream_id)), ("name", s.name),
                 ("target", s.target), ("metrics", ",".join(s.metric_names)),
                 ("aggregation", s.aggregation)]
        if s.aggregation == "histogram":
            pairs.append(("edges", ",".join(_num(e) for e in s.hist_edges)))
        pairs += [("group_by", s.group_by), ("interval_secs", str(s.interval_secs)),
                  ("buffer_capacity", str(s.buffer_capacity))]
        return pairs
    if isinstance(msg, StreamCreated):
        return [("stream_id", str(msg.stream_id))]
    if isinstance(msg, Subscribe):
        return [("stream_id", str(msg.stream_id)), ("direction", msg.direction)]
    if isinstance(msg, SubscribeAck):
        return [("stream_id", str(msg.stream_id))]
    if isinstance(msg, Data):
        return [("stream_id", str(msg.stream_id)), ("round", str(msg.round)),
                ("window_secs", str(msg.window_secs)),
                ("expected_contributors", str(msg.expected_contributors)),
                ("actual_contributors", str(msg.actual_contributors)),
                ("aggregate_body", msg.aggregate_body)]
    if isinstance(msg, SetRate):
        return [("stream_id", str(msg.stream_id)),
                ("metric_names", ",".join(msg.metric_names)),
                ("interval_secs", str(msg.interval_secs))]
    if isinstance(msg, JobMapUpdate):
        pairs = [("epoch", str(msg.epoch))]
        for i, (job_id, nodes) in enumerate(msg.entries):
            pairs.append((f"job.{i}.id", job_id))
            pairs.append((f"job.{i}.nodes", ",".join(nodes)))
        return pairs
    if isinstance(msg, Detach):
        return [("node_id", msg.node_id)]
    if isinstance(msg, Error):
        return [("code", msg.code), ("text", msg.text)]
    raise ProtocolError(f"unencodable message {type(msg).__name__}")


def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(p for p in value.split(",") if p) if value else ()


def _build(code: int, fields: dict[str, str], order: list[str]) -> Message:
    def need(key: str) -> str:
        if key not in fields:
            raise ProtocolError(f"payload missing mandatory key {key!r}")
        return fields[key]

    def need_int(key: str) -> int:
        try:
            return int(need(key))
        except ValueError:
            raise ProtocolError(f"payload key {key!r} is not an integer") from None

    cls = CODE_TYPES[code]
    try:
        if cls is Attach:
            return Attach(need("node_id"), need("domain_id"),
                          need("process_role"), need("lustre_role"))
        if cls is AttachAck:
            return AttachAck(need_int("session_epoch"))
        if cls is CreateStream:
            aggregation = need("aggregation")
            edges = ()
            if aggregation == "histogram":
                edges = tuple(float(e) for e in _split_csv(need("edges")))
            return CreateStream(StreamSpec(
                stream_id=need_int("stream_id"), name=need("name"),
                target=need("target"), metric_names=_split_csv(need("metrics")),
                aggregation=aggregation, hist_edges=edges,
                group_by=need("group_by"), interval_secs=need_int("interval_secs"),
                buffer_capacity=need_int("buffer_capacity")))
        if cls is StreamCreated:
            return StreamCreated(need_int("stream_id"))
        if cls is Subscribe:
            return Subscribe(need_int("stream_id"), need("direction"))
        if cls is SubscribeAck:
            return SubscribeAck(need_int("stream_id"))
        if cls is Data:
            return Data(need_int("stream_id"), need_int("round"), need_int("window_secs"),
                        need_int("expected_contributors"), need_int("actual_contributors"),
                        need("aggregate_body"))
        if cls is SetRate:
            return SetRate(need_int("stream_id"), _split_csv(need("metric_names")),
                           need_int("interval_secs"))
        if cls is JobMapUpdate:
            entries = []
            i = 0
            while f"job.{i}.id" in fields:
                entries.append((fields[f"job.{i}.id"],
                                _split_csv(need(f"job.{i}.nodes"))))
                i += 1
            expected = 1 + 2 * i
            if len(order) != expected:
                raise ProtocolError("job map payload has stray keys")
            return JobMapUpdate(need_int("epoch"), tuple(entries))
        if cls is Detach:
            return Detach(need("node_id"))
        if cls is Error:
            return Error(need("code"), need("text"))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    raise ProtocolError(f"unknown msg_type code {code}")


def encode_payload(msg: Message) -> bytes:
    lines = [f"{key}={_escape(value)}\n" for key, value in _fields_of(msg)]
    return "".join(lines).encode("utf-8")


def decode_payload(code: int, payload: bytes) -> Message:
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"payload is not UTF-8: {exc}") from None
    fields: dict[str, str] = {}
    order: list[str] = []
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ProtocolError(f"payload line without '=': {line!r}")
        if key in fields:
            raise ProtocolError(f"duplicate payload key {key!r}")
        fields[key] = _unescape(value)
        order.append(key)
    return _build(code, fields, order)


def encode_message(msg: Message) -> bytes:
    """One complete frame; identical input yields identical bytes."""
    code = TYPE_CODES.get(type(msg))
    if code is None:
        raise ProtocolError(f"unencodable message {type(msg).__name__}")
    payload = encode_payload(msg)
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError("payload exceeds 2^32-1 bytes")
    return MAGIC + bytes((VERSION, code)) + struct.pack(">I", len(payload)) + payload


def _frame_at(buf, pos: int) -> tuple[Message | None, int]:
    """Decode the frame that starts at ``buf[pos]``.

    Returns (message, offset just past it), or (None, pos) when only an
    incomplete prefix is there. Malformed data raises :class:`ProtocolError`.
    """
    avail = len(buf) - pos
    if buf[pos:pos + 2] != MAGIC[: min(2, avail)]:
        raise ProtocolError(f"bad magic {bytes(buf[pos:pos + 2])!r}")
    if avail >= 3 and buf[pos + 2] != VERSION:
        raise ProtocolError(f"unsupported protocol version {buf[pos + 2]}")
    if avail >= 4 and buf[pos + 3] not in CODE_TYPES:
        raise ProtocolError(f"unknown msg_type code {buf[pos + 3]}")
    if avail < HEADER_LEN:
        return None, pos
    (length,) = _LENGTH.unpack_from(buf, pos + 4)
    end = pos + HEADER_LEN + length
    if len(buf) < end:
        return None, pos
    return decode_payload(buf[pos + 3], buf[pos + HEADER_LEN:end]), end


def _frames(buf) -> tuple[list[Message], int]:
    """Every complete frame at the start of ``buf``, and the offset after them."""
    out: list[Message] = []
    pos = 0
    while True:
        msg, pos = _frame_at(buf, pos)
        if msg is None:
            return out, pos
        out.append(msg)


def decode_frame(buf: bytes) -> tuple[Message | None, bytes]:
    """Decode one frame from ``buf``.

    Returns (message, unconsumed suffix) on success and (None, buf) when the
    buffer holds only an incomplete prefix. Malformed data raises
    :class:`ProtocolError`.
    """
    msg, end = _frame_at(buf, 0)
    return (None, buf) if msg is None else (msg, buf[end:])


def decode_all(buf: bytes) -> tuple[list[Message], bytes]:
    """Decode every complete frame in ``buf``; returns messages + remainder."""
    msgs, end = _frames(buf)
    return msgs, buf[end:]


class FrameDecoder:
    """Incremental decoder for one byte-stream direction of a channel.

    Fed bytes go into one bytearray that is decoded at an advancing offset
    and then trimmed from the front, so a feed costs time linear in the
    bytes it brings, however many frames they hold. After a
    :class:`ProtocolError` the decoder still holds everything fed since the
    last successful feed.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Message]:
        buf = self._buf
        buf += data
        msgs, end = _frames(buf)
        del buf[:end]
        return msgs

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
