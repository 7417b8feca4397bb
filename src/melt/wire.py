"""Framed message protocol spoken by every overlay process.

Frame layout: 2 magic bytes 0x4D 0x4C, 1 version byte (0x02), 1 message-type
byte, 4-byte big-endian payload length, UTF-8 payload. The payload is
ordered ``key=value`` lines terminated by LF; values escape backslash as
``\\\\`` and LF as ``\\n``; repeated fields use indexed keys (``job.0.id``).
Floats are serialized as the shortest decimal that round-trips binary64.

``Data``, the one message every round carries many of, has one fixed
layout instead: its five numbers as ``key=<ASCII digits>`` lines (no
leading zero) in declaration order, one empty line, then the aggregate
body as it is. The frame length bounds the body, so it is never escaped.
One reader and one writer handle it. A Data payload in any other spelling
is refused, with the generic reader's text where that reader finds a
fault in the numbers. A Data whose numbers are not non-negative ints, or
whose body is not a str, is refused on encode.

Decode refuses a payload with a key that its type does not declare (for
a stream spec that is not a histogram, ``edges`` too).
Any magic or version mismatch is a hard error; there is no negotiation. A
payload longer than ``MAX_PAYLOAD`` (64 MiB) is refused on encode, and on
decode as soon as a header announces it.
Node lists inside JobMapUpdate are comma-joined, so node ids used there must
not contain commas or newlines (enforced at construction).
:class:`FrameDecoder` decodes straight from the bytes fed when it holds
none back.

Encode refuses, with a :class:`ProtocolError`, every message that decoding
its frame would not give back field for field and type for type: an int
field must hold exactly an ``int`` (not a ``bool`` or a ``float``), a str
field exactly a ``str``, a tuple field exactly a ``tuple`` of ``str``
(non-empty, without commas) or of ``float``, and a stream spec's edges
travel only with a histogram. So a host may hand an in-process peer the
sender's frozen message with its frame instead of decoding the frame
(:mod:`melt.simnet`): the peer gets what the decoder would give.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, fields as declared_fields
from operator import attrgetter
from typing import Sequence, get_type_hints

from .streams import StreamSpec

MAGIC = b"\x4d\x4c"
VERSION = 2
HEADER_LEN = 8
_LENGTH = struct.Struct(">I")  # payload length field, at offset 4
MAX_PAYLOAD = 64 << 20  # bytes; both ends refuse a larger payload

DIRECTIONS = ("up-consumer", "agent-producer")


class ProtocolError(ValueError):
    """Malformed frame or payload; distinct from an incomplete prefix.

    Raised out of :meth:`FrameDecoder.feed`, it carries in ``messages`` the
    frames that the feed decoded before the bad one.
    """

    messages: Sequence[Message] = ()


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


_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)  # a backslash and what follows it, if anything


def _unescape_one(escape: re.Match) -> str:
    nxt = escape[1]
    if nxt == "n":
        return "\n"
    if nxt == "\\":
        return "\\"
    if not nxt:
        raise ProtocolError("dangling escape in payload value")
    raise ProtocolError(f"bad escape \\{nxt} in payload value")


def _unescape(value: str) -> str:
    return _ESCAPE.sub(_unescape_one, value) if "\\" in value else value


def _num(x: float) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(x)


# --- payload schema -----------------------------------------------------------
# A message's payload keys are its dataclass fields in declaration order: int
# fields travel as decimal text, tuple fields comma-joined, str fields as they
# are. CreateStream carries its spec's fields instead (metric_names as
# ``metrics``, hist_edges as ``edges`` and only for histograms), and
# JobMapUpdate its entries as indexed ``job.<i>.id``/``job.<i>.nodes`` keys.

def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(p for p in value.split(",") if p) if value else ()


def _join_nums(values) -> str:
    return ",".join(map(_num, values))


def _floats(value: str) -> tuple[float, ...]:
    return tuple(map(float, _split_csv(value)))


def _is_tokens(value) -> bool:
    return type(value) is tuple and all(type(t) is str and t and "," not in t for t in value)


def _is_floats(value) -> bool:
    return type(value) is tuple and all(type(x) is float for x in value)


# (encode, decode, accepts, what it accepts) per declared field type: a value
# that ``accepts`` refuses would not decode back as it is, so it is not encoded
_CODECS = {
    int: (str, int, lambda value: type(value) is int, "an int"),
    str: (str, str, lambda value: type(value) is str, "a str"),
    tuple[str, ...]: (",".join, _split_csv, _is_tokens,
                      "a tuple of non-empty strs without commas"),
    tuple[float, ...]: (_join_nums, _floats, _is_floats, "a tuple of floats"),
}


def _plan(cls: type, **keys: str) -> tuple:
    """(attribute, payload key, encode, decode, accepts, what it accepts) per
    field of ``cls``, in declaration order; ``keys`` renames the payload key
    of some attributes."""
    hints = get_type_hints(cls)
    return tuple((f.name, keys.get(f.name, f.name), *_CODECS[hints[f.name]])
                 for f in declared_fields(cls))


_PLANS = {cls: _plan(cls) for cls in MESSAGE_TYPES
          if cls not in (CreateStream, JobMapUpdate)}
_SPEC_PLAN = _plan(StreamSpec, metric_names="metrics", hist_edges="edges")
# keyed by "is a histogram"
_SPEC_PLANS = {hist: tuple(p for p in _SPEC_PLAN if hist or p[1] != "edges")
               for hist in (False, True)}
# aggregation says whether edges travel, so the decoder reads both first
_SPEC_READS = {hist: sorted(plan, key=lambda p: p[1] not in ("aggregation", "edges"))
               for hist, plan in _SPEC_PLANS.items()}


def _read(fields: dict[str, str], key: str, decode):
    if key not in fields:
        raise ProtocolError(f"payload missing mandatory key {key!r}")
    try:
        return decode(fields[key])
    except ValueError:
        if decode is int:
            raise ProtocolError(f"payload key {key!r} is not an integer") from None
        raise


_DATA_CODE = TYPE_CODES[Data]
_data_fields = attrgetter(*(f.name for f in declared_fields(Data)))
_DATA_TYPES = tuple(get_type_hints(Data)[f.name] for f in declared_fields(Data))
_DATA_NUMBERS = _PLANS[Data][:-1]
# the one spelling of a Data's numbers: each key once, in declaration order,
# ASCII digits with no leading zero, then an empty line
_DATA_HEAD = re.compile("".join(f"{key}=(0|[1-9][0-9]*)\n" for _, key, *_ in _DATA_NUMBERS)
                        + "\n")


def _decode_data(text: str) -> Data:
    head = _DATA_HEAD.match(text)
    if head is not None:
        try:
            return Data(*map(int, head.groups()), text[head.end():])
        except ValueError:  # more digits than int() reads
            pass
    # the generic reader words what is wrong with the header; a header it
    # accepts has its keys in another order or spelling
    fields = _fields(text.partition("\n\n")[0])
    for _, key, _, decode, _, _ in _DATA_NUMBERS:
        _read(fields, key, decode)
    raise ProtocolError("Data payload is not its numbers as key=digits lines in "
                        "declaration order, an empty line and the body")


def _unencodable(msg: Message, attr: str, value, want: str) -> ProtocolError:
    return ProtocolError(f"unencodable {type(msg).__name__}: {attr} is {value!r}, not {want}")


def _pairs(msg: Message, obj, plan, prefix: str = "") -> list[tuple[str, str]]:
    pairs = []
    for attr, key, encode, _, accepts, want in plan:
        value = getattr(obj, attr)
        if not accepts(value):
            raise _unencodable(msg, prefix + attr, value, want)
        pairs.append((key, encode(value)))
    return pairs


def encode_payload(msg: Message) -> bytes:
    """The payload of ``msg``; a :class:`ProtocolError` for a message whose
    frame would not decode back to it (see the module docstring)."""
    cls = type(msg)
    try:
        if cls is Data:
            sid, rnd, window, expected, actual, body = fields = _data_fields(msg)
            if tuple(map(type, fields)) != _DATA_TYPES or min(fields[:-1]) < 0:
                raise ProtocolError(f"unencodable Data: numbers {fields[:-1]!r} and a "
                                    f"{type(body).__name__} body, not non-negative ints "
                                    f"and a str")
            return (f"stream_id={sid}\nround={rnd}\nwindow_secs={window}\n"
                    f"expected_contributors={expected}\nactual_contributors={actual}\n\n"
                    f"{body}").encode("utf-8")
        if cls is JobMapUpdate:
            if type(msg.epoch) is not int:
                raise _unencodable(msg, "epoch", msg.epoch, "an int")
            pairs = [("epoch", str(msg.epoch))]
            for i, (job_id, nodes) in enumerate(msg.entries):
                if type(job_id) is not str or not all(type(n) is str for n in nodes):
                    raise _unencodable(msg, f"entry {i}", (job_id, nodes),
                                       "a str job id and a tuple of str nodes")
                pairs += ((f"job.{i}.id", job_id), (f"job.{i}.nodes", ",".join(nodes)))
        elif cls is CreateStream:
            spec = msg.spec
            if type(spec) is not StreamSpec:
                raise _unencodable(msg, "spec", spec, "a StreamSpec")
            hist = spec.aggregation == "histogram"
            if not hist and spec.hist_edges != ():
                raise _unencodable(msg, "spec.hist_edges", spec.hist_edges,
                                   "() for a stream that is not a histogram")
            pairs = _pairs(msg, spec, _SPEC_PLANS[hist], "spec.")
        else:
            pairs = _pairs(msg, msg, _PLANS[cls])
        return "".join([f"{key}={_escape(text)}\n" for key, text in pairs]).encode("utf-8")
    except ProtocolError:
        raise
    except ValueError as exc:  # an int too long for str(), a str that is not UTF-8
        raise ProtocolError(f"unencodable {cls.__name__}: {exc}") from None


def _fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ProtocolError(f"payload line without '=': {line!r}")
        if key in fields:
            raise ProtocolError(f"duplicate payload key {key!r}")
        fields[key] = _unescape(value)
    return fields


def decode_payload(code: int, payload: bytes) -> Message:
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"payload is not UTF-8: {exc}") from None
    if code == _DATA_CODE:
        return _decode_data(text)
    fields = _fields(text)
    cls = CODE_TYPES[code]
    try:
        if cls is JobMapUpdate:
            entries = []
            i = 0
            while f"job.{i}.id" in fields:
                entries.append((fields[f"job.{i}.id"],
                                _read(fields, f"job.{i}.nodes", _split_csv)))
                i += 1
            if len(fields) != 1 + 2 * i:
                raise ProtocolError("job map payload has stray keys")
            return JobMapUpdate(_read(fields, "epoch", int), tuple(entries))
        plan = (_SPEC_READS[fields.get("aggregation") == "histogram"] if cls is CreateStream
                else _PLANS[cls])
        values = {attr: _read(fields, key, decode) for attr, key, _, decode, _, _ in plan}
        msg = CreateStream(StreamSpec(**values)) if cls is CreateStream else cls(**values)
        if len(fields) != len(plan):  # each key of the plan is in fields: the rest are stray
            raise ProtocolError(f"{cls.__name__} payload has stray keys")
        return msg
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


_HEADS = {code: MAGIC + bytes((VERSION, code)) for code in CODE_TYPES}  # a frame's first 4 bytes


def encode_message(msg: Message) -> bytes:
    """One complete frame; identical input yields identical bytes."""
    code = TYPE_CODES.get(type(msg))
    if code is None:
        raise ProtocolError(f"unencodable message {type(msg).__name__}")
    payload = encode_payload(msg)
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return _HEADS[code] + _LENGTH.pack(len(payload)) + payload


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
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame announces {length} payload bytes, more than {MAX_PAYLOAD}")
    end = pos + HEADER_LEN + length
    if len(buf) < end:
        return None, pos
    return decode_payload(buf[pos + 3], buf[pos + HEADER_LEN:end]), end


def _frames(buf) -> tuple[list[Message], int]:
    """Every complete frame at the start of ``buf``, and the offset after
    them; a :class:`ProtocolError` carries the frames before the bad one."""
    out: list[Message] = []
    pos = 0
    try:
        while True:
            msg, pos = _frame_at(buf, pos)
            if msg is None:
                return out, pos
            out.append(msg)
    except ProtocolError as exc:
        exc.messages = out
        raise


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
        if buf:
            buf += data
            msgs, end = _frames(buf)
            del buf[:end]
            return msgs
        # nothing held back: decode straight from the bytes fed, and keep
        # only what follows the last whole frame
        try:
            msgs, end = _frames(data)
        except ProtocolError:
            buf += data
            raise
        if end < len(data):
            buf += data[end:]
        return msgs

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
