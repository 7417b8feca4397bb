"""Wire codec tests, anchored by an independent hand-written serializer."""

from __future__ import annotations

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt import wire
from melt.streams import StreamSpec
from melt.wire import (
    Attach, AttachAck, CreateStream, Data, Detach, Error, FrameDecoder,
    JobMapUpdate, ProtocolError, SetRate, StreamCreated, Subscribe,
    SubscribeAck, decode_all, decode_frame, encode_message,
)


def hand_frame(msg_type: int, payload_text: str) -> bytes:
    """Independent serializer used as the byte-level oracle."""
    payload = payload_text.encode("utf-8")
    header = b"\x4d\x4c" + bytes([wire.VERSION, msg_type]) + struct.pack(">I", len(payload))
    return header + payload


class TestAgainstHandSerializer:
    def test_detach(self):
        expected = hand_frame(10, "node_id=tait01\n")
        assert encode_message(Detach("tait01")) == expected

    def test_jobmap_update(self):
        expected = hand_frame(
            9, "epoch=7\njob.0.id=tait.1111\njob.0.nodes=c1,c2\n")
        msg = JobMapUpdate(7, (("tait.1111", ("c1", "c2")),))
        assert encode_message(msg) == expected

    def test_data(self):
        expected = hand_frame(
            7, "stream_id=3\nround=20\nwindow_secs=10\nexpected_contributors=50\n"
               "actual_contributors=49\n\nkind=summary\ng j IO_RD_BW 2 10.5 1 9.5")
        msg = Data(3, 20, 10, 50, 49, "kind=summary\ng j IO_RD_BW 2 10.5 1 9.5")
        assert encode_message(msg) == expected

    def test_attach(self):
        expected = hand_frame(
            1, "node_id=oss3\ndomain_id=oss\nprocess_role=agent\nlustre_role=oss\n")
        msg = Attach("oss3", "oss", "agent", "oss")
        assert encode_message(msg) == expected

    def test_type_codes_in_declared_order(self):
        assert wire.TYPE_CODES[Attach] == 1
        assert wire.TYPE_CODES[Data] == 7
        assert wire.TYPE_CODES[Detach] == 10
        assert wire.TYPE_CODES[Error] == 11


SAMPLE_MESSAGES = [
    Attach("tait01", "tait", "agent", "client"),
    AttachAck(1),
    CreateStream(StreamSpec(0, "meltmon/knot2/io", "fs=knot2",
                            ("IO_RD_BW", "IO_WR_BW"), "summary", (), "job", 10, 1024)),
    CreateStream(StreamSpec(3, "h", "oss=oss1", ("IO_RD_BW",),
                            "histogram", (1.0, 10.5, 2e9), "ost", 5, 16)),
    StreamCreated(12),
    Subscribe(12, "up-consumer"),
    Subscribe(3, "agent-producer"),
    SubscribeAck(12),
    Data(3, 20, 10, 50, 49, "kind=summary\ng j IO_RD_BW 2 10.5 1 9.5"),
    SetRate(3, ("IO_RD_BW", "META_OP_RATE"), 2),
    SetRate(3, ("IO_RD_BW",), 0),
    JobMapUpdate(4, (("tait.1111", ("c1", "c2")), ("euler.9", ("e1",)))),
    Detach("node with spaces and = signs"),
    Detach("newline\nin the middle"),
    Error("unknown-target", "no such filesystem 'knot9'"),
]


@pytest.mark.parametrize("msg", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip_samples(msg):
    frame = encode_message(msg)
    decoded, rest = decode_frame(frame)
    assert decoded == msg
    assert rest == b""
    # determinism
    assert encode_message(msg) == frame


class TestIncompleteAndMalformed:
    def test_prefix_of_valid_frame_is_incomplete(self):
        frame = encode_message(Detach("tait01"))
        for cut in (0, 1, 3, 7, len(frame) - 1):
            msg, rest = decode_frame(frame[:cut])
            assert msg is None
            assert rest == frame[:cut]

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(b"\x00\x00\x01\x01\x00\x00\x00\x00")
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(b"\x00")

    def test_bad_version(self):
        frame = bytearray(encode_message(Detach("x")))
        frame[2] = 9
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(frame))

    def test_unknown_type_code(self):
        frame = bytearray(encode_message(Detach("x")))
        frame[3] = 200
        with pytest.raises(ProtocolError, match="200"):
            decode_frame(bytes(frame))

    def test_missing_mandatory_key(self):
        frame = hand_frame(10, "wrong_key=x\n")
        with pytest.raises(ProtocolError, match="node_id"):
            decode_frame(frame)

    def test_missing_integer_key_named_missing(self):
        with pytest.raises(ProtocolError, match="payload missing mandatory key 'round'"):
            decode_frame(hand_frame(7, "stream_id=3\n"))
        with pytest.raises(ProtocolError, match="payload key 'round' is not an integer"):
            decode_frame(hand_frame(7, "stream_id=3\nround=x\n"))

    def test_bad_escape(self):
        frame = hand_frame(10, "node_id=bad\\q\n")
        with pytest.raises(ProtocolError, match="escape"):
            decode_frame(frame)

    def test_non_utf8_payload(self):
        frame = hand_frame(10, "")[:-0] + b""
        broken = hand_frame(10, "..")[:8] + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(broken)

    def test_oversized_payload_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_PAYLOAD", 64)
        fits = Detach("x" * (64 - len("node_id=\n")))
        assert len(encode_message(fits)) == wire.HEADER_LEN + 64
        with pytest.raises(ProtocolError, match="exceeds 64"):
            encode_message(Detach("x" * (65 - len("node_id=\n"))))

    @pytest.mark.parametrize("length", [(64 << 20) + 1, 2 ** 32 - 1])
    def test_oversized_length_header_rejected_on_decode(self, length):
        header = b"\x4d\x4c" + bytes((wire.VERSION, 10)) + struct.pack(">I", length)
        with pytest.raises(ProtocolError, match="more than 67108864"):
            decode_frame(header)
        dec = FrameDecoder()
        assert dec.feed(encode_message(Detach("a")) + header[:5]) == [Detach("a")]
        with pytest.raises(ProtocolError, match="payload bytes"):
            dec.feed(header[5:])

    def test_largest_length_header_waits_for_payload(self):
        header = b"\x4d\x4c" + bytes((wire.VERSION, 10)) + struct.pack(">I", 64 << 20)
        assert decode_frame(header) == (None, header)
        assert FrameDecoder().feed(header + b"node_id=") == []


class TestConcatenation:
    def test_two_frames_back_to_back(self):
        a, b = Detach("one"), AttachAck(5)
        msgs, rest = decode_all(encode_message(a) + encode_message(b))
        assert msgs == [a, b]
        assert rest == b""

    def test_frame_plus_partial(self):
        a, b = Detach("one"), Detach("two")
        blob = encode_message(a) + encode_message(b)
        msgs, rest = decode_all(blob[:-3])
        assert msgs == [a]
        assert rest == encode_message(b)[:-3]

    def test_incremental_decoder(self):
        frames = b"".join(encode_message(m) for m in SAMPLE_MESSAGES)
        dec = FrameDecoder()
        got = []
        for i in range(0, len(frames), 7):
            got.extend(dec.feed(frames[i:i + 7]))
        assert got == SAMPLE_MESSAGES
        assert dec.pending_bytes == 0

    def test_decoder_16k_frames_one_buffer_and_7_byte_chunks(self):
        rng = random.Random(16000)
        frames = []
        for i in range(16_000):
            if i % 3:
                msg = SAMPLE_MESSAGES[rng.randrange(len(SAMPLE_MESSAGES))]
            else:
                body = "".join(rng.choice("ab \\\n=%9") for _ in range(rng.randrange(200)))
                msg = Data(i, i, 1, 4, 3, body)
            frames.append(encode_message(msg))
        want = []
        for frame in frames:
            msg, rest = decode_frame(frame)
            assert rest == b""
            want.append(msg)
        blob = b"".join(frames)

        whole = FrameDecoder()
        assert whole.feed(blob) == want
        assert whole.pending_bytes == 0

        chunked = FrameDecoder()
        longest = max(map(len, frames))
        got = []
        for i in range(0, len(blob), 7):
            got.extend(chunked.feed(blob[i:i + 7]))
            assert chunked.pending_bytes < longest
        assert got == want
        assert chunked.pending_bytes == 0

    def test_decoder_keeps_fed_bytes_after_protocol_error(self):
        good, bad = encode_message(Detach("a")), b"\x00\x00" + encode_message(Detach("b"))[2:]
        dec = FrameDecoder()
        with pytest.raises(ProtocolError, match="magic"):
            dec.feed(good + bad)
        assert dec.pending_bytes == len(good) + len(bad)


free_text = st.text(min_size=1, max_size=30)
token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12)
tokens = st.lists(token, min_size=1, max_size=4, unique=True).map(tuple)

messages = st.one_of(
    st.builds(Attach, free_text, free_text, free_text, free_text),
    st.builds(AttachAck, st.integers(0, 2 ** 31)),
    st.builds(StreamCreated, st.integers(0, 2 ** 31)),
    st.builds(Subscribe, st.integers(0, 2 ** 31), st.sampled_from(wire.DIRECTIONS)),
    st.builds(SubscribeAck, st.integers(0, 2 ** 31)),
    st.builds(Data, st.integers(0, 1000), st.integers(0, 10 ** 6), st.integers(1, 3600),
              st.integers(0, 10 ** 4), st.integers(0, 10 ** 4), st.text(max_size=60)),
    st.builds(SetRate, st.integers(0, 1000), tokens, st.integers(0, 3600)),
    st.builds(JobMapUpdate, st.integers(0, 10 ** 6),
              st.lists(st.tuples(token, tokens), max_size=3, unique_by=lambda e: e[0]).map(tuple)),
    st.builds(Detach, free_text),
    st.builds(Error, token, free_text),
    st.builds(CreateStream, st.builds(
        StreamSpec, st.integers(0, 1000), free_text, free_text, tokens,
        st.just("summary"), st.just(()), st.sampled_from(("none", "job")),
        st.integers(1, 600), st.integers(1, 4096))),
)


@given(messages)
@settings(max_examples=400)
def test_roundtrip_property(msg):
    decoded, rest = decode_frame(encode_message(msg))
    assert decoded == msg and rest == b""


@given(st.lists(messages, min_size=1, max_size=6))
@settings(max_examples=100)
def test_concatenation_property(msgs):
    blob = b"".join(encode_message(m) for m in msgs)
    decoded, rest = decode_all(blob)
    assert decoded == msgs and rest == b""


# --- encode refuses what it would not decode back --------------------------------
# A host hands an in-process peer the sender's message instead of decoding
# its frame, which is sound only if every message that encodes decodes back
# as it is. Each field draws its declared type and the values that pass for
# it in Python: bool, float and an int too long for str() for an int; a list
# for a tuple; bytes, None, an int and a lone surrogate for a str; ints,
# bools, commas and empty names inside tuples.

ints = st.one_of(st.integers(), st.builds(pow, st.just(10), st.just(5000)), st.booleans(),
                 st.floats(allow_nan=False))
strs = st.one_of(st.text(max_size=12), st.sampled_from(["a\nb", "\\n", "k=v", "\ud800"]),
                 st.binary(max_size=3), st.none(), st.integers(0, 9))
names = st.one_of(token, st.sampled_from(["", "a,b", "a\nb"]), st.integers(0, 9))
name_seqs = st.one_of(st.lists(names, max_size=3).map(tuple), st.lists(names, max_size=3))
edge_seqs = st.one_of(
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.booleans()), max_size=3).map(tuple),
    st.lists(st.floats(), max_size=3))


def built(cls, *fields):
    """``cls`` of drawn fields, where its constructor takes them."""
    def make(values):
        try:
            return cls(*values)
        except (ValueError, TypeError):
            return None
    return st.tuples(*fields).map(make).filter(lambda msg: msg is not None)


specs = st.one_of(
    st.builds(StreamSpec, ints, strs, strs, name_seqs,
              st.one_of(st.sampled_from(("summary", "histogram", "counted-key")), strs),
              edge_seqs, strs, ints, ints),
    st.none(), st.just("fs=knot2"))
any_messages = st.one_of(
    built(Attach, strs, strs, strs, strs),
    built(AttachAck, ints),
    built(CreateStream, specs),
    built(StreamCreated, ints),
    built(Subscribe, ints, st.one_of(st.sampled_from(wire.DIRECTIONS), strs)),
    built(SubscribeAck, ints),
    built(Data, ints, ints, ints, ints, ints, strs),
    built(SetRate, ints, name_seqs, ints),
    built(JobMapUpdate, ints, st.lists(st.tuples(names, name_seqs), max_size=3).map(tuple)),
    built(Detach, strs),
    built(Error, strs, strs),
)


@given(any_messages)
@settings(max_examples=1000)
def test_a_message_encodes_only_if_it_decodes_back_as_it_is(msg):
    try:
        frame = encode_message(msg)
    except ProtocolError:
        return
    decoded, rest = decode_frame(frame)
    assert repr(decoded) == repr(msg) and rest == b""


@pytest.mark.parametrize("msg, error", [
    (AttachAck(True), "unencodable AttachAck: session_epoch is True, not an int"),
    (StreamCreated(1.0), "unencodable StreamCreated: stream_id is 1.0, not an int"),
    (Detach(b"n1"), "unencodable Detach: node_id is b'n1', not a str"),
    (SetRate(3, ["IO_RD_BW"], 2),
     "unencodable SetRate: metric_names is ['IO_RD_BW'], not a tuple of non-empty strs "
     "without commas"),
    (JobMapUpdate(False, ()), "unencodable JobMapUpdate: epoch is False, not an int"),
    (CreateStream(StreamSpec(1, "s", "fs=knot2", ("A,B",))),
     "unencodable CreateStream: spec.metric_names is ('A,B',), not a tuple of non-empty "
     "strs without commas"),
    (CreateStream(StreamSpec(1, "h", "fs=knot2", ("IO_RD_BW",), "histogram", (1, 2.0))),
     "unencodable CreateStream: spec.hist_edges is (1, 2.0), not a tuple of floats"),
    (CreateStream(StreamSpec(1, "s", "fs=knot2", ("IO_RD_BW",), "summary", (1.0,))),
     "unencodable CreateStream: spec.hist_edges is (1.0,), not () for a stream that is "
     "not a histogram"),
    (AttachAck(10 ** 5000), "unencodable AttachAck: Exceeds the limit"),
    (Error("e", "\ud800"), "unencodable Error: 'utf-8' codec can't encode"),
], ids=["bool-int", "float-int", "bytes-str", "list-tuple", "bool-epoch", "comma-name",
        "int-edge", "edges-without-histogram", "long-int", "surrogate"])
def test_encode_refuses_what_it_would_not_decode_back(msg, error):
    with pytest.raises(ProtocolError) as raised:
        encode_message(msg)
    assert str(raised.value).startswith(error)


def test_decoder_error_carries_the_frames_before_the_bad_one():
    good = encode_message(Detach("a")) + encode_message(AttachAck(2))
    with pytest.raises(ProtocolError, match="magic") as err:
        FrameDecoder().feed(good + b"BADMAGIC")
    assert err.value.messages == [Detach("a"), AttachAck(2)]


@pytest.mark.parametrize("msg", [m for m in SAMPLE_MESSAGES
                                 if not isinstance(m, (Data, JobMapUpdate))],
                         ids=lambda m: type(m).__name__)
def test_a_payload_with_a_key_its_type_does_not_declare_is_refused(msg):
    code = wire.TYPE_CODES[type(msg)]
    payload = wire.encode_payload(msg)
    assert wire.decode_payload(code, payload) == msg
    for stray in (b"junk=1\n", b"z=\n", b"stream_id.0=5\n"):
        for spoiled in (payload + stray, stray + payload):
            with pytest.raises(ProtocolError,
                               match=f"^{type(msg).__name__} payload has stray keys$"):
                wire.decode_payload(code, spoiled)


def test_a_stream_that_is_not_a_histogram_refuses_edges():
    msg = CreateStream(StreamSpec(1, "s", "fs", ("IO_RD_BW",)))
    payload = wire.encode_payload(msg)
    with pytest.raises(ProtocolError, match="^CreateStream payload has stray keys$"):
        wire.decode_payload(wire.TYPE_CODES[CreateStream], payload + b"edges=1.5\n")


def test_jobmap_rejects_commas_in_nodes():
    with pytest.raises(ValueError, match="comma"):
        JobMapUpdate(1, (("job", ("a,b",)),))


def test_subscribe_rejects_bad_direction():
    with pytest.raises(ValueError, match="direction"):
        Subscribe(1, "sideways")


def reference_unescape(value: str) -> str:
    """The original per-character unescape, kept as the reference."""
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            if i + 1 >= len(value):
                raise ProtocolError("dangling escape in payload value")
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            else:
                raise ProtocolError(f"bad escape \\{nxt} in payload value")
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _outcome(fn, value):
    try:
        return "ok", fn(value)
    except ProtocolError as exc:
        return "error", str(exc)


@given(st.text(alphabet="\\\\\\nnnx\n=é", max_size=40))
@settings(max_examples=1000)
def test_unescape_matches_reference(value):
    assert _outcome(wire._unescape, value) == _outcome(reference_unescape, value)


# --- the per-type field tables the schema-driven codec replaced, kept as the
# reference for bytes, decoded values and error texts

def reference_fields_of(msg) -> list[tuple[str, str]]:
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
            pairs.append(("edges", ",".join(wire._num(e) for e in s.hist_edges)))
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


def reference_split_csv(value: str) -> tuple[str, ...]:
    return tuple(p for p in value.split(",") if p) if value else ()


def reference_build(code: int, fields: dict[str, str], order: list[str]):
    read: set[str] = set()

    def need(key: str) -> str:
        if key not in fields:
            raise ProtocolError(f"payload missing mandatory key {key!r}")
        read.add(key)
        return fields[key]

    def need_int(key: str) -> int:
        # need() stays outside the try: the original called it inside, so a
        # missing integer key was reported as "is not an integer"
        value = need(key)
        try:
            return int(value)
        except ValueError:
            raise ProtocolError(f"payload key {key!r} is not an integer") from None

    cls = wire.CODE_TYPES[code]

    def whole(msg):
        # a key that the build did not read is one the type does not declare
        if len(read) != len(order):
            raise ProtocolError(f"{cls.__name__} payload has stray keys")
        return msg

    try:
        if cls is Attach:
            return whole(Attach(need("node_id"), need("domain_id"),
                                need("process_role"), need("lustre_role")))
        if cls is AttachAck:
            return whole(AttachAck(need_int("session_epoch")))
        if cls is CreateStream:
            aggregation = need("aggregation")
            edges = ()
            if aggregation == "histogram":
                edges = tuple(float(e) for e in reference_split_csv(need("edges")))
            return whole(CreateStream(StreamSpec(
                stream_id=need_int("stream_id"), name=need("name"),
                target=need("target"), metric_names=reference_split_csv(need("metrics")),
                aggregation=aggregation, hist_edges=edges,
                group_by=need("group_by"), interval_secs=need_int("interval_secs"),
                buffer_capacity=need_int("buffer_capacity"))))
        if cls is StreamCreated:
            return whole(StreamCreated(need_int("stream_id")))
        if cls is Subscribe:
            return whole(Subscribe(need_int("stream_id"), need("direction")))
        if cls is SubscribeAck:
            return whole(SubscribeAck(need_int("stream_id")))
        if cls is SetRate:
            return whole(SetRate(need_int("stream_id"),
                                 reference_split_csv(need("metric_names")),
                                 need_int("interval_secs")))
        if cls is JobMapUpdate:
            entries = []
            i = 0
            while f"job.{i}.id" in fields:
                entries.append((fields[f"job.{i}.id"],
                                reference_split_csv(need(f"job.{i}.nodes"))))
                i += 1
            expected = 1 + 2 * i
            if len(order) != expected:
                raise ProtocolError("job map payload has stray keys")
            return JobMapUpdate(need_int("epoch"), tuple(entries))
        if cls is Detach:
            return whole(Detach(need("node_id")))
        if cls is Error:
            return whole(Error(need("code"), need("text")))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    raise ProtocolError(f"unknown msg_type code {code}")


DATA_KEYS = [f.name for f in dataclasses.fields(Data)]
DATA_LAYOUT_ERROR = ("Data payload is not its numbers as key=digits lines in declaration "
                     "order, an empty line and the body")


def reference_encode_payload(msg) -> bytes:
    pairs = reference_fields_of(msg)
    if isinstance(msg, Data):  # the numbers' lines, an empty line, the body as it is
        return "".join([f"{key}={value}\n" for key, value in pairs[:-1]]
                       + ["\n", msg.aggregate_body]).encode("utf-8")
    lines = [f"{key}={wire._escape(value)}\n" for key, value in pairs]
    return "".join(lines).encode("utf-8")


def reference_fields(text: str) -> tuple[dict[str, str], list[str]]:
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
        fields[key] = wire._unescape(value)
        order.append(key)
    return fields, order


def reference_decode_data(text: str) -> Data:
    """The five number keys in declaration order, each a decimal with no sign,
    space or leading zero, an empty line, and the rest of the text as the
    body; any other header is worded by the field reader, or is out of layout."""
    header, blank, body = text.partition("\n\n")
    pairs = [line.partition("=") for line in header.split("\n")]
    if blank and [key for key, _, _ in pairs] == DATA_KEYS[:-1] and all(
            value.isascii() and value.isdigit() and (value == "0" or value[0] != "0")
            for _, _, value in pairs):
        try:
            return Data(*(int(value) for _, _, value in pairs), body)
        except ValueError:  # more digits than int() reads
            pass
    fields, _ = reference_fields(header)
    for key in DATA_KEYS[:-1]:
        if key not in fields:
            raise ProtocolError(f"payload missing mandatory key {key!r}")
        try:
            int(fields[key])
        except ValueError:
            raise ProtocolError(f"payload key {key!r} is not an integer") from None
    raise ProtocolError(DATA_LAYOUT_ERROR)


def reference_decode_payload(code: int, payload: bytes):
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"payload is not UTF-8: {exc}") from None
    if wire.CODE_TYPES[code] is Data:
        return reference_decode_data(text)
    return reference_build(code, *reference_fields(text))


edge = st.one_of(st.floats(allow_nan=False), st.integers(-10 ** 6, 10 ** 6).map(float))
histogram_streams = st.builds(CreateStream, st.builds(
    StreamSpec, st.integers(0, 1000), free_text, free_text, tokens,
    st.just("histogram"), st.lists(edge, min_size=1, max_size=4, unique=True).map(
        lambda es: tuple(sorted(es))),
    st.sampled_from(("none", "ost")), st.integers(1, 600), st.integers(1, 4096)))
# edges that only histograms carry, on a stream of another kind, which the
# encoder refuses: decoders still meet such payloads
stray_edge_streams = st.builds(CreateStream, st.builds(
    StreamSpec, st.integers(0, 1000), free_text, free_text, tokens,
    st.sampled_from(("summary", "counted-key")), st.just((1.5, 2.0))))
schema_messages = st.one_of(messages, histogram_streams, stray_edge_streams)


def test_schema_messages_cover_every_type():
    assert len(wire.MESSAGE_TYPES) == 11
    assert {type(m) for m in SAMPLE_MESSAGES} == set(wire.MESSAGE_TYPES)


@given(st.one_of(messages, histogram_streams))
@settings(max_examples=1000)
def test_codec_matches_reference(msg):
    payload = wire.encode_payload(msg)
    assert payload == reference_encode_payload(msg)
    code = wire.TYPE_CODES[type(msg)]
    assert wire.decode_payload(code, payload) == reference_decode_payload(code, payload)


def _decode_outcome(decode, code, payload):
    try:
        return "ok", repr(decode(code, payload))  # repr: a nan edge is unequal to itself
    except ProtocolError as exc:
        return "error", str(exc)


bad_values = st.sampled_from(["", "x", "1.5", " 7", "-3", "1_0", "0x1", "histogram",
                              "a,,b", "nan", "1e3", "\\q"])
stray_keys = st.sampled_from(["junk", "edges", "aggregation", "epoch", "job.0.id",
                              "job.1.nodes", "job.3.id", "stream_id"])


@given(schema_messages, st.data())
@settings(max_examples=1000)
def test_decode_errors_match_reference(msg, data):
    """Drop keys, spoil values and add stray keys, then decode under any type
    code: both codecs return the same message or the same error text."""
    pairs = reference_fields_of(msg)
    n = len(pairs)
    dropped = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    spoiled = data.draw(st.dictionaries(st.integers(0, n - 1), bad_values, max_size=3))
    extra = data.draw(st.lists(st.tuples(stray_keys, bad_values), max_size=2))
    lines = [(key, spoiled.get(i, value)) for i, (key, value) in enumerate(pairs)
             if i not in dropped] + extra
    payload = "".join(f"{key}={wire._escape(value)}\n" for key, value in lines).encode()
    code = data.draw(st.sampled_from(
        [wire.TYPE_CODES[type(msg)]] + sorted(wire.CODE_TYPES)))
    assert _decode_outcome(wire.decode_payload, code, payload) == \
        _decode_outcome(reference_decode_payload, code, payload)


# --- the Data layout ------------------------------------------------------------

DATA_CODE = wire.TYPE_CODES[Data]
numbers = st.sampled_from(["5", "+5", " 5", "5 ", "5_0", "²", "١٢", "-1", "007", "00", "0", "",
                           "9" * 5000, "1.0", "x"])
# bodies with leading empty lines, backslashes, '%', '=', and text beyond ASCII
bodies = st.builds(lambda blank, text: "\n" * blank + text, st.integers(0, 3),
                   st.one_of(st.text(max_size=60), st.text(alphabet="ab =\n\\é%\u2603",
                                                           max_size=30)))
data_messages = st.builds(Data, st.integers(0, 10 ** 30), st.integers(0, 10 ** 6),
                          st.integers(0, 3600), st.integers(0, 10 ** 4),
                          st.integers(0, 10 ** 4), bodies)


@given(data_messages)
@settings(max_examples=500)
def test_a_data_round_trips_with_its_body_as_it_is(msg):
    frame = encode_message(msg)
    payload = frame[wire.HEADER_LEN:]
    assert payload == reference_encode_payload(msg)
    assert payload.endswith(b"\n\n" + msg.aggregate_body.encode("utf-8"))
    assert decode_frame(frame) == (msg, b"")
    assert reference_decode_payload(DATA_CODE, payload) == msg


@given(data_messages, st.data())
@settings(max_examples=1000)
def test_only_the_encoders_spelling_of_a_data_decodes(msg, data):
    """Keys in order, permuted, repeated, missing or joined by others, numbers
    spelled every way, with and without the empty line: the same message or
    the same error text as the reference, and a message only for the bytes
    the encoder writes."""
    pairs = reference_fields_of(msg)[:-1]
    order = data.draw(st.one_of(st.just(list(range(5))), st.permutations(list(range(5))),
                                st.lists(st.integers(0, 4), max_size=7)))
    lines = [[pairs[i][0], pairs[i][1]] for i in order]
    for i in data.draw(st.sets(st.integers(0, max(len(lines) - 1, 0)), max_size=3)):
        if i < len(lines):
            lines[i][1] = data.draw(numbers)
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, [data.draw(st.sampled_from(DATA_KEYS + ["junk", "round2"])),
                          data.draw(numbers)])
    blank = data.draw(st.sampled_from(["\n", ""]))
    payload = ("".join(f"{key}={value}\n" for key, value in lines) + blank
               + msg.aggregate_body).encode("utf-8")
    got = _decode_outcome(wire.decode_payload, DATA_CODE, payload)
    assert got == _decode_outcome(reference_decode_payload, DATA_CODE, payload)
    if got[0] == "ok":
        assert wire.encode_payload(wire.decode_payload(DATA_CODE, payload)) == payload


DATA_HEADER = ("stream_id=3\nround=20\nwindow_secs=10\nexpected_contributors=50\n"
               "actual_contributors=49\n")


@pytest.mark.parametrize("payload, error", [
    (DATA_HEADER.replace("actual_contributors=49\n", "") + "\nkind=summary",
     "payload missing mandatory key 'actual_contributors'"),
    ("\nkind=summary", "payload missing mandatory key 'stream_id'"),
    (DATA_HEADER.replace("round=20", "round=2x") + "\nkind=summary",
     "payload key 'round' is not an integer"),
    (DATA_HEADER.replace("round=20", "round=²") + "\nkind=summary",
     "payload key 'round' is not an integer"),
    (DATA_HEADER.replace("round=20", "round=" + "9" * 5000) + "\nkind=summary",
     "payload key 'round' is not an integer"),
    ("round=20\nstream_id=3\n" + DATA_HEADER.split("\n", 2)[2] + "\nkind=summary",
     DATA_LAYOUT_ERROR),
    (DATA_HEADER.replace("round=20", "round=+20") + "\nkind=summary", DATA_LAYOUT_ERROR),
    (DATA_HEADER.replace("round=20", "round=020") + "\nkind=summary", DATA_LAYOUT_ERROR),
    (DATA_HEADER + "aggregate_body=kind=summary\\ng j IO_RD_BW 2 10.5 1 9.5\n", DATA_LAYOUT_ERROR),
    (DATA_HEADER, DATA_LAYOUT_ERROR),
    (DATA_HEADER + "kind=summary", DATA_LAYOUT_ERROR),
], ids=["missing", "missing-all", "non-digit", "superscript-digit", "5000-digits",
        "reordered", "plus-sign", "leading-zero", "v1-spelling", "no-empty-line",
        "body-without-empty-line"])
def test_a_malformed_data_is_a_protocol_error(payload, error):
    frame = hand_frame(DATA_CODE, payload)
    with pytest.raises(ProtocolError) as plain:
        decode_frame(frame)
    with pytest.raises(ProtocolError) as fed:
        FrameDecoder().feed(frame)
    assert str(plain.value) == str(fed.value) == error
    assert _decode_outcome(reference_decode_payload, DATA_CODE, payload.encode()) == \
        ("error", error)


@pytest.mark.parametrize("field", DATA_KEYS[:-1])
@pytest.mark.parametrize("value", [True, 1.0, "1", -1], ids=["bool", "float", "str", "negative"])
def test_encode_refuses_a_bad_data_number(field, value):
    msg = dataclasses.replace(Data(1, 2, 3, 4, 5, "kind=summary"), **{field: value})
    with pytest.raises(ProtocolError, match="unencodable Data"):
        encode_message(msg)


@pytest.mark.parametrize("body", [b"kind=summary", None, 7], ids=["bytes", "none", "int"])
def test_encode_refuses_a_bad_data_body(body):
    with pytest.raises(ProtocolError, match="unencodable Data"):
        encode_message(Data(1, 2, 3, 4, 5, body))


def test_a_feed_on_an_empty_buffer_keeps_only_a_partial_frame():
    one, two = encode_message(Detach("a")), encode_message(Detach("b"))
    dec = FrameDecoder()
    assert dec.feed(one + two[:5]) == [Detach("a")]
    assert dec.pending_bytes == 5
    assert dec.feed(two[5:] + one) == [Detach("b"), Detach("a")]
    assert dec.pending_bytes == 0
    with pytest.raises(ProtocolError, match="magic") as raised:
        dec.feed(one + b"XX" + two)  # decoded from the bytes fed, then refused
    assert raised.value.messages == [Detach("a")]
    assert dec.pending_bytes == len(one) + 2 + len(two)
