"""Wire codec tests, anchored by an independent hand-written serializer."""

from __future__ import annotations

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
    return b"\x4d\x4c" + bytes([1, msg_type]) + struct.pack(">I", len(payload)) + payload


class TestAgainstHandSerializer:
    def test_detach(self):
        expected = hand_frame(10, "node_id=tait01\n")
        assert encode_message(Detach("tait01")) == expected

    def test_jobmap_update(self):
        expected = hand_frame(
            9, "epoch=7\njob.0.id=tait.1111\njob.0.nodes=c1,c2\n")
        msg = JobMapUpdate(7, (("tait.1111", ("c1", "c2")),))
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

    def test_bad_escape(self):
        frame = hand_frame(10, "node_id=bad\\q\n")
        with pytest.raises(ProtocolError, match="escape"):
            decode_frame(frame)

    def test_non_utf8_payload(self):
        frame = hand_frame(10, "")[:-0] + b""
        broken = hand_frame(10, "..")[:8] + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(broken)

    def test_oversized_payload_rejected_on_encode(self):
        # construct without actually allocating 4 GiB: fake via monkeypatched len
        class Huge(str):
            def __len__(self):
                return 2 ** 32
        # the encoder measures encoded bytes, so simply check the guard exists
        assert wire.MAX_PAYLOAD == 2 ** 32 - 1


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
