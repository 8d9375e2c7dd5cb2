"""Tests for the protobuf wire-format substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.protoacc import (
    Field,
    FieldKind,
    Message,
    decode,
    decode_varint,
    decode_with_kinds,
    encode_varint,
)
from repro.accel.protoacc.message import varint_size


class TestVarint:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (300, b"\xac\x02"),
            (2**64 - 1, b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
        ],
    )
    def test_known_encodings(self, value, expected):
        assert encode_varint(value) == expected

    def test_negative_uses_twos_complement(self):
        # protobuf int64 -1 encodes as 10 bytes of 0xff.. 0x01
        assert len(encode_varint(-1)) == 10

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        data = encode_varint(value)
        decoded, pos = decode_varint(data)
        assert decoded == value
        assert pos == len(data)

    def test_truncated_varint_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_varint(b"\x80")

    def test_overlong_varint_rejected(self):
        with pytest.raises(ValueError, match="64 bits"):
            decode_varint(b"\x80" * 10 + b"\x01")


class TestFieldValidation:
    def test_field_number_positive(self):
        with pytest.raises(ValueError):
            Field(0, FieldKind.VARINT, 1)

    def test_kind_value_type_checked(self):
        with pytest.raises(TypeError):
            Field(1, FieldKind.BYTES, 42)
        with pytest.raises(TypeError):
            Field(1, FieldKind.VARINT, b"x")
        with pytest.raises(TypeError):
            Field(1, FieldKind.MESSAGE, b"x")


class TestEncoding:
    def test_varint_field_wire_bytes(self):
        msg = Message((Field(1, FieldKind.VARINT, 150),))
        # tag = (1<<3)|0 = 0x08, value 150 = 0x96 0x01  (protobuf docs example)
        assert msg.encode() == b"\x08\x96\x01"

    def test_bytes_field_wire_bytes(self):
        msg = Message((Field(2, FieldKind.BYTES, b"testing"),))
        assert msg.encode() == b"\x12\x07testing"

    def test_fixed_fields(self):
        msg = Message(
            (Field(1, FieldKind.FIXED32, 1), Field(2, FieldKind.FIXED64, 2))
        )
        data = msg.encode()
        assert data == b"\x0d" + (1).to_bytes(4, "little") + b"\x11" + (2).to_bytes(8, "little")

    def test_nested_message_length_delimited(self):
        inner = Message((Field(1, FieldKind.VARINT, 150),))
        outer = Message((Field(3, FieldKind.MESSAGE, inner),))
        assert outer.encode() == b"\x1a\x03\x08\x96\x01"

    def test_decode_round_trip_flat(self):
        msg = Message(
            (
                Field(1, FieldKind.VARINT, 12345),
                Field(2, FieldKind.FIXED64, 7),
                Field(3, FieldKind.BYTES, b"hello"),
            )
        )
        back = decode(msg.encode())
        assert back.num_fields == 3
        assert back.fields[0].value == 12345
        assert back.fields[2].value == b"hello"

    def test_schema_guided_decode_recovers_nesting(self):
        inner = Message((Field(1, FieldKind.VARINT, 9),))
        outer = Message(
            (Field(1, FieldKind.VARINT, 5), Field(2, FieldKind.MESSAGE, inner))
        )
        back = decode_with_kinds(outer.encode(), outer)
        assert back.fields[1].kind is FieldKind.MESSAGE
        assert back.fields[1].value.fields[0].value == 9
        assert back.encode() == outer.encode()

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            decode(b"\x12\x09short")


class TestMetrics:
    def test_nesting_depth(self):
        flat = Message((Field(1, FieldKind.VARINT, 1),))
        assert flat.nesting_depth == 0
        d1 = Message((Field(1, FieldKind.MESSAGE, flat),))
        d2 = Message((Field(1, FieldKind.MESSAGE, d1),))
        assert d2.nesting_depth == 2

    def test_total_fields_and_messages(self):
        leaf = Message((Field(1, FieldKind.VARINT, 1), Field(2, FieldKind.VARINT, 2)))
        root = Message(
            (Field(1, FieldKind.MESSAGE, leaf), Field(2, FieldKind.MESSAGE, leaf))
        )
        assert root.total_fields == 6
        assert root.total_messages == 3

    def test_num_writes_tracks_encoded_size(self):
        msg = Message((Field(1, FieldKind.BYTES, b"x" * 160),))
        assert msg.num_writes == -(-msg.encoded_size() // 8)

    def test_blob_bytes_not_recursive(self):
        inner = Message((Field(1, FieldKind.BYTES, b"y" * 100),))
        outer = Message(
            (Field(1, FieldKind.BYTES, b"x" * 10), Field(2, FieldKind.MESSAGE, inner))
        )
        assert outer.blob_bytes == 10
        assert inner.blob_bytes == 100

    def test_payload_bytes_recursive(self):
        inner = Message((Field(1, FieldKind.FIXED32, 1),))
        outer = Message(
            (Field(1, FieldKind.VARINT, 1), Field(2, FieldKind.MESSAGE, inner))
        )
        assert outer.payload_bytes == 8 + 4


# ----------------------------------------------------------------------
# Sizes by arithmetic, and the single-pass tokenizers
# ----------------------------------------------------------------------
_numbers = st.one_of(
    st.integers(1, 15), st.integers(16, 2047), st.integers(2048, 2**29 - 1)
)
_leaf_fields = st.one_of(
    st.builds(Field, _numbers, st.just(FieldKind.VARINT), st.integers(-(2**63), 2**64 - 1)),
    st.builds(Field, _numbers, st.just(FieldKind.FIXED32), st.integers(0, 2**32 - 1)),
    st.builds(Field, _numbers, st.just(FieldKind.FIXED64), st.integers(0, 2**64 - 1)),
    st.builds(
        Field,
        _numbers,
        st.just(FieldKind.BYTES),
        st.one_of(st.just(b""), st.binary(max_size=40), st.binary(min_size=128, max_size=300)),
    ),
)


def _messages(depth: int):
    fields = _leaf_fields
    if depth:
        nested = st.builds(Field, _numbers, st.just(FieldKind.MESSAGE), _messages(depth - 1))
        fields = st.one_of(_leaf_fields, nested)
    return st.lists(fields, max_size=5).map(lambda fs: Message(tuple(fs)))


def _deep(depth: int) -> Message:
    msg = Message((Field(2049, FieldKind.BYTES, b"z" * 200),))
    for level in range(depth):
        msg = Message((Field(16 + level, FieldKind.MESSAGE, msg), Field(1, FieldKind.VARINT, -5)))
    return msg


class TestEncodedSize:
    @given(st.integers(-(2**64), 2**70))
    @settings(max_examples=300, deadline=None)
    def test_varint_size_is_encoded_length(self, value):
        assert varint_size(value) == len(encode_varint(value))

    @given(_messages(3))
    @settings(max_examples=300, deadline=None)
    def test_encoded_size_is_encoded_length(self, msg):
        assert msg.encoded_size() == len(msg.encode())

    def test_three_levels_deep_with_long_tags_and_prefixes(self):
        msg = _deep(3)
        assert msg.nesting_depth == 3
        assert msg.encoded_size() == len(msg.encode())


def _protoacc_tokens_by_definition(msg: Message) -> list:
    """Protoacc's tokenizer as first defined: flatten in chase order, and
    bill each part its encoding minus its submessages' encodings."""
    from math import ceil

    from repro.accel.protoacc.interfaces import STREAM_SETUP
    from repro.core.petrinet import Injection

    def flatten(m):
        out = [m]
        for sub in m.submessages():
            out.extend(flatten(sub))
        return out

    tokens = []
    for part in flatten(msg):
        own = len(part.encode()) - sum(len(s.encode()) for s in part.submessages())
        blob = sum(
            STREAM_SETUP + ceil(len(f.value) / 16) for f in part.fields if f.kind is FieldKind.BYTES
        )
        beats = max(1, -(-own // 8))
        payload = {"groups": ceil(part.num_fields / 32), "blob": blob, "beats": beats}
        tokens.append(Injection(place="in", payload=payload))
    return tokens


def _optimus_tokens_by_definition(msg: Message) -> list:
    from repro.core.petrinet import Injection

    return [Injection(place="in", payload={"fields": msg.total_fields, "size": len(msg.encode())})]


def _tokenizer_corpus() -> list[Message]:
    from repro.accel.protoacc.formats import instances
    from repro.workloads import ALL_MIXES

    msgs = list(instances().values()) + [_deep(3)]
    for i, mix in enumerate(ALL_MIXES):
        msgs += mix.sample(seed=11 + i, count=60)
    return msgs


def test_tokenizers_match_their_definitions():
    from repro.accel.optimusprime.interfaces import tokenize_message as optimus_tokens
    from repro.accel.protoacc.interfaces import tokenize_message as protoacc_tokens

    for msg in _tokenizer_corpus():
        # repr, not ==: an int 0 and a float 0.0 key differently.
        assert repr(protoacc_tokens(msg)) == repr(_protoacc_tokens_by_definition(msg))
        assert repr(optimus_tokens(msg)) == repr(_optimus_tokens_by_definition(msg))
