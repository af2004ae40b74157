"""The piggyback codecs against their frozen oracles, frame for frame.

:mod:`tests.clocks.delta_oracle` keeps the component-by-component
``DeltaChannelCodec`` and ``FullVectorCodec``.  Hypothesis drives both
the library codec and the oracle through the same random walk of
encodes, forced resyncs and channel resets, and requires the same blob
bytes, the same counters and the same decoded vectors at every step.
The walks reach the multi-byte cases (indices past 126 on 130-wide
vectors, increments of 128 and more, values past ``2**35``), the
non-monotone and wide-change resync fallbacks, and inputs given as
integral floats, bools, tuples, ``VectorTimestamp`` and
``MutableVector``.  Malformed blobs must raise the same ``WireError``
as the oracle, and leave the same snapshot behind.
"""

from __future__ import annotations

from array import array

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.delta import DeltaChannelCodec, FullVectorCodec
from repro.core.fastpath import MutableVector
from repro.core.vector import VectorTimestamp
from repro.sim.wire import (
    WireError,
    encode_varint,
    encode_varints,
    encode_vector,
)
from tests.clocks import delta_oracle

WALKS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SIZES = st.sampled_from([1, 2, 3, 8, 32, 130])
KEYS = [("a", "b"), ("b", "a"), ("c", "a")]
MUTATIONS = ["same", "few", "few", "few", "wide", "down", "big", "huge",
             "negative"]
STYLES = ["list", "tuple", "timestamp", "workspace", "float", "bool"]


def _present(vector, style):
    """``vector`` in one of the input shapes the encoders accept."""
    if style == "tuple":
        return tuple(vector)
    if style == "timestamp":
        return VectorTimestamp(vector)
    if style == "workspace":
        return MutableVector(vector)
    if style == "float":
        return [float(v) if abs(v) < 2**53 else v for v in vector]
    if style == "bool":
        return [bool(v) if v in (0, 1) else v for v in vector]
    return list(vector)


def _mutate(data, vector):
    """The next vector of a walk; ``vector`` itself is left alone."""
    size = len(vector)
    out = list(vector)
    index = st.integers(0, size - 1)
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if kind == "few":
        for _ in range(data.draw(st.integers(1, 3))):
            out[data.draw(index)] += data.draw(st.integers(1, 3))
    elif kind == "wide":
        for i in range(size):
            if data.draw(st.booleans()) or i % 2:
                out[i] += data.draw(st.integers(1, 2))
    elif kind == "down":
        i = data.draw(index)
        out[i] = max(0, out[i] - data.draw(st.integers(1, 5)))
    elif kind == "big":
        out[data.draw(index)] += data.draw(st.integers(128, 20000))
    elif kind == "huge":
        out[data.draw(index)] += data.draw(st.integers(2**35, 2**40))
    elif kind == "negative":
        out[data.draw(index)] = -data.draw(st.integers(1, 300))
    return out


def _outcome(call, *args):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", call(*args))
    except (WireError, ValueError, TypeError) as exc:
        return ("error", type(exc), str(exc))


class TestDeltaCodecMatchesOracle:
    @WALKS
    @given(
        SIZES,
        st.sampled_from([0, 1, 2, 5, 64]),
        st.integers(1, 60),
        st.data(),
    )
    def test_random_walk_frames(self, size, interval, steps, data):
        codec = DeltaChannelCodec(size, resync_interval=interval)
        oracle = delta_oracle.DeltaChannelCodec(
            size, resync_interval=interval
        )
        vectors = {key: [0] * size for key in KEYS}
        for _ in range(steps):
            key = data.draw(st.sampled_from(KEYS), label="key")
            op = data.draw(
                st.sampled_from(["encode"] * 8 + ["force", "reset"]),
                label="op",
            )
            if op == "force":
                codec.force_resync(key)
                oracle.force_resync(key)
                continue
            if op == "reset":
                codec.reset_channel(key)
                oracle.reset_channel(key)
                vectors[key] = [0] * size
                continue
            new = _mutate(data, vectors[key])
            style = data.draw(st.sampled_from(STYLES), label="style")
            got = _outcome(codec.encode, key, _present(new, style))
            want = _outcome(oracle.encode, key, _present(new, style))
            assert got == want
            assert codec.stats_dict() == oracle.stats_dict()
            if got[0] == "error":
                continue
            vectors[key] = new
            blob = got[1]
            decoded = codec.decode(key, blob)
            assert decoded == oracle.decode(key, blob)
            assert list(decoded) == new

    @WALKS
    @given(SIZES, st.integers(0, 3))
    def test_wrong_size_rejected_alike(self, size, extra):
        codec = DeltaChannelCodec(size)
        oracle = delta_oracle.DeltaChannelCodec(size)
        vector = [1] * (size + 1 + extra)
        got = _outcome(codec.encode, KEYS[0], vector)
        assert got[0] == "error"
        assert got == _outcome(oracle.encode, KEYS[0], vector)
        assert codec.stats_dict() == oracle.stats_dict()
        # The failed call leaves no channel state behind in either.
        assert _outcome(codec.encode, KEYS[0], [0] * size) == _outcome(
            oracle.encode, KEYS[0], [0] * size
        )


#: Blobs every delta decoder rejects, whatever its size.
REJECTED = [
    b"\x81",  # truncated varint
    b"\x01\x81",  # truncated increment
    b"\xff" * 10 + b"\x01",  # varint over 64 bits
    b"\x01" + b"\xff" * 10 + b"\x01",  # increment over 64 bits
    b"\x01\x00",  # zero increment
    b"\x01\x01\x02\x00",  # zero increment after a good pair
    b"\x01",  # tag with no increment
    b"\x01\x01\x00\x01",  # resync tag in the middle
    b"\x00",  # resync frame with no components
]
#: Blobs whose fate depends on the vector size.
BOUNDARY = [
    b"\x01" + b"\xff" * 9 + b"\x01",  # 64 bits exactly
    b"\x01\x02\x03",  # odd byte count
    b"\x7f\x01",  # index 126
    b"\x80\x01\x01",  # index 127, two-byte tag
    b"\x00\x01",
]
MALFORMED = REJECTED + BOUNDARY


def _rejected(size):
    """Bad blobs for a size-``size`` decoder, the sized ones included."""
    return REJECTED + [
        bytes([size + 1, 1]),  # index one past the end
        bytes([1, 1, size + 1, 1]),
        b"\x00" + bytes(size) + b"\x01",  # trailing byte
        b"\x00" + bytes(size) + b"\x81",
        b"\x00" + bytes(size - 1),  # one component short
    ]


def _malformed(size):
    """Every hand-made blob, valid or not at ``size``."""
    return _rejected(size) + BOUNDARY + [b"\x00" + b"\x81\x01" * size]


class TestDecodeMatchesOracle:
    @WALKS
    @given(
        SIZES,
        st.lists(
            st.one_of(
                st.binary(max_size=12),
                st.sampled_from(MALFORMED),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_delta_decode_any_blob(self, size, blobs):
        codec = DeltaChannelCodec(size)
        oracle = delta_oracle.DeltaChannelCodec(size)
        for blob in blobs + _malformed(size):
            got = _outcome(codec.decode, KEYS[0], blob)
            assert got == _outcome(oracle.decode, KEYS[0], blob)
            # Same snapshot left behind, errors included.
            assert codec.decode(KEYS[0], b"") == oracle.decode(
                KEYS[0], b""
            )

    def test_malformed_blobs_raise_wire_errors(self):
        for size in (1, 3, 130):
            codec = DeltaChannelCodec(size)
            for blob in _rejected(size):
                outcome = _outcome(codec.decode, KEYS[1], blob)
                assert outcome[0] == "error"
                assert outcome[1] is WireError


COMPONENTS = st.one_of(
    st.integers(0, 127),
    st.integers(0, 2**40),
    st.booleans(),
)


class TestFullCodecMatchesOracle:
    @WALKS
    @given(st.lists(st.lists(COMPONENTS, min_size=3, max_size=3), max_size=8))
    def test_frames_and_counters(self, vectors):
        codec = FullVectorCodec(3)
        oracle = delta_oracle.FullVectorCodec(3)
        for vector in vectors:
            blob = codec.encode(KEYS[0], vector)
            assert blob == oracle.encode(KEYS[0], vector)
            assert codec.stats_dict() == oracle.stats_dict()
            assert codec.decode(KEYS[0], blob) == oracle.decode(
                KEYS[0], blob
            )

    def test_rejections_alike(self):
        for vector in ([1, -1, 0], [1.5, 0, 0], [2.0, 0, 0]):
            codec = FullVectorCodec(3)
            oracle = delta_oracle.FullVectorCodec(3)
            got = _outcome(codec.encode, KEYS[0], vector)
            assert got[0] == "error"
            assert got == _outcome(oracle.encode, KEYS[0], vector)
            assert codec.stats_dict() == oracle.stats_dict()


class TestEncodeVarints:
    @WALKS
    @given(st.lists(COMPONENTS, max_size=40))
    def test_equals_one_varint_per_value(self, values):
        expected = b"".join(encode_varint(value) for value in values)
        assert encode_varints(values) == expected
        assert encode_vector(VectorTimestamp(values)) == expected

    def test_rejects_like_encode_varint(self):
        for values in ([1, -3], [0.5], [200, -1]):
            got = _outcome(encode_varints, values)
            want = _outcome(
                lambda vs: b"".join(encode_varint(v) for v in vs), values
            )
            assert got[0] == "error"
            assert got == want

    def test_buffers_are_read_as_values(self):
        values = array("q", [1, 300, 2])
        assert encode_varints(values) == b"\x01\xac\x02\x02"
