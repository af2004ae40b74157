"""Frozen per-component delta codec: the test oracle for the fast one.

These are the straightforward ``PiggybackCodec``, ``FullVectorCodec``
and ``DeltaChannelCodec`` of :mod:`repro.clocks.delta` before its hot
path scanned for changed components in C and wrote single-byte varint
runs.  Every frame is built component by component with
:func:`repro.sim.wire.encode_varint` and parsed varint by varint with
:func:`repro.sim.wire.decode_varint`, so the byte layout is easy to
read off.  The property suite checks the library's codecs against them
frame for frame: blob bytes, counters and decode errors.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.core.vector import VectorTimestamp
from repro.obs import instrument as _obs
from repro.sim.wire import (
    PB_TAG_FULL,
    WIRE_FORMAT_DELTA,
    WIRE_FORMAT_FULL,
    WireError,
    decode_varint,
    encode_varint,
)

DEFAULT_RESYNC_INTERVAL = 64

ChannelKey = Hashable


class PiggybackCodec:
    """Base class: per-channel encode/decode of piggybacked vectors.

    ``encode`` consumes any int sequence (a :class:`VectorTimestamp`
    or the fast path's ``MutableVector``); ``decode`` returns an
    immutable :class:`VectorTimestamp`.  Subclasses keep whatever
    per-channel state their format needs and count their own frames.
    """

    kind: str = WIRE_FORMAT_FULL
    bound_k: Optional[int] = None

    def __init__(self, size: int):
        if size < 0:
            raise WireError(f"vector size must be >= 0, got {size}")
        self._size = size
        self.frames = 0
        self.resyncs = 0
        self.payload_bytes = 0

    @property
    def size(self) -> int:
        return self._size

    def encode(self, key: ChannelKey, vector) -> bytes:
        raise NotImplementedError

    def decode(self, key: ChannelKey, blob: bytes) -> VectorTimestamp:
        raise NotImplementedError

    def force_resync(self, key: ChannelKey) -> None:
        """Request that the next frame on ``key`` be self-describing.

        No-op for stateless formats; the delta codec uses it after a
        timed-out offer whose frame the decoder never saw.
        """

    def reset_channel(self, key: ChannelKey) -> None:
        """Forget both snapshots of ``key`` (a reconnect).

        Both endpoints of a re-established channel start from the
        all-zero snapshot again, exactly like a fresh connection, so a
        reconnect needs no out-of-band handshake.
        """

    def stats_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "frames": self.frames,
            "resyncs": self.resyncs,
            "payload_bytes": self.payload_bytes,
        }

    def _account(self, blob: bytes, resync: bool) -> None:
        self.frames += 1
        self.payload_bytes += len(blob)
        if resync:
            self.resyncs += 1
        if self.kind != WIRE_FORMAT_FULL:
            m = _obs.metrics
            if m is not None:
                m.piggyback_delta_bytes.inc(len(blob))
                if resync:
                    m.delta_resync_total.inc()


class FullVectorCodec(PiggybackCodec):
    """The baseline format: one LEB128 varint per component.

    Byte-for-byte the historical wire encoding — a ``full`` connection
    is indistinguishable from one predating this module.
    """

    kind = WIRE_FORMAT_FULL

    def encode(self, key: ChannelKey, vector) -> bytes:
        blob = b"".join(encode_varint(component) for component in vector)
        self._account(blob, resync=False)
        return blob

    def decode(self, key: ChannelKey, blob: bytes) -> VectorTimestamp:
        components = []
        offset = 0
        for _ in range(self._size):
            value, offset = decode_varint(blob, offset)
            components.append(value)
        if offset != len(blob):
            raise WireError(
                f"full piggyback frame has {len(blob) - offset} "
                "trailing byte(s)"
            )
        return VectorTimestamp(components)


class DeltaChannelCodec(PiggybackCodec):
    """Stateful differential frames with periodic full resyncs."""

    kind = WIRE_FORMAT_DELTA

    def __init__(
        self,
        size: int,
        resync_interval: int = DEFAULT_RESYNC_INTERVAL,
    ):
        super().__init__(size)
        if resync_interval < 0:
            raise WireError(
                "resync_interval must be >= 0 (0 disables periodic "
                f"resyncs), got {resync_interval}"
            )
        self._resync_interval = resync_interval
        self._sent: Dict[ChannelKey, List[int]] = {}
        self._since_full: Dict[ChannelKey, int] = {}
        self._received: Dict[ChannelKey, List[int]] = {}
        self._force: set = set()
        self.delta_frames = 0

    @property
    def resync_interval(self) -> int:
        return self._resync_interval

    def force_resync(self, key: ChannelKey) -> None:
        self._force.add(key)

    def reset_channel(self, key: ChannelKey) -> None:
        self._sent.pop(key, None)
        self._since_full.pop(key, None)
        self._received.pop(key, None)
        self._force.discard(key)

    def stats_dict(self) -> Dict[str, object]:
        stats = super().stats_dict()
        stats["delta_frames"] = self.delta_frames
        return stats

    # ------------------------------------------------------------------
    def _full_blob(self, components: List[int]) -> bytes:
        parts = [encode_varint(PB_TAG_FULL)]
        parts.extend(encode_varint(value) for value in components)
        return b"".join(parts)

    def encode(self, key: ChannelKey, vector) -> bytes:
        components = [int(value) for value in vector]
        if len(components) != self._size:
            raise WireError(
                f"cannot encode a {len(components)}-component vector "
                f"on a size-{self._size} channel"
            )
        last = self._sent.get(key)
        if last is None:
            last = [0] * self._size
            self._sent[key] = last
            self._since_full[key] = 0
        want_full = key in self._force or (
            self._resync_interval > 0
            and self._since_full[key] >= self._resync_interval
        )
        blob: Optional[bytes] = None
        if not want_full:
            parts: List[bytes] = []
            for index, (new, old) in enumerate(zip(components, last)):
                if new == old:
                    continue
                if new < old:
                    # Non-monotone input (never the Figure 5 clock);
                    # increments cannot express it, so resync instead.
                    want_full = True
                    break
                parts.append(encode_varint(index + 1))
                parts.append(encode_varint(new - old))
            if not want_full:
                candidate = b"".join(parts)
                # Fallback: a delta that saves nothing over the
                # self-describing frame is not worth the statefulness.
                if len(candidate) >= self._size + 1:
                    want_full = True
                else:
                    blob = candidate
        if want_full:
            blob = self._full_blob(components)
            self._force.discard(key)
            self._since_full[key] = 0
        else:
            self._since_full[key] += 1
            self.delta_frames += 1
        last[:] = components
        assert blob is not None
        self._account(blob, resync=want_full)
        return blob

    def decode(self, key: ChannelKey, blob: bytes) -> VectorTimestamp:
        last = self._received.get(key)
        if last is None:
            last = [0] * self._size
            self._received[key] = last
        if not blob:
            return VectorTimestamp(last)
        tag, offset = decode_varint(blob, 0)
        if tag == PB_TAG_FULL:
            components = []
            for _ in range(self._size):
                value, offset = decode_varint(blob, offset)
                components.append(value)
            if offset != len(blob):
                raise WireError(
                    "resync frame has trailing bytes after "
                    f"{self._size} components"
                )
            last[:] = components
            return VectorTimestamp(last)
        while True:
            index = tag - 1
            if not 0 <= index < self._size:
                raise WireError(
                    f"delta frame names component {index} of a "
                    f"size-{self._size} vector"
                )
            increment, offset = decode_varint(blob, offset)
            if increment == 0:
                raise WireError("delta frame carries a zero increment")
            last[index] += increment
            if offset == len(blob):
                return VectorTimestamp(last)
            tag, offset = decode_varint(blob, offset)
