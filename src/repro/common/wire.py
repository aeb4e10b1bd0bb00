"""Compact, schema-versioned wire codec for process-boundary traffic.

The process execution backend ships per-epoch deltas between worker lanes and
the main process.  Generic pickling of those deltas re-serialises the same
feed ids, record keys, event names and gas-category strings every single
epoch, and wraps every small integer in pickle's per-object framing — at one
CPU the serialization tax alone made the process backend slower than serial.
This module is the replacement: a small binary format built from four ideas.

**Varint-packed integers.**  Counters, gas amounts, epoch indices and lengths
are LEB128 varints (:meth:`WireWriter.uvarint`) — one byte for the common
small values — with ZigZag encoding for signed deltas
(:meth:`WireWriter.svarint`), so a zero-omitting ledger delta costs a couple
of bytes per touched counter instead of a pickled tuple.

**Per-channel string interning.**  A wire *channel* is one direction of one
lane's conversation, and it is persistent: the encoder and decoder each keep
a string table that lives as long as the lane does.  The first time a string
crosses (a feed id, a record key, an event or category name) it is sent
inline and registered on both sides; every later occurrence is a varint
reference.  Steady-state epochs therefore carry almost no string bytes at
all.  The table is bounded (:data:`MAX_INTERNED_STRINGS`); once full, new
strings simply travel inline, so an adversarial workload of unique keys
degrades to uncompressed, never to unbounded memory.

**Out-of-band byte buffers.**  Bulk byte payloads (record values, proof
blobs) at or above :data:`OOB_THRESHOLD` are not copied into the frame body;
the encoder keeps a reference in :attr:`WireFrame.blobs` and writes only a
varint index.  The frame then crosses the process boundary as one small body
plus a flat tuple of buffers — the same out-of-band shape pickle protocol 5
uses for :class:`pickle.PickleBuffer` — so big payloads are serialised once,
as raw bytes, with no per-chunk framing.  (The rare value the schema has no
tag for falls back to an embedded protocol-5 pickle.)

**Explicit schema versioning.**  Every frame body starts with a magic byte
and :data:`WIRE_SCHEMA_VERSION`.  A decoder handed a frame from a different
schema raises :class:`WireSchemaError` immediately — a version skew between
a main process and its lanes must fail loudly at the first frame, not corrupt
a merge three epochs later.

Because interning is stateful, frames of one channel MUST be decoded exactly
once, in encode order.  The engine guarantees this by construction: each lane
is one channel per direction, epochs are submitted and merged in order.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import ReproError

#: Bump on any change to the frame layout or the type tags below.  Encoder
#: and decoder check it per frame; a mismatch is a hard error.
#: v2: lane epoch results carry per-feed settled gas (the main-side planner's
#: observation stream).  Feed-snapshot frames joined the vocabulary with v2 and
#: have left it again — a feed now moves as a packed
#: :class:`~repro.gateway.feed_state.FeedState`, not as a wire frame — which
#: changes no layout a v2 decoder reads (lane epochs and arrivals are as they
#: were), so the version stands.
WIRE_SCHEMA_VERSION = 2

#: First byte of every frame body — catches "this is not a wire frame at all"
#: before a version comparison is even meaningful.
WIRE_MAGIC = 0xC7

#: Byte payloads at or above this size are shipped out-of-band as whole
#: buffers (one entry in :attr:`WireFrame.blobs`) instead of being copied
#: into the frame body.
OOB_THRESHOLD = 256

#: Cap on the per-channel intern table.  Strings past the cap travel inline.
MAX_INTERNED_STRINGS = 1 << 16

#: String markers (first varint of an encoded string).
_STR_DEF = 0      # definition: length + utf-8 bytes follow; register it
_STR_INLINE = 1   # inline: length + utf-8 bytes follow; do NOT register
_STR_REF_BASE = 2  # marker - 2 is the table index

#: Bytes markers.
_BYTES_INLINE = 0  # length + raw bytes follow in the body
_BYTES_OOB = 1     # varint blob index follows

#: Value type tags for :meth:`WireWriter.value`.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_TUPLE = 8
_T_DICT = 9
_T_PICKLE = 10
#: String-keyed dicts intern their *key set* per channel, like strings do:
#: the first dict with a given key tuple defines a template
#: (:data:`_T_DICT_KEYS_DEF`: key count + keys), every later dict with the
#: same keys references it (:data:`_T_DICT_KEYS_REF`: template index) and
#: ships only its values.  Event payloads are overwhelmingly the same few
#: shapes, so steady-state dicts cost one byte of framing plus their values.
_T_DICT_KEYS_DEF = 11
_T_DICT_KEYS_REF = 12
#: Tag bytes at or above this encode a small non-negative int directly:
#: tag - _T_SMALL_BASE is the value.  Event payloads are mostly counters and
#: sequence numbers, so this turns the dominant value case into one byte.
_T_SMALL_BASE = 32
_T_SMALL_LIMIT = 256 - _T_SMALL_BASE

_pack_double = struct.Struct("<d").pack
_unpack_double = struct.Struct("<d").unpack_from


class WireError(ReproError):
    """A frame could not be encoded or decoded."""


class WireSchemaError(WireError):
    """A frame carries a different wire schema version than this codec."""


@dataclass(frozen=True)
class WireFrame:
    """One encoded message: a compact body plus out-of-band byte buffers."""

    body: bytes
    blobs: Tuple[bytes, ...] = ()

    @property
    def nbytes(self) -> int:
        """Total wire footprint: body plus every out-of-band buffer."""
        return len(self.body) + sum(len(blob) for blob in self.blobs)


class WireWriter:
    """Appends one frame's worth of primitives to a fresh body.

    Obtained from :meth:`WireEncoder.writer`; shares (and mutates) the
    channel's persistent intern table, so writers of one channel must be
    finished in creation order.
    """

    __slots__ = ("body", "blobs", "_table", "_keysets", "_append", "_extend")

    def __init__(
        self, table: Dict[str, int], keysets: Dict[Tuple[str, ...], int]
    ) -> None:
        self._table = table
        self._keysets = keysets
        self.body = bytearray((WIRE_MAGIC, WIRE_SCHEMA_VERSION))
        self.blobs: List[bytes] = []
        self._append = self.body.append
        self._extend = self.body.extend

    # -- integers ------------------------------------------------------------

    def uvarint(self, n: int) -> None:
        """LEB128 unsigned varint (one byte for n < 128, the common case)."""
        if n < 0x80:
            self._append(n)
            return
        append = self._append
        while n > 0x7F:
            append((n & 0x7F) | 0x80)
            n >>= 7
        append(n)

    def svarint(self, n: int) -> None:
        """ZigZag-mapped varint for possibly-negative integers."""
        if 0 <= n < 0x40:
            self._append(n << 1)
            return
        self.uvarint((n << 1) ^ (n >> 63) if -(1 << 62) <= n < (1 << 62)
                     else _zigzag_big(n))

    # -- strings and bytes ---------------------------------------------------

    def string(self, s: str) -> None:
        """Interned string: definition on first crossing, reference after."""
        table = self._table
        index = table.get(s)
        if index is not None:
            marker = index + _STR_REF_BASE
            if marker < 0x80:
                self._append(marker)
            else:
                self.uvarint(marker)
            return
        data = s.encode("utf-8")
        if len(table) < MAX_INTERNED_STRINGS:
            table[s] = len(table)
            self.uvarint(_STR_DEF)
        else:
            self.uvarint(_STR_INLINE)
        self.uvarint(len(data))
        self._extend(data)

    def bytes_(self, data: bytes) -> None:
        """Byte payload: inline when small, out-of-band buffer when bulk."""
        if len(data) >= OOB_THRESHOLD:
            self.uvarint(_BYTES_OOB)
            self.uvarint(len(self.blobs))
            self.blobs.append(data)
        else:
            self.uvarint(_BYTES_INLINE)
            self.uvarint(len(data))
            self._extend(data)

    def float_(self, x: float) -> None:
        self._extend(_pack_double(x))

    # -- tagged values ---------------------------------------------------------

    def value(self, v: object) -> None:
        """Type-tagged encoding of the payload values the runtime ships:
        None/bool/int/float/str/bytes and lists/tuples/dicts of the same.
        Anything else falls back to an embedded protocol-5 pickle."""
        if v is None:
            self._append(_T_NONE)
        elif v is True:
            self._append(_T_TRUE)
        elif v is False:
            self._append(_T_FALSE)
        else:
            kind = type(v)
            if kind is int:
                if 0 <= v < _T_SMALL_LIMIT:
                    self._append(_T_SMALL_BASE + v)
                else:
                    self._append(_T_INT)
                    self.svarint(v)
            elif kind is str:
                self._append(_T_STR)
                self.string(v)
            elif kind is bytes:
                self._append(_T_BYTES)
                self.bytes_(v)
            elif kind is float:
                self._append(_T_FLOAT)
                self.float_(v)
            elif kind is dict:
                if v:
                    keys = tuple(v)
                    keysets = self._keysets
                    index = keysets.get(keys)
                    if index is not None:
                        self._append(_T_DICT_KEYS_REF)
                        self.uvarint(index)
                        for item in v.values():
                            self.value(item)
                        return
                    if all(type(key) is str for key in keys):
                        if len(keysets) < MAX_INTERNED_STRINGS:
                            keysets[keys] = len(keysets)
                        self._append(_T_DICT_KEYS_DEF)
                        self.uvarint(len(keys))
                        for key in keys:
                            self.string(key)
                        for item in v.values():
                            self.value(item)
                        return
                self._append(_T_DICT)
                self.uvarint(len(v))
                for key, item in v.items():
                    self.value(key)
                    self.value(item)
            elif kind is list or kind is tuple:
                self._append(_T_LIST if kind is list else _T_TUPLE)
                self.uvarint(len(v))
                for item in v:
                    self.value(item)
            else:
                self._append(_T_PICKLE)
                try:
                    blob = pickle.dumps(v, protocol=5)
                except Exception as exc:
                    raise WireError(
                        f"value of type {kind.__name__} crossed the wire "
                        f"boundary but is not picklable: {exc}"
                    ) from exc
                self.bytes_(blob)

    # -- completion ------------------------------------------------------------

    def frame(self) -> WireFrame:
        return WireFrame(body=bytes(self.body), blobs=tuple(self.blobs))


def _zigzag_big(n: int) -> int:  # pragma: no cover - >62-bit amounts
    return (n << 1) ^ (n >> (max(n.bit_length(), 1) + 1)) if n < 0 else n << 1


class WireReader:
    """Decodes one frame; mirror of :class:`WireWriter`.

    Obtained from :meth:`WireDecoder.reader` (which validates the header);
    shares the channel's persistent decode-side string table.
    """

    __slots__ = ("_body", "_blobs", "_pos", "_table", "_keysets", "_mark")

    def __init__(
        self,
        frame: WireFrame,
        table: List[str],
        keysets: List[Tuple[str, ...]],
    ) -> None:
        self._body = frame.body
        self._blobs = frame.blobs
        self._pos = 2  # past magic + version, validated by the channel
        self._table = table
        self._keysets = keysets
        self._mark = (len(table), len(keysets))

    def _fail(self, message: str) -> WireError:
        """The error for a frame that cannot be decoded.  A failed frame
        interns nothing: whatever it registered before the bad byte is taken
        back, so the channel's tables only ever hold complete frames."""
        strings, keysets = self._mark
        del self._table[strings:]
        del self._keysets[keysets:]
        return WireError(message)

    # -- integers ------------------------------------------------------------

    def uvarint(self) -> int:
        body = self._body
        pos = self._pos
        try:
            byte = body[pos]
        except IndexError:
            raise self._fail("truncated frame: varint ran past the body")
        if byte < 0x80:
            self._pos = pos + 1
            return byte
        shift = 0
        result = 0
        while True:
            try:
                byte = body[pos]
            except IndexError:
                raise self._fail("truncated frame: varint ran past the body")
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        self._pos = pos
        return result

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    # -- strings and bytes ---------------------------------------------------

    def string(self) -> str:
        body = self._body
        pos = self._pos
        try:
            marker = body[pos]
        except IndexError:
            raise self._fail("truncated frame: string marker ran past the body")
        if _STR_REF_BASE <= marker < 0x80:
            self._pos = pos + 1
            try:
                return self._table[marker - _STR_REF_BASE]
            except IndexError:
                raise self._fail(
                    f"string reference {marker - _STR_REF_BASE} is outside "
                    "this channel's table — frames decoded out of order?"
                )
        marker = self.uvarint()
        if marker >= _STR_REF_BASE:
            try:
                return self._table[marker - _STR_REF_BASE]
            except IndexError:
                raise self._fail(
                    f"string reference {marker - _STR_REF_BASE} is outside "
                    "this channel's table — frames decoded out of order?"
                )
        length = self.uvarint()
        end = self._pos + length
        if end > len(body):
            raise self._fail("truncated frame: string ran past the body")
        try:
            s = body[self._pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._fail(f"string is not valid UTF-8: {exc}") from exc
        self._pos = end
        if marker == _STR_DEF:
            self._table.append(s)
        return s

    def bytes_(self) -> bytes:
        marker = self.uvarint()
        if marker == _BYTES_OOB:
            index = self.uvarint()
            try:
                return self._blobs[index]
            except IndexError:
                raise self._fail(f"out-of-band buffer {index} missing from frame")
        length = self.uvarint()
        end = self._pos + length
        data = self._body[self._pos:end]
        if len(data) != length:
            raise self._fail("truncated frame: byte payload ran past the body")
        self._pos = end
        return data

    def float_(self) -> float:
        try:
            (x,) = _unpack_double(self._body, self._pos)
        except struct.error:
            raise self._fail("truncated frame: float ran past the body")
        self._pos += 8
        return x

    # -- tagged values ---------------------------------------------------------

    def value(self) -> object:
        try:
            tag = self._body[self._pos]
        except IndexError:
            raise self._fail("truncated frame: value tag ran past the body")
        self._pos += 1
        if tag >= _T_SMALL_BASE:
            return tag - _T_SMALL_BASE
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return self.svarint()
        if tag == _T_STR:
            return self.string()
        if tag == _T_BYTES:
            return self.bytes_()
        if tag == _T_FLOAT:
            return self.float_()
        if tag == _T_DICT_KEYS_REF:
            index = self.uvarint()
            try:
                keys = self._keysets[index]
            except IndexError:
                raise self._fail(
                    f"dict key-set reference {index} is outside this "
                    "channel's table — frames decoded out of order?"
                )
            return {key: self.value() for key in keys}
        if tag == _T_DICT_KEYS_DEF:
            keys = tuple(self.string() for _ in range(self.uvarint()))
            if len(self._keysets) < MAX_INTERNED_STRINGS:
                self._keysets.append(keys)
            return {key: self.value() for key in keys}
        if tag == _T_DICT:
            try:
                return {self.value(): self.value() for _ in range(self.uvarint())}
            except TypeError as exc:
                raise self._fail(f"dict key is not hashable: {exc}") from exc
        if tag == _T_LIST:
            return [self.value() for _ in range(self.uvarint())]
        if tag == _T_TUPLE:
            return tuple(self.value() for _ in range(self.uvarint()))
        if tag == _T_PICKLE:
            blob = self.bytes_()
            try:
                return pickle.loads(blob)
            except Exception as exc:  # whatever a damaged pickle raises
                raise self._fail(f"embedded pickle cannot be loaded: {exc!r}") from exc
        raise self._fail(f"unknown value tag {tag} at offset {self._pos - 1}")


@dataclass
class WireEncoder:
    """The encode side of one persistent channel (one lane, one direction)."""

    _table: Dict[str, int] = field(default_factory=dict)
    _keysets: Dict[Tuple[str, ...], int] = field(default_factory=dict)

    def writer(self) -> WireWriter:
        return WireWriter(self._table, self._keysets)

    @property
    def interned(self) -> int:
        """Strings registered so far (equals the peer decoder's table size)."""
        return len(self._table)


@dataclass
class WireDecoder:
    """The decode side of one persistent channel; validates every header."""

    _table: List[str] = field(default_factory=list)
    _keysets: List[Tuple[str, ...]] = field(default_factory=list)

    def reader(self, frame: WireFrame) -> WireReader:
        body = frame.body
        if len(body) < 2 or body[0] != WIRE_MAGIC:
            raise WireError("not a wire frame (bad magic byte)")
        if body[1] != WIRE_SCHEMA_VERSION:
            raise WireSchemaError(
                f"wire schema mismatch: frame carries version {body[1]}, "
                f"this codec speaks version {WIRE_SCHEMA_VERSION}; "
                "main process and worker lanes must run the same build"
            )
        return WireReader(frame, self._table, self._keysets)

    @property
    def interned(self) -> int:
        return len(self._table)
