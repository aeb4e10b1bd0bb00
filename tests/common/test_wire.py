"""Property tests for the process-boundary wire codec.

The codec is stateful by design — per-channel string and dict-key-set intern
tables persist across frames — so alongside simple round-trip identity these
tests pin the behaviours that keep main and lane processes in lock-step:
interning must survive frame boundaries, the schema guard must reject any
version skew loudly, and decoding frames out of order must fail rather than
silently resolve references against the wrong table.
"""

from __future__ import annotations

import random

import pytest

from repro.common.wire import (
    MAX_INTERNED_STRINGS,
    OOB_THRESHOLD,
    WIRE_MAGIC,
    WIRE_SCHEMA_VERSION,
    WireDecoder,
    WireEncoder,
    WireError,
    WireFrame,
    WireSchemaError,
)


def channel():
    return WireEncoder(), WireDecoder()


def one_frame(build):
    """Encode one frame on a fresh channel, return the decode-side reader."""
    encoder, decoder = channel()
    w = encoder.writer()
    build(w)
    return decoder.reader(w.frame())


class TestVarints:
    def test_uvarint_round_trip_boundaries(self):
        values = [0, 1, 0x7F, 0x80, 0x81, 300, 2**14 - 1, 2**14, 2**32, 2**63]
        r = one_frame(lambda w: [w.uvarint(v) for v in values])
        assert [r.uvarint() for _ in values] == values

    def test_svarint_round_trip_boundaries(self):
        values = [0, 1, -1, 0x3F, 0x40, -0x40, -0x41, 2**40, -(2**40)]
        r = one_frame(lambda w: [w.svarint(v) for v in values])
        assert [r.svarint() for _ in values] == values

    def test_varint_round_trip_randomized(self):
        rng = random.Random(7)
        unsigned = [rng.randrange(0, 2**rng.randrange(1, 62)) for _ in range(500)]
        signed = [v if rng.random() < 0.5 else -v for v in unsigned]
        r = one_frame(
            lambda w: [w.uvarint(u) or w.svarint(s) for u, s in zip(unsigned, signed)]
        )
        for u, s in zip(unsigned, signed):
            assert r.uvarint() == u
            assert r.svarint() == s

    def test_small_uvarint_is_one_byte(self):
        encoder, _ = channel()
        w = encoder.writer()
        base = len(w.body)
        w.uvarint(0x7F)
        assert len(w.body) == base + 1
        w.uvarint(0x80)
        assert len(w.body) == base + 3

    def test_truncated_varint_raises(self):
        _, decoder = channel()
        body = bytes([WIRE_MAGIC, WIRE_SCHEMA_VERSION, 0x80])  # continuation, no end
        r = decoder.reader(WireFrame(body=body))
        with pytest.raises(WireError, match="truncated"):
            r.uvarint()


class TestStrings:
    def test_interning_across_frames(self):
        encoder, decoder = channel()
        w = encoder.writer()
        w.string("feed-00")
        w.string("feed-00")
        first = w.frame()
        w = encoder.writer()
        w.string("feed-00")  # pure reference on the second frame
        second = w.frame()
        r = decoder.reader(first)
        assert r.string() == "feed-00"
        assert r.string() == "feed-00"
        r = decoder.reader(second)
        assert r.string() == "feed-00"
        # steady state: frame is header + one marker byte
        assert len(second.body) == 3

    def test_unicode_round_trip(self):
        strings = ["", "ascii", "päyload", "ключ", "🔑", "asset sep"]
        r = one_frame(lambda w: [w.string(s) for s in strings])
        assert [r.string() for _ in strings] == strings

    def test_table_cap_falls_back_to_inline(self):
        encoder, decoder = channel()
        encoder._table.update((f"s{i}", i) for i in range(MAX_INTERNED_STRINGS))
        decoder._table.extend(f"s{i}" for i in range(MAX_INTERNED_STRINGS))
        w = encoder.writer()
        w.string("overflow")
        w.string("overflow")
        r = decoder.reader(w.frame())
        assert r.string() == "overflow"
        assert r.string() == "overflow"
        # neither side registered it
        assert "overflow" not in encoder._table
        assert len(decoder._table) == MAX_INTERNED_STRINGS

    def test_reference_outside_table_raises(self):
        _, decoder = channel()
        # reference index 5 on a channel that has interned nothing
        body = bytes([WIRE_MAGIC, WIRE_SCHEMA_VERSION, 5 + 2])
        r = decoder.reader(WireFrame(body=body))
        with pytest.raises(WireError, match="out of order"):
            r.string()


class TestBytes:
    def test_small_bytes_inline(self):
        payload = b"\x00\x01" * 10
        encoder, decoder = channel()
        w = encoder.writer()
        w.bytes_(payload)
        frame = w.frame()
        assert frame.blobs == ()
        assert decoder.reader(frame).bytes_() == payload

    def test_bulk_bytes_go_out_of_band(self):
        payload = bytes(range(256)) * 4  # 1 KiB >= OOB_THRESHOLD
        assert len(payload) >= OOB_THRESHOLD
        encoder, decoder = channel()
        w = encoder.writer()
        w.bytes_(payload)
        frame = w.frame()
        assert frame.blobs == (payload,)
        assert payload not in frame.body
        assert decoder.reader(frame).bytes_() == payload
        assert frame.nbytes == len(frame.body) + len(payload)

    def test_missing_oob_blob_raises(self):
        encoder, decoder = channel()
        w = encoder.writer()
        w.bytes_(bytes(OOB_THRESHOLD))
        frame = w.frame()
        stripped = WireFrame(body=frame.body, blobs=())
        with pytest.raises(WireError, match="out-of-band"):
            decoder.reader(stripped).bytes_()


class TestValues:
    def test_scalar_round_trip(self):
        values = [
            None,
            True,
            False,
            0,
            1,
            223,          # last single-byte small int (255 - 32)
            224,          # first value needing the _T_INT path
            -1,
            2**40,
            -(2**40),
            0.0,
            -2.5,
            1e300,
            "text",
            b"bytes",
            bytes(OOB_THRESHOLD + 1),
        ]
        r = one_frame(lambda w: [w.value(v) for v in values])
        out = [r.value() for _ in values]
        assert out == values
        assert [type(v) for v in out] == [type(v) for v in values]

    def test_container_round_trip(self):
        value = {
            "events": [
                {"key": "asset-0001", "version": 3, "size": 64},
                {"key": "asset-0002", "version": 4, "size": 64},
            ],
            "shape": (1, 2, [3, {"nested": None}]),
            7: "non-string key",
        }
        r = one_frame(lambda w: w.value(value))
        assert r.value() == value

    def test_randomized_nested_round_trip(self):
        rng = random.Random(13)

        def make(depth):
            roll = rng.random()
            if depth >= 3 or roll < 0.45:
                return rng.choice(
                    [
                        None,
                        rng.randrange(-(2**33), 2**33),
                        rng.random(),
                        f"k{rng.randrange(30)}",
                        bytes(rng.randrange(0, 12)),
                        rng.random() < 0.5,
                    ]
                )
            if roll < 0.65:
                return [make(depth + 1) for _ in range(rng.randrange(4))]
            if roll < 0.8:
                return tuple(make(depth + 1) for _ in range(rng.randrange(4)))
            return {
                f"f{rng.randrange(6)}": make(depth + 1)
                for _ in range(rng.randrange(4))
            }

        values = [make(0) for _ in range(200)]
        encoder, decoder = channel()
        for value in values:  # one frame per value: exercises persistence
            w = encoder.writer()
            w.value(value)
            assert decoder.reader(w.frame()).value() == value

    def test_unsupported_type_falls_back_to_pickle(self):
        value = {1, 2, 3}  # sets have no wire tag
        r = one_frame(lambda w: w.value(value))
        assert r.value() == value

    def test_unpicklable_value_raises_wire_error(self):
        encoder, _ = channel()
        w = encoder.writer()
        with pytest.raises(WireError, match="not picklable"):
            w.value(lambda: None)


class TestDictKeysetInterning:
    def test_same_shape_dicts_share_a_template(self):
        shape = {"key": "a", "version": 1, "size": 64}
        encoder, decoder = channel()
        w = encoder.writer()
        w.value(shape)
        first = w.frame()
        w = encoder.writer()
        later = {"key": "b", "version": 2, "size": 64}
        w.value(later)
        second = w.frame()
        assert decoder.reader(first).value() == shape
        assert decoder.reader(second).value() == later
        # the second dict shipped no key strings at all
        assert b"version" in first.body
        assert b"version" not in second.body
        assert len(second.body) < len(first.body)

    def test_key_order_is_part_of_the_template(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        encoder, decoder = channel()
        w = encoder.writer()
        w.value(a)
        w.value(b)
        r = decoder.reader(w.frame())
        assert r.value() == a
        assert list(r.value()) == ["y", "x"]

    def test_non_string_keys_fall_back_to_generic_dict(self):
        value = {1: "a", "two": 2}
        encoder, decoder = channel()
        w = encoder.writer()
        w.value(value)
        assert decoder.reader(w.frame()).value() == value
        assert encoder._keysets == {}

    def test_empty_dict(self):
        r = one_frame(lambda w: w.value({}))
        assert r.value() == {}

    def test_keyset_reference_outside_table_raises(self):
        encoder, _ = channel()
        w = encoder.writer()
        w.value({"a": 1})  # first frame defines template 0
        w.frame()
        w = encoder.writer()
        w.value({"a": 2})  # second frame references it
        reference_frame = w.frame()
        # skipping the defining frame leaves the decoder without the template
        r = WireDecoder().reader(reference_frame)
        with pytest.raises(WireError, match="out of order"):
            r.value()


class TestSchemaGuard:
    def test_version_mismatch_raises_schema_error(self):
        encoder, decoder = channel()
        frame = encoder.writer().frame()
        skewed = WireFrame(
            body=bytes([frame.body[0], WIRE_SCHEMA_VERSION + 1]) + frame.body[2:],
            blobs=frame.blobs,
        )
        with pytest.raises(WireSchemaError, match="schema mismatch"):
            decoder.reader(skewed)

    def test_bad_magic_raises(self):
        _, decoder = channel()
        with pytest.raises(WireError, match="magic"):
            decoder.reader(WireFrame(body=b"\x00" + bytes([WIRE_SCHEMA_VERSION])))

    def test_empty_body_raises(self):
        _, decoder = channel()
        with pytest.raises(WireError, match="magic"):
            decoder.reader(WireFrame(body=b""))

    def test_pickle_frames_would_fail_the_magic_check(self):
        """A raw pickle accidentally handed to the codec must not decode."""
        import pickle

        _, decoder = channel()
        blob = pickle.dumps({"not": "a frame"}, protocol=5)
        with pytest.raises(WireError):
            decoder.reader(WireFrame(body=blob))


class TestInternTableBoundary:
    """Round trips at exactly ``MAX_INTERNED_STRINGS`` and one past it, for
    both per-channel tables, across multiple frames of one persistent
    channel.  The cap must be a performance cliff (definitions stop turning
    into references), never a correctness cliff — and both sides must stop
    registering at the same frame, or every later reference resolves against
    skewed indices.
    """

    def _fill_string_tables(self, encoder, decoder, count):
        encoder._table.update((f"s{i}", i) for i in range(count))
        decoder._table.extend(f"s{i}" for i in range(count))

    def test_string_table_at_cap_and_one_past(self):
        encoder, decoder = channel()
        self._fill_string_tables(encoder, decoder, MAX_INTERNED_STRINGS - 1)

        # The cap-th distinct string still gets the last table slot...
        w = encoder.writer()
        w.string("edge")
        w.string("edge")
        r = decoder.reader(w.frame())
        assert [r.string(), r.string()] == ["edge", "edge"]
        assert encoder._table["edge"] == MAX_INTERNED_STRINGS - 1
        assert len(decoder._table) == MAX_INTERNED_STRINGS

        # ...and keeps resolving as a cross-frame reference at the cap, while
        # the (cap+1)-th string falls back to inline on every crossing —
        # frame after frame, without either side registering it.
        for _ in range(2):
            w = encoder.writer()
            w.string("edge")
            w.string("beyond")
            r = decoder.reader(w.frame())
            assert [r.string(), r.string()] == ["edge", "beyond"]
        assert "beyond" not in encoder._table
        assert len(encoder._table) == MAX_INTERNED_STRINGS
        assert len(decoder._table) == MAX_INTERNED_STRINGS

    def _fill_keyset_tables(self, encoder, decoder, count):
        fillers = [(f"f{i}",) for i in range(count)]
        encoder._keysets.update((keys, i) for i, keys in enumerate(fillers))
        decoder._keysets.extend(fillers)

    def test_keyset_table_at_cap_and_one_past(self):
        encoder, decoder = channel()
        self._fill_keyset_tables(encoder, decoder, MAX_INTERNED_STRINGS - 1)

        # The cap-th distinct key set takes the last slot: the second dict
        # with the same shape rides a reference within the frame...
        w = encoder.writer()
        w.value({"alpha": 1, "beta": 2})
        w.value({"alpha": 3, "beta": 4})
        r = decoder.reader(w.frame())
        assert r.value() == {"alpha": 1, "beta": 2}
        assert r.value() == {"alpha": 3, "beta": 4}
        assert encoder._keysets[("alpha", "beta")] == MAX_INTERNED_STRINGS - 1
        assert len(decoder._keysets) == MAX_INTERNED_STRINGS

        # ...and across later frames, while a fresh shape past the cap
        # re-defines its keys on every crossing yet still round-trips, with
        # neither table growing.
        for payload in (7, 8):
            w = encoder.writer()
            w.value({"alpha": payload, "beta": payload})
            w.value({"gamma": payload})
            r = decoder.reader(w.frame())
            assert r.value() == {"alpha": payload, "beta": payload}
            assert r.value() == {"gamma": payload}
        assert ("gamma",) not in encoder._keysets
        assert len(encoder._keysets) == MAX_INTERNED_STRINGS
        assert len(decoder._keysets) == MAX_INTERNED_STRINGS


class TestHostileBytes:
    """A damaged frame either decodes or raises :class:`WireError` — nothing
    else — and leaves the channel's tables as the last good frame left them."""

    READS = (
        "uvarint", "svarint", "string", "string", "string", "bytes_", "bytes_",
        "float_", "value", "value", "value", "value", "value",
    )

    @staticmethod
    def _write(w):
        w.uvarint(300)
        w.svarint(-12345)
        w.string("settlement-receipt")
        w.string("feed-00")  # interned by the first frame: a reference
        w.string("päyload-✓")
        w.bytes_(b"\x00\x01inline")
        w.bytes_(bytes(range(256)) * 2)  # out of band
        w.float_(3.25)
        w.value({"name": "Delivered", "gas": 21000, "ratio": 0.5, "ok": True})
        w.value({"name": "Updated", "gas": 5, "ratio": 1.5, "ok": None})
        w.value({1: "one", (2, 3): [4.5, b"raw", -7]})
        w.value({1, 2, 3})  # no wire tag: embedded pickle
        w.value(["tail", ("nested", 1 << 40)])

    def _channel_after_one_good_frame(self):
        encoder, decoder = channel()
        w = encoder.writer()
        w.string("feed-00")
        decoder.reader(w.frame()).string()
        w = encoder.writer()
        self._write(w)
        return decoder, w.frame()

    def _decode(self, decoder, frame):
        r = decoder.reader(frame)
        return [getattr(r, read)() for read in self.READS]

    def _decodes(self, body, blobs):
        """True if the frame decodes; False if it raised ``WireError`` and left
        the channel as the good frame did.  Anything else propagates."""
        decoder, _ = self._channel_after_one_good_frame()
        try:
            self._decode(decoder, WireFrame(body, blobs))
        except WireError:
            assert decoder.interned == 1 and not decoder._keysets
            return False
        return True

    def test_a_cut_string_is_neither_returned_nor_interned(self):
        decoder, frame = self._channel_after_one_good_frame()
        cut = frame.body.index(b"settlement-receipt") + len("settlement-")
        r = decoder.reader(WireFrame(frame.body[:cut], frame.blobs))
        r.uvarint(), r.svarint()
        with pytest.raises(WireError, match="truncated"):
            r.string()
        assert decoder.interned == 1
        assert self._decode(decoder, frame)[2] == "settlement-receipt"

    def test_every_truncation_point_raises_wire_error(self):
        _, frame = self._channel_after_one_good_frame()
        for cut in range(2, len(frame.body)):
            assert not self._decodes(frame.body[:cut], frame.blobs)
        assert not self._decodes(frame.body, ())

    def test_seeded_mutations_decode_or_raise_wire_error(self):
        _, frame = self._channel_after_one_good_frame()
        rng = random.Random(20260730)
        outcomes = set()
        for _ in range(400):
            body = bytearray(frame.body)
            for _ in range(rng.randrange(1, 4)):
                body[rng.randrange(2, len(body))] = rng.randrange(256)
            outcomes.add(self._decodes(bytes(body), frame.blobs))
        assert outcomes == {True, False}
