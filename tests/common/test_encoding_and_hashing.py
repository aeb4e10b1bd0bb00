"""Unit tests for the shared encoding, hashing and clock primitives."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.common.clock import SimulatedClock
from repro.common.encoding import (
    WORD_SIZE_BYTES,
    decode_value,
    encode_value,
    pad_to_word,
    words_for_bytes,
    words_for_value,
)
from repro.common.hashing import (
    combine_digests,
    hash_pair,
    hash_record,
    hash_words,
    keccak,
)


class TestWordAccounting:
    def test_zero_bytes_is_zero_words(self):
        assert words_for_bytes(0) == 0

    def test_one_byte_rounds_up_to_one_word(self):
        assert words_for_bytes(1) == 1

    def test_exact_word_boundary(self):
        assert words_for_bytes(WORD_SIZE_BYTES) == 1
        assert words_for_bytes(WORD_SIZE_BYTES + 1) == 2

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            words_for_bytes(-1)

    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_words_cover_bytes(self, num_bytes):
        words = words_for_bytes(num_bytes)
        assert words * WORD_SIZE_BYTES >= num_bytes
        assert (words - 1) * WORD_SIZE_BYTES < num_bytes or words == 0


class TestEncodeDecode:
    def test_bytes_pass_through(self):
        assert encode_value(b"abc") == b"abc"

    def test_string_round_trip(self):
        assert decode_value(encode_value("héllo"), str) == "héllo"

    def test_int_round_trip(self):
        assert decode_value(encode_value(123456), int) == 123456

    def test_int_occupies_at_least_one_word(self):
        assert len(encode_value(1)) == WORD_SIZE_BYTES

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            encode_value(-1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value(1.5)  # type: ignore[arg-type]

    def test_unsupported_decode_kind_rejected(self):
        with pytest.raises(TypeError):
            decode_value(b"x", float)  # type: ignore[arg-type]

    def test_words_for_value_counts_encoded_size(self):
        assert words_for_value(b"a" * 33) == 2
        assert words_for_value("abc") == 1

    def test_pad_to_word_multiple(self):
        assert len(pad_to_word(b"abc")) == WORD_SIZE_BYTES
        assert pad_to_word(b"a" * 32) == b"a" * 32

    @given(st.binary(max_size=200))
    def test_padding_preserves_prefix(self, data):
        padded = pad_to_word(data)
        assert padded.startswith(data)
        assert len(padded) % WORD_SIZE_BYTES == 0 or len(padded) == 0


class TestHashing:
    def test_keccak_is_32_bytes(self):
        assert len(keccak(b"x")) == 32

    def test_hash_pair_is_order_sensitive(self):
        a, b = keccak(b"a"), keccak(b"b")
        assert hash_pair(a, b) != hash_pair(b, a)

    def test_hash_words_field_boundaries_matter(self):
        assert hash_words(b"ab", b"c") != hash_words(b"a", b"bc")

    def test_hash_words_matches_longhand_construction(self):
        """Block hashes are ``hash_words``: pin its exact preimage — each
        field's 8-byte big-endian length, then the field — for a ``str``, a
        ``bytes`` and an ``int`` (a whole 32-byte word) field."""
        hasher = hashlib.sha256()
        for field in ("fèed".encode("utf-8"), b"\x00\xff", (7).to_bytes(32, "big")):
            hasher.update(len(field).to_bytes(8, "big"))
            hasher.update(field)
        assert hash_words("fèed", b"\x00\xff", 7) == hasher.digest()

    @pytest.mark.parametrize(
        "prefix, key, value",
        [
            ("NR", "fèed-κλειδί", b"\x01\x02"),
            ("R", "k", b""),
            ("NR", "price", bytes(range(256))),
            ("X", "k", b"v"),
        ],
        ids=["non-ascii-key", "empty-value", "256-byte-value", "unknown-prefix"],
    )
    def test_hash_record_matches_longhand_construction(self, prefix, key, value):
        """Record leaves are ``hash_record``, which builds its preimage
        itself: pin it to ``hash_words``' — each field's 8-byte big-endian
        length, then the field — so the leaf and block-hash encodings cannot
        drift apart, for any ``str`` prefix."""
        hasher = hashlib.sha256()
        for field in (prefix.encode("utf-8"), key.encode("utf-8"), value):
            hasher.update(len(field).to_bytes(8, "big"))
            hasher.update(field)
        assert hash_record(key, value, prefix) == hasher.digest()
        assert hash_record(key, value, prefix) == hash_words(prefix, key, value)

    def test_hash_record_binds_state_prefix(self):
        assert hash_record("k", b"v", "R") != hash_record("k", b"v", "NR")

    def test_combine_digests_is_order_sensitive(self):
        a, b = keccak(b"a"), keccak(b"b")
        assert combine_digests([a, b]) != combine_digests([b, a])

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_distinct_inputs_distinct_digests(self, left, right):
        if left != right:
            assert keccak(left) != keccak(right)


class TestSimulatedClock:
    def test_advance_moves_time(self):
        clock = SimulatedClock()
        clock.advance(5)
        assert clock.now == 5

    def test_cannot_go_backwards(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_advance_accumulates_and_returns_the_new_time(self):
        clock = SimulatedClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0) == 1.5
        assert clock.advance(2) == clock.now == 3.5
