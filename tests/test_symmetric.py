"""Tests for the AES substrate, CTR mode and the authenticated envelope.

The library's AES is an encrypt-only T-table cipher; it is cross-checked
against the byte-oriented reference in ``crypto_reference.py``, whose own
correctness is pinned by the FIPS-197 vectors below.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DecryptionError, ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.mathutils.serialization import encode_fields
from repro.symmetric.aes import AES
from repro.symmetric.authenc import AuthenticatedCiphertext, SymmetricEnvelope, group_key_to_bytes
from repro.symmetric.modes import ctr_keystream, decrypt_ctr, encrypt_ctr

from crypto_reference import ReferenceAES

_FIPS197_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestAESBlocks:
    def test_fips197_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(_FIPS197_PLAINTEXT) == expected
        assert ReferenceAES(key).encrypt_block(_FIPS197_PLAINTEXT) == expected

    def test_fips197_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(_FIPS197_PLAINTEXT) == expected
        assert ReferenceAES(key).encrypt_block(_FIPS197_PLAINTEXT) == expected

    def test_fips197_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(_FIPS197_PLAINTEXT) == expected
        assert ReferenceAES(key).encrypt_block(_FIPS197_PLAINTEXT) == expected

    def test_zero_key_zero_block(self):
        assert AES(bytes(16)).encrypt_block(bytes(16)).hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"

    def test_invalid_key_and_block_sizes(self):
        with pytest.raises(ParameterError):
            AES(b"short")
        cipher = AES(bytes(16))
        with pytest.raises(ParameterError):
            cipher.encrypt_block(b"too short")
        with pytest.raises(ParameterError):
            cipher.encrypt_block(bytes(17))

    def test_matches_reference(self):
        rand = random.Random(197)
        for key_len in (16, 24, 32):
            for _ in range(200):
                key, block = rand.randbytes(key_len), rand.randbytes(16)
                assert AES(key).encrypt_block(block) == ReferenceAES(key).encrypt_block(block)


class TestModes:
    def test_ctr_roundtrip_and_symmetry(self):
        key, nonce = bytes(16), bytes(12)
        message = b"counter mode needs no padding"
        ciphertext = encrypt_ctr(key, nonce, message)
        assert len(ciphertext) == len(message)
        assert decrypt_ctr(key, nonce, ciphertext) == message

    def test_ctr_nonce_size(self):
        with pytest.raises(ParameterError):
            encrypt_ctr(bytes(16), bytes(11), b"m")

    def test_ctr_keystream_is_counter_blocks(self, monkeypatch):
        key, nonce = bytes(range(16)), bytes(range(12))
        reference = ReferenceAES(key)
        expected = b"".join(reference.encrypt_block(nonce + i.to_bytes(4, "big")) for i in range(3))
        calls = []
        original = AES.encrypt_block

        def counting(self, block):
            calls.append(block)
            return original(self, block)

        monkeypatch.setattr(AES, "encrypt_block", counting)
        for length in (0, 1, 16, 17, 40, 48):
            calls.clear()
            assert ctr_keystream(key, nonce, length) == expected[:length]
            # One forward-cipher call per (partial) 16-byte block.
            assert len(calls) == -(-length // 16)

    @given(st.binary(max_size=300))
    @settings(max_examples=25)
    def test_ctr_roundtrip_property(self, message):
        key, nonce = bytes(range(16)), bytes(range(12))
        assert decrypt_ctr(key, nonce, encrypt_ctr(key, nonce, message)) == message


class TestSymmetricEnvelope:
    def test_seal_open_roundtrip(self, rng):
        env = SymmetricEnvelope(b"a 16-byte secret")
        sealed = env.seal(b"payload", b"sender", rng)
        assert env.open(sealed, b"sender") == b"payload"

    def test_group_element_roundtrip(self, rng):
        env = SymmetricEnvelope(98765432109876543210)
        sealed = env.seal_group_element(123456789, b"U1", rng)
        assert env.open_group_element(sealed, b"U1") == 123456789

    def test_wrong_sender_rejected(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        with pytest.raises(DecryptionError):
            env.open(sealed, b"U2")

    def test_wrong_key_rejected(self, rng):
        sealed = SymmetricEnvelope(42).seal(b"data", b"U1", rng)
        with pytest.raises(DecryptionError):
            SymmetricEnvelope(43).open(sealed, b"U1")

    def test_tampered_ciphertext_rejected(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        tampered = AuthenticatedCiphertext(
            nonce=sealed.nonce,
            ciphertext=bytes([sealed.ciphertext[0] ^ 1]) + sealed.ciphertext[1:],
            tag=sealed.tag,
        )
        with pytest.raises(DecryptionError):
            env.open(tampered, b"U1")

    def test_tampered_tag_rejected(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        tampered = AuthenticatedCiphertext(
            nonce=sealed.nonce, ciphertext=sealed.ciphertext, tag=bytes(32)
        )
        with pytest.raises(DecryptionError):
            env.open(tampered, b"U1")

    def test_truncated_tag_rejected(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        tampered = AuthenticatedCiphertext(
            nonce=sealed.nonce, ciphertext=sealed.ciphertext, tag=sealed.tag[:-1]
        )
        with pytest.raises(DecryptionError):
            env.open(tampered, b"U1")

    def test_wire_roundtrip_and_size(self, rng):
        env = SymmetricEnvelope(42)
        sealed = env.seal(b"data", b"U1", rng)
        blob = sealed.to_bytes()
        parsed = AuthenticatedCiphertext.from_bytes(blob)
        assert parsed == sealed
        assert sealed.wire_bits == 8 * len(blob)

    @pytest.mark.parametrize("fields", [2, 4])
    def test_from_bytes_rejects_wrong_field_count(self, rng, fields):
        sealed = SymmetricEnvelope(42).seal(b"data", b"U1", rng)
        parts = [sealed.nonce, sealed.ciphertext, sealed.tag, b"extra"][:fields]
        with pytest.raises(DecryptionError):
            AuthenticatedCiphertext.from_bytes(encode_fields(parts))

    def test_from_bytes_rejects_truncated_record(self, rng):
        blob = SymmetricEnvelope(42).seal(b"data", b"U1", rng).to_bytes()
        with pytest.raises(DecryptionError):
            AuthenticatedCiphertext.from_bytes(blob[:-1])

    def test_invalid_key_material(self):
        with pytest.raises(ParameterError):
            SymmetricEnvelope(b"")
        with pytest.raises(ParameterError):
            SymmetricEnvelope(3.5)  # type: ignore[arg-type]
        with pytest.raises(ParameterError):
            group_key_to_bytes(0)

    @given(st.binary(max_size=200), st.binary(min_size=1, max_size=16))
    @settings(max_examples=25)
    def test_roundtrip_property(self, payload, sender):
        env = SymmetricEnvelope(b"0123456789abcdef")
        rng = DeterministicRNG(payload + sender)
        assert env.open(env.seal(payload, sender, rng), sender) == payload
