"""Tests for the hashing substrate: SHA-256, H, HMAC and the KDF.

The library's SHA-256 and HMAC come from the standard library; they are
cross-checked against the textbook references in ``crypto_reference.py``,
whose own correctness is pinned by the FIPS 180-4 vectors below.
"""

from __future__ import annotations

import hashlib
import hmac as std_hmac
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.hashing.hashfuncs import HashFunction, default_hash
from repro.hashing.hmac_impl import hmac_sha256, verify_hmac
from repro.hashing.kdf import derive_key, derive_key_from_group_element, hkdf_expand, hkdf_extract
from repro.hashing.sha256 import sha256_digest

from crypto_reference import PureSHA256, reference_hmac_sha256


class TestPureSHA256:
    def test_empty_vector(self):
        assert (
            PureSHA256(b"").hexdigest()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc_vector(self):
        assert (
            PureSHA256(b"abc").hexdigest()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_vector(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            PureSHA256(message).hexdigest()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_incremental_equals_one_shot(self):
        data = bytes(range(256)) * 5
        h = PureSHA256()
        for offset in range(0, len(data), 17):
            h.update(data[offset : offset + 17])
        assert h.digest() == PureSHA256(data).digest()

    def test_digest_does_not_finalise_state(self):
        h = PureSHA256(b"hello")
        first = h.digest()
        assert h.digest() == first
        h.update(b" world")
        assert h.digest() == PureSHA256(b"hello world").digest()

    def test_copy_is_independent(self):
        h = PureSHA256(b"base")
        clone = h.copy()
        clone.update(b"more")
        assert h.digest() == PureSHA256(b"base").digest()
        assert clone.digest() == PureSHA256(b"basemore").digest()

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            PureSHA256().update("text")  # type: ignore[arg-type]

    @given(st.binary(max_size=500))
    @settings(max_examples=50)
    def test_matches_hashlib(self, data):
        assert sha256_digest(data) == hashlib.sha256(data).digest()

    def test_sha256_digest_matches_reference(self):
        rand = random.Random(20060425)
        for _ in range(200):
            parts = [rand.randbytes(rand.randrange(0, 150)) for _ in range(rand.randrange(0, 4))]
            assert sha256_digest(*parts) == PureSHA256(b"".join(parts)).digest()


class TestHMAC:
    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        data = b"Hi There"
        expected = "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        assert hmac_sha256(key, data).hex() == expected
        assert reference_hmac_sha256(key, data).hex() == expected

    def test_rfc4231_long_key(self):
        key = b"\xaa" * 131
        data = b"Test Using Larger Than Block-Size Key - Hash Key First"
        expected = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        assert hmac_sha256(key, data).hex() == expected
        assert reference_hmac_sha256(key, data).hex() == expected

    def test_verify_helpers(self):
        tag = hmac_sha256(b"k", b"m")
        assert verify_hmac(b"k", b"m", tag)
        assert not verify_hmac(b"k", b"m2", tag)
        assert not verify_hmac(b"k2", b"m", tag)
        assert not verify_hmac(b"k", b"m", tag[:-1])

    def test_verify_rejects_malformed_tags(self):
        tag = hmac_sha256(b"key", b"message")
        flipped = bytes([tag[0] ^ 0x01]) + tag[1:]
        for bad in (tag[:16], tag + b"\x00", b"", flipped):
            assert verify_hmac(b"key", b"message", bad) is False

    def test_matches_reference(self):
        rand = random.Random(4231)
        # Key lengths straddle the 64-byte block, where long keys are hashed first.
        for key_len in (0, 1, 20, 32, 63, 64, 65, 131):
            for _ in range(8):
                key = rand.randbytes(key_len)
                message = rand.randbytes(rand.randrange(0, 200))
                assert hmac_sha256(key, message) == reference_hmac_sha256(key, message)

    @given(st.binary(max_size=100), st.binary(max_size=300))
    @settings(max_examples=50)
    def test_matches_stdlib(self, key, message):
        assert hmac_sha256(key, message) == std_hmac.new(key, message, hashlib.sha256).digest()


class TestHashFunction:
    def test_output_bits_respected(self):
        for bits in (80, 128, 160, 161, 256):
            h = HashFunction(output_bits=bits)
            digest_int = h.digest_int(b"data")
            assert digest_int < 2**bits
            assert len(h.digest(b"data")) == (bits + 7) // 8

    def test_invalid_output_bits(self):
        with pytest.raises(ParameterError):
            HashFunction(output_bits=0)
        with pytest.raises(ParameterError):
            HashFunction(output_bits=100000)

    def test_domain_separation(self):
        h = HashFunction()
        assert h.digest(b"x", domain=b"a") != h.digest(b"x", domain=b"b")
        assert h.challenge(b"x") != h.digest_int(b"x")

    def test_deterministic(self):
        assert HashFunction().digest(b"a", b"b") == HashFunction().digest(b"a", b"b")

    def test_field_boundaries_matter(self):
        h = HashFunction()
        assert h.digest(b"ab", b"c") != h.digest(b"a", b"bc")

    def test_identity_to_zn_coprime(self):
        h = default_hash()
        n = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
        for identity in (b"alice", b"bob", b"carol"):
            value = h.identity_to_zn(identity, n)
            assert 2 <= value < n
            assert math.gcd(value, n) == 1

    def test_identity_to_zn_small_modulus_raises(self):
        with pytest.raises(ParameterError):
            default_hash().identity_to_zn(b"x", 3)

    def test_hash_to_zq(self):
        h = default_hash()
        q = 101
        assert 0 <= h.hash_to_zq(b"m", q=q) < q
        with pytest.raises(ParameterError):
            h.hash_to_zq(b"m", q=1)

    def test_map_to_point_index_nonzero(self):
        h = default_hash()
        for identity in (b"a", b"b", b"c", b"d"):
            assert 1 <= h.map_to_point_index(identity, 97) < 97

    def test_callable_alias(self):
        h = default_hash()
        assert h(b"msg") == h.digest(b"msg")


class TestKDF:
    def test_rfc5869_case_1(self):
        prk = hkdf_extract(bytes(range(13)), b"\x0b" * 22)
        assert prk.hex() == "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        okm = hkdf_expand(prk, bytes(range(0xF0, 0xFA)), 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        )

    def test_hkdf_deterministic_and_length(self):
        prk = hkdf_extract(b"salt", b"ikm")
        out = hkdf_expand(prk, b"info", 42)
        assert len(out) == 42
        assert out == hkdf_expand(prk, b"info", 42)
        assert out != hkdf_expand(prk, b"other", 42)

    def test_hkdf_expand_limits(self):
        prk = hkdf_extract(b"", b"ikm")
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"", 0)
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"", 255 * 32 + 1)

    def test_derive_key_lengths(self):
        assert len(derive_key(b"secret")) == 16
        assert len(derive_key(b"secret", length=32)) == 32
        assert derive_key(b"secret", info=b"a") != derive_key(b"secret", info=b"b")

    def test_derive_from_group_element(self):
        key = derive_key_from_group_element(12345678901234567890)
        assert len(key) == 16
        assert key == derive_key_from_group_element(12345678901234567890)
        assert key != derive_key_from_group_element(12345678901234567891)
        with pytest.raises(ParameterError):
            derive_key_from_group_element(0)
