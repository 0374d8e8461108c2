"""Slow, readable reference implementations the library's crypto is checked against.

The library runs SHA-256 and HMAC on :mod:`hashlib`/:mod:`hmac` and AES on a
T-table cipher.  These references compute the same functions the textbook
way, so the tests can cross-check the fast code on random inputs:

* :class:`PureSHA256` — FIPS 180-4 SHA-256 with an explicit compression loop,
* :func:`reference_hmac_sha256` — RFC 2104 HMAC over :class:`PureSHA256`,
* :class:`ReferenceAES` — FIPS-197 forward AES on a byte-oriented state
  (SubBytes, ShiftRows, MixColumns, AddRoundKey as separate steps).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

__all__ = ["PureSHA256", "reference_hmac_sha256", "ReferenceAES"]


# ---------------------------------------------------------------------------
# SHA-256
# ---------------------------------------------------------------------------

_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


class PureSHA256:
    """Incremental SHA-256 (FIPS 180-4) over arbitrary byte strings.

    The API mirrors :mod:`hashlib`: ``PureSHA256(data).digest()`` /
    ``.hexdigest()``, plus an incremental ``update`` and ``copy``.
    """

    digest_size = 32
    block_size = 64
    name = "sha256"

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(_H0)
        self._pending = b""
        self._length = 0
        if data:
            self.update(data)

    def copy(self) -> "PureSHA256":
        """Return an independent copy of the running state."""
        clone = PureSHA256()
        clone._h = list(self._h)
        clone._pending = self._pending
        clone._length = self._length
        return clone

    def update(self, data: bytes) -> None:
        """Absorb more message bytes."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("PureSHA256.update expects bytes")
        data = bytes(data)
        self._length += len(data)
        buffer = self._pending + data
        offset = 0
        while offset + 64 <= len(buffer):
            self._compress(buffer[offset : offset + 64])
            offset += 64
        self._pending = buffer[offset:]

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block)) + [0] * 48
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w[i] = (w[i - 16] + s0 + w[i - 7] + s1) & _MASK
        a, b, c, d, e, f, g, h = self._h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK
            h, g, f, e, d, c, b, a = (
                g,
                f,
                e,
                (d + temp1) & _MASK,
                c,
                b,
                a,
                (temp1 + temp2) & _MASK,
            )
        self._h = [(x + y) & _MASK for x, y in zip(self._h, (a, b, c, d, e, f, g, h))]

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything absorbed so far."""
        # Work on a copy so the object remains updatable afterwards.
        clone = self.copy()
        bit_length = clone._length * 8
        clone._pending += b"\x80"
        while (len(clone._pending) % 64) != 56:
            clone._pending += b"\x00"
        clone._pending += struct.pack(">Q", bit_length)
        buffer = clone._pending
        for offset in range(0, len(buffer), 64):
            clone._compress(buffer[offset : offset + 64])
        return struct.pack(">8I", *clone._h)

    def hexdigest(self) -> str:
        """Hex form of :meth:`digest`."""
        return self.digest().hex()


# ---------------------------------------------------------------------------
# HMAC-SHA256
# ---------------------------------------------------------------------------

_HMAC_BLOCK = 64


def reference_hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC 2104 ``HMAC-SHA256(key, message)`` built on :class:`PureSHA256`."""
    if len(key) > _HMAC_BLOCK:
        key = PureSHA256(key).digest()
    padded = key + b"\x00" * (_HMAC_BLOCK - len(key))
    inner = PureSHA256(bytes(b ^ 0x36 for b in padded))
    inner.update(message)
    outer = PureSHA256(bytes(b ^ 0x5C for b in padded))
    outer.update(inner.digest())
    return outer.digest()


# ---------------------------------------------------------------------------
# AES (forward cipher)
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a = (a ^ 0x1B) & 0xFF
    return a


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication used by MixColumns."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple:
    """The AES S-box from first principles (GF(2^8) inversion + affine map)."""
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gmul(x, y) == 1:
                inverse[x] = y
                break
    sbox = [0] * 256
    for x in range(256):
        b = inverse[x]
        res = 0
        for i in range(8):
            bit = (
                ((b >> i) & 1)
                ^ ((b >> ((i + 4) % 8)) & 1)
                ^ ((b >> ((i + 5) % 8)) & 1)
                ^ ((b >> ((i + 6) % 8)) & 1)
                ^ ((b >> ((i + 7) % 8)) & 1)
                ^ ((0x63 >> i) & 1)
            )
            res |= bit << i
        sbox[x] = res
    return tuple(sbox)


_SBOX = _build_sbox()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


class ReferenceAES:
    """FIPS-197 AES encryption on a column-major 16-byte state ``state[r + 4c]``."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(bytes(key))

    def _expand_key(self, key: bytes) -> List[List[int]]:
        nk = len(key) // 4
        words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (self._rounds + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        return words

    def _round_key(self, round_index: int) -> List[int]:
        words = self._round_keys[4 * round_index : 4 * round_index + 4]
        return [b for word in words for b in word]

    @staticmethod
    def _add_round_key(state: List[int], round_key: Sequence[int]) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
            state[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
            state[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
            state[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != 16:
            raise ValueError("AES block must be exactly 16 bytes")
        state = list(plaintext)
        self._add_round_key(state, self._round_key(0))
        for round_index in range(1, self._rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_key(round_index))
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_key(self._rounds))
        return bytes(state)
