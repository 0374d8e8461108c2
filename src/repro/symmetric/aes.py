"""A from-scratch AES block cipher (AES-128/192/256), forward direction only.

The dynamic protocols of the paper (Join / Leave / Merge / Partition) encrypt
key-update material under the current group key using "a symmetric key
encryption E_k(m)".  The paper does not name a cipher; AES is the obvious
choice for 2006-era wireless devices, and Carman et al. (the paper's energy
reference [3]) measure AES-class symmetric costs as orders of magnitude below
modular exponentiation — which is exactly how the energy model treats them.

``E_K`` runs AES in CTR mode (:mod:`repro.symmetric.modes`), which needs only
the forward cipher, so this module implements nothing else:

* key expansion for 128/192/256-bit keys, with round keys packed as 32-bit
  column words,
* encryption of single 16-byte blocks through four 256-entry T-tables
  (SubBytes, ShiftRows and MixColumns folded into four lookups per column),
  built at import from an S-box derived from first principles,
* no side-channel hardening (this is a research simulator, not a production
  cipher) — table lookups leak through the cache.
"""

from __future__ import annotations

import struct

from ..exceptions import ParameterError

__all__ = ["AES"]

_MASK = 0xFFFFFFFF
_BLOCK = struct.Struct(">4I")


def _xtime(a: int) -> int:
    """Multiply by ``x`` in GF(2^8) modulo the AES polynomial 0x11B."""
    a <<= 1
    return (a ^ 0x11B) if a & 0x100 else a


def _build_sbox() -> tuple:
    """Construct the AES S-box from first principles (GF(2^8) inversion + affine map)."""
    # The powers 3^i (i < 255) run through every non-zero element of GF(2^8),
    # and the inverse of 3^i is 3^(255 - i).
    powers = []
    x = 1
    for _ in range(255):
        powers.append(x)
        x ^= _xtime(x)
    inverse = [0] * 256
    for i, x in enumerate(powers):
        inverse[x] = powers[-i]
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


def _rotr8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & _MASK


def _build_t_tables() -> tuple:
    """``T0[x]`` is the MixColumns column ``(2s, s, s, 3s)`` of ``s = S[x]``;
    ``T1``-``T3`` are its byte rotations, one per row of ShiftRows."""
    t0 = tuple(
        (_xtime(s) << 24) | (s << 16) | (s << 8) | (_xtime(s) ^ s) for s in _SBOX
    )
    t1 = tuple(_rotr8(w) for w in t0)
    t2 = tuple(_rotr8(w) for w in t1)
    t3 = tuple(_rotr8(w) for w in t2)
    return t0, t1, t2, t3


_SBOX = _build_sbox()
_T0, _T1, _T2, _T3 = _build_t_tables()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _sub_word(word: int) -> int:
    return (
        (_SBOX[word >> 24] << 24)
        | (_SBOX[(word >> 16) & 0xFF] << 16)
        | (_SBOX[(word >> 8) & 0xFF] << 8)
        | _SBOX[word & 0xFF]
    )


class AES:
    """AES block cipher (encryption only) with a 128-, 192- or 256-bit key.

    >>> cipher = AES(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ParameterError("AES key must be 16, 24 or 32 bytes")
        self.key = bytes(key)
        words = self._expand_key(self.key)
        rounds = [tuple(words[i : i + 4]) for i in range(0, len(words), 4)]
        self._first_key = rounds[0]
        self._inner_keys = rounds[1:-1]
        self._last_key = rounds[-1]

    @staticmethod
    def _expand_key(key: bytes) -> list:
        """FIPS-197 key expansion into ``4 * (rounds + 1)`` column words."""
        nk = len(key) // 4
        total = 4 * (nk + 7)
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = _sub_word(((temp << 8) | (temp >> 24)) & _MASK) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != 16:
            raise ParameterError("AES block must be exactly 16 bytes")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        k0, k1, k2, k3 = self._first_key
        s0, s1, s2, s3 = _BLOCK.unpack(plaintext)
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3 in self._inner_keys:
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ k0,
                t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ k1,
                t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ k2,
                t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ k3,
            )
        # Final round: SubBytes + ShiftRows, no MixColumns.
        sb = _SBOX
        k0, k1, k2, k3 = self._last_key
        return _BLOCK.pack(
            ((sb[s0 >> 24] << 24) | (sb[(s1 >> 16) & 0xFF] << 16) | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ k0,
            ((sb[s1 >> 24] << 24) | (sb[(s2 >> 16) & 0xFF] << 16) | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ k1,
            ((sb[s2 >> 24] << 24) | (sb[(s3 >> 16) & 0xFF] << 16) | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ k2,
            ((sb[s3 >> 24] << 24) | (sb[(s0 >> 16) & 0xFF] << 16) | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ k3,
        )
