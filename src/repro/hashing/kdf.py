"""Key derivation from group elements.

The group key ``K`` agreed by the protocols is an element of the order-``q``
subgroup of ``Z_p^*`` (a ~1024-bit integer).  Applications need fixed-length
symmetric keys, and the dynamic protocols need to use the *current* group key
``K`` as an AES key for ``E_K(...)``.  :func:`derive_key` bridges the two with
HKDF (RFC 5869) extract-and-expand over :func:`~repro.hashing.hmac_impl.hmac_sha256`,
i.e. over the standard library's HMAC-SHA256.
"""

from __future__ import annotations

from ..exceptions import ParameterError
from ..mathutils.serialization import int_to_bytes
from .hmac_impl import hmac_sha256

__all__ = ["hkdf_extract", "hkdf_expand", "derive_key", "derive_key_from_group_element"]


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract (RFC 5869) with HMAC-SHA256."""
    if not salt:
        salt = b"\x00" * 32
    return hmac_sha256(salt, input_key_material)


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand (RFC 5869) with HMAC-SHA256."""
    if length <= 0:
        raise ParameterError("length must be positive")
    if length > 255 * 32:
        raise ParameterError("HKDF-Expand output too long")
    blocks = []
    previous = b""
    for counter in range(1, -(-length // 32) + 1):
        previous = hmac_sha256(pseudo_random_key, previous + info + bytes([counter]))
        blocks.append(previous)
    return b"".join(blocks)[:length]


def derive_key(secret: bytes, *, info: bytes = b"repro/kdf", salt: bytes = b"", length: int = 16) -> bytes:
    """Derive a ``length``-byte symmetric key from arbitrary secret bytes."""
    return hkdf_expand(hkdf_extract(salt, secret), info, length)


def derive_key_from_group_element(element: int, *, info: bytes = b"repro/group-key", length: int = 16) -> bytes:
    """Derive a symmetric key from a group element (the agreed group key K)."""
    if element <= 0:
        raise ParameterError("group element must be positive")
    return derive_key(int_to_bytes(element), info=info, length=length)
