"""HMAC-SHA256 on the standard library's :mod:`hmac` and :mod:`hashlib`.

Used by :mod:`repro.symmetric.authenc` to provide the integrity half of the
``E_K(m)`` encrypt-then-MAC construction that the dynamic protocols rely on:
the paper checks "if the identity ... is decrypted correctly to ensure the
validity of K*", which only makes sense if the symmetric encryption is
authenticated — so the reproduction makes that authentication explicit.
"""

from __future__ import annotations

import hmac

__all__ = ["hmac_sha256", "verify_hmac"]


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return ``HMAC-SHA256(key, message)`` (32 bytes)."""
    return hmac.digest(key, message, "sha256")


def verify_hmac(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time comparison of an HMAC tag; any length mismatch is ``False``."""
    return hmac.compare_digest(hmac_sha256(key, message), tag)
