"""One-shot SHA-256, on which the paper's hash ``H`` is built.

A thin wrapper over :mod:`hashlib` that hashes the concatenation of several
byte strings without building it.  It sits under every challenge hash and
identity mapping, so at scenario scale it runs millions of times.
"""

from __future__ import annotations

import hashlib

__all__ = ["sha256_digest"]


def sha256_digest(*parts: bytes) -> bytes:
    """One-shot SHA-256 of the concatenation of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()
