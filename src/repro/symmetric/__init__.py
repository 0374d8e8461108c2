"""Symmetric cryptography substrate: AES, CTR mode, authenticated envelopes."""

from .aes import AES
from .authenc import AuthenticatedCiphertext, SymmetricEnvelope, group_key_to_bytes
from .modes import ctr_keystream, decrypt_ctr, encrypt_ctr

__all__ = [
    "AES",
    "AuthenticatedCiphertext",
    "SymmetricEnvelope",
    "group_key_to_bytes",
    "ctr_keystream",
    "decrypt_ctr",
    "encrypt_ctr",
]
