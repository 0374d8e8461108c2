"""AES-CTR, the block-cipher mode behind ``E_K``.

CTR turns the forward cipher into a stream cipher, so it needs neither
padding nor the inverse cipher.
"""

from __future__ import annotations

from ..exceptions import ParameterError
from .aes import AES

__all__ = ["ctr_keystream", "encrypt_ctr", "decrypt_ctr"]


def ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of AES-CTR keystream for a 12-byte nonce."""
    if len(nonce) != 12:
        raise ParameterError("CTR nonce must be 12 bytes")
    cipher = AES(key)
    blocks = -(-length // 16)
    keystream = b"".join(
        cipher.encrypt_block(nonce + counter.to_bytes(4, "big")) for counter in range(blocks)
    )
    return keystream[:length]


def encrypt_ctr(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """AES-CTR encryption (no padding required)."""
    keystream = ctr_keystream(key, nonce, len(plaintext))
    mixed = int.from_bytes(plaintext, "big") ^ int.from_bytes(keystream, "big")
    return mixed.to_bytes(len(plaintext), "big")


def decrypt_ctr(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """AES-CTR decryption (identical to encryption)."""
    return encrypt_ctr(key, nonce, ciphertext)
