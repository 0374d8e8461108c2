"""The hash function ``H`` of the paper and friends.

The paper's Setup selects "a one way hash function H : {0,1}* -> {0,1}^l
where l is a security parameter".  The protocols then use ``H`` in three
distinct roles:

* ``H(ID)`` mapped into ``Z_n^*`` — the identity public key of the GQ scheme,
* ``H(T, Z)`` / ``H(tau^e, M)`` — the *challenge* ``c`` of the GQ signature,
  an ``l``-bit string interpreted as an integer exponent,
* general message hashing inside DSA/ECDSA and the HMAC construction.

:class:`HashFunction` packages these roles with explicit domain separation so
that, e.g., an identity hash can never collide with a challenge hash — a
standard hygiene measure the 2006 paper leaves implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import ParameterError
from ..mathutils.serialization import bytes_to_int, encode_fields, int_to_bytes
from .sha256 import sha256_digest

__all__ = ["HashFunction", "default_hash"]


@dataclass(frozen=True)
class HashFunction:
    """A configurable-output-length hash built on SHA-256.

    Parameters
    ----------
    output_bits:
        The paper's security parameter ``l``; the challenge ``c`` and all
        digests produced by :meth:`digest` are exactly this many bits.  The
        paper's energy tables use 160-bit challenges (the GQ signature is
        ``s`` = 1024 bits + ``c`` = 160 bits), so 160 is the default used by
        the named parameter sets.
    """

    output_bits: int = 160

    def __post_init__(self) -> None:
        if self.output_bits <= 0:
            raise ParameterError("output_bits must be positive")
        if self.output_bits > 4096:
            raise ParameterError("output_bits unreasonably large")

    # ------------------------------------------------------------------ core
    @property
    def output_bytes(self) -> int:
        """Number of whole bytes needed to carry :attr:`output_bits`."""
        return (self.output_bits + 7) // 8

    def _xof(self, domain: bytes, data: bytes, length: int) -> bytes:
        """Fixed-output expansion: SHA-256 in counter mode, ``length`` bytes."""
        out = bytearray()
        counter = 0
        while len(out) < length:
            out += sha256_digest(domain, counter.to_bytes(4, "big"), data)
            counter += 1
        return bytes(out[:length])

    def digest(self, *parts: bytes, domain: bytes = b"repro/H") -> bytes:
        """``H(parts)`` truncated/expanded to :attr:`output_bits` bits."""
        data = encode_fields(list(parts))
        raw = self._xof(domain, data, self.output_bytes)
        excess = self.output_bytes * 8 - self.output_bits
        if excess:
            # Clear the top bits so the integer value is < 2**output_bits.
            first = raw[0] & (0xFF >> excess)
            raw = bytes([first]) + raw[1:]
        return raw

    def digest_int(self, *parts: bytes, domain: bytes = b"repro/H") -> int:
        """Digest interpreted as a non-negative integer ``< 2**output_bits``."""
        return bytes_to_int(self.digest(*parts, domain=domain))

    # ------------------------------------------------------- specialised uses
    def challenge(self, *parts: bytes) -> int:
        """The GQ challenge ``c = H(...)`` as an ``l``-bit integer."""
        return self.digest_int(*parts, domain=b"repro/GQ-challenge")

    def identity_to_zn(self, identity: bytes, n: int) -> int:
        """Map an identity string into ``Z_n^*`` (the GQ public key ``H(ID)``).

        Rejection-samples SHA-256 counter-mode output until the value is in
        ``[2, n-1]`` and coprime to ``n``; for an honest RSA modulus the first
        draw virtually always succeeds.
        """
        if n <= 3:
            raise ParameterError("modulus too small for identity hashing")
        nbytes = (n.bit_length() + 7) // 8
        counter = 0
        while True:
            raw = self._xof(b"repro/ID-to-Zn", encode_fields([identity, int_to_bytes(counter)]), nbytes)
            value = bytes_to_int(raw) % n
            if 2 <= value < n and _coprime(value, n):
                return value
            counter += 1

    def hash_to_zq(self, *parts: bytes, q: int) -> int:
        """Map input onto ``Z_q`` (used by DSA/ECDSA message digests)."""
        if q <= 1:
            raise ParameterError("q must exceed 1")
        return self.digest_int(*parts, domain=b"repro/H-to-Zq") % q

    def map_to_point_index(self, identity: bytes, order: int) -> int:
        """The "MapToPoint" style hash of the SOK baseline.

        Our pairing substrate represents G1 elements by exponents of a fixed
        generator (see :mod:`repro.groups.pairing`), so MapToPoint reduces to
        hashing onto ``Z_order``; the *energy* cost of a real MapToPoint is
        charged separately by the energy model.
        """
        if order <= 1:
            raise ParameterError("order must exceed 1")
        value = self.digest_int(identity, domain=b"repro/MapToPoint") % order
        return value if value != 0 else 1

    def __call__(self, *parts: bytes) -> bytes:
        """Alias for :meth:`digest` so ``H(m)`` reads like the paper."""
        return self.digest(*parts)


def _coprime(a: int, b: int) -> bool:
    import math

    return math.gcd(a, b) == 1


def default_hash(output_bits: int = 160) -> HashFunction:
    """The library-wide default ``H`` (160-bit output, matching the paper)."""
    return HashFunction(output_bits=output_bits)
