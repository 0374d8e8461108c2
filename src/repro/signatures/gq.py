"""The Guillou–Quisquater (GQ) ID-based signature variant of the paper.

Section 3 of the paper specifies the scheme the proposed protocol is built on:

* **Setup** — the PKG picks an RSA-style modulus ``n = p'·q'``, exponents
  ``e, d`` with ``e·d = 1 (mod phi(n))`` and a hash ``H``.
* **Extract** — the secret key for identity ``ID`` is ``S_ID = H(ID)^d mod n``.
* **Sign** — pick ``tau``, compute ``t = tau^e``, challenge ``c = H(t, M)``
  and response ``s = tau · S_ID^c mod n``; the signature is ``(s, c)``.
* **Verify** — accept iff ``c = H(s^e · H(ID)^{-c}, M)``.

The proposed GKA protocol does not use plain Sign/Verify for the Round 2
messages; it splits the signature into a Round 1 **commitment** ``t_i`` and a
Round 2 **response** ``s_i`` over the *common* challenge ``c = H(T, Z)``,
which allows every member to verify all other members with a **single batch
equation** (the paper's equation (2)):

    c = H( (prod s_i)^e · (prod H(U_i))^{-c} , Z )

This module provides both the plain scheme (used by the Join/Merge protocol
messages) and the split/batch operations (used by the initial GKA, Leave and
Partition protocols).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import BatchVerificationError, ParameterError
from ..hashing.hashfuncs import HashFunction
from ..mathutils.modular import modexp, multi_exp, product_mod
from ..mathutils.primes import RSAModulus
from ..mathutils.rand import DeterministicRNG
from ..mathutils.serialization import int_to_bytes
from .base import OperationCount, Signature, SignatureScheme

__all__ = [
    "GQParameters",
    "GQPrivateKey",
    "GQSignatureScheme",
    "gq_commitment",
    "gq_response",
    "gq_batch_verify",
    "gq_signature_bits",
]


@dataclass(frozen=True)
class GQParameters:
    """Public GQ parameters ``(n, e, H)`` shared by all users.

    The master key ``(p', q', d)`` stays with the PKG
    (:class:`repro.pki.pkg.PrivateKeyGenerator`); user-side code only ever
    sees this object plus its own :class:`GQPrivateKey`.
    """

    n: int
    e: int
    hash_function: HashFunction

    def __post_init__(self) -> None:
        if self.n <= 3 or self.e <= 1:
            raise ParameterError("degenerate GQ parameters")

    @property
    def modulus_bits(self) -> int:
        """Bit size of the modulus ``n`` (1024 for the paper's parameters)."""
        return self.n.bit_length()

    @property
    def challenge_bits(self) -> int:
        """Bit size of the challenge ``c`` (the hash output length ``l``)."""
        return self.hash_function.output_bits

    def identity_public_key(self, identity: bytes) -> int:
        """The ID-derived public key ``H(ID) in Z_n^*``.

        Memoised: the map is a pure function of the identity bytes (given
        fixed ``n`` and ``H``), and batch verification evaluates it for every
        signer at every verifier — ``n^2`` times per protocol round — which
        at scenario scale would otherwise be dominated by hashing.
        """
        cache = self.__dict__.get("_hid_cache")
        if cache is None:
            cache = {}
            # Frozen dataclass: install the cache via object.__setattr__.
            object.__setattr__(self, "_hid_cache", cache)
        value = cache.get(identity)
        if value is None:
            value = cache[identity] = self.hash_function.identity_to_zn(identity, self.n)
        return value


@dataclass(frozen=True)
class GQPrivateKey:
    """A user's extracted secret ``S_ID = H(ID)^d mod n``."""

    identity: bytes
    secret: int

    def __repr__(self) -> str:  # avoid leaking the secret in logs
        return f"GQPrivateKey(identity={self.identity!r})"


def gq_signature_bits(params: GQParameters) -> int:
    """Wire size of a GQ signature ``(s, c)``: |n| + l bits (1184 in the paper)."""
    return params.modulus_bits + params.challenge_bits


class GQSignatureScheme(SignatureScheme):
    """Plain (non-batch) GQ signing and verification.

    Parameters
    ----------
    params:
        The public parameters issued by the PKG.
    """

    name = "gq"

    def __init__(self, params: GQParameters) -> None:
        self.params = params

    # -------------------------------------------------------------- interface
    @property
    def signature_bits(self) -> int:
        """Nominal wire size of one signature in bits."""
        return gq_signature_bits(self.params)

    def sign(self, private_key: GQPrivateKey, message: bytes, rng: DeterministicRNG) -> Signature:
        """Sign ``message``: ``t = tau^e``, ``c = H(t, M)``, ``s = tau·S_ID^c``."""
        n, e = self.params.n, self.params.e
        tau = rng.zn_star(n)
        t = modexp(tau, e, n)
        c = self.params.hash_function.challenge(int_to_bytes(t), message)
        s = (tau * modexp(private_key.secret, c, n)) % n
        return Signature(
            scheme=self.name,
            components={"s": s, "c": c},
            wire_bits=self.signature_bits,
        )

    def verify(self, public_key: bytes | int, message: bytes, signature: Signature) -> bool:
        """Verify ``(s, c)`` for an identity.

        ``public_key`` may be the identity bytes (hashed internally) or the
        pre-computed ``H(ID)`` integer.
        """
        n, e = self.params.n, self.params.e
        if isinstance(public_key, (bytes, bytearray)):
            hid = self.params.identity_public_key(bytes(public_key))
        else:
            hid = int(public_key) % n
        s = signature.component("s") % n
        c = signature.component("c")
        if s == 0:
            return False
        try:
            # One simultaneous multi-exp: s^e · H(ID)^{-c} mod n.
            check = multi_exp([s, hid], [e, -c], n)
        except ParameterError:
            return False
        expected = self.params.hash_function.challenge(int_to_bytes(check), message)
        return expected == c

    # ------------------------------------------------------------- op counts
    def sign_cost(self) -> OperationCount:
        """One GQ signature generation (priced as one "GQ Sign" in Table 2)."""
        return OperationCount(modexp=2, hash_calls=1, sign_gen=1, modmul=1)

    def verify_cost(self) -> OperationCount:
        """One GQ signature verification (priced as one "GQ Verify" in Table 2)."""
        return OperationCount(modexp=2, hash_calls=1, sign_verify=1, modmul=1)


# ---------------------------------------------------------------------------
# Split/batch operations used by the GKA protocols
# ---------------------------------------------------------------------------

def gq_commitment(params: GQParameters, rng: DeterministicRNG) -> tuple:
    """Round 1 commitment: draw ``tau in Z_n^*`` and return ``(tau, t = tau^e mod n)``."""
    tau = rng.zn_star(params.n)
    t = modexp(tau, params.e, params.n)
    return tau, t


def gq_response(params: GQParameters, private_key: GQPrivateKey, tau: int, challenge: int) -> int:
    """Round 2 response ``s_i = tau_i · S_Ui^c mod n`` for the common challenge."""
    return (tau * modexp(private_key.secret, challenge, params.n)) % params.n


def gq_batch_verify(
    params: GQParameters,
    identities: Sequence[bytes],
    responses: Sequence[int],
    challenge: int,
    bound_data: bytes,
) -> bool:
    """The paper's batch verification equation (2).

    Checks ``challenge == H( (prod s_i)^e · (prod H(U_i))^{-c}, bound_data )``
    where ``bound_data`` is the byte encoding of ``Z`` (the product of all
    Round 1 keying materials), binding the signatures to the key agreement
    transcript.

    Returns ``True``/``False``; callers that must follow the paper's
    "all members will retransmit" behaviour raise
    :class:`~repro.exceptions.BatchVerificationError` on ``False``.
    """
    if len(identities) != len(responses):
        raise ParameterError("identities and responses must align")
    if not identities:
        raise ParameterError("batch verification needs at least one signer")
    n, e = params.n, params.e
    s_product = product_mod(responses, n)
    hid_product = product_mod(
        (params.identity_public_key(identity) for identity in identities), n
    )
    try:
        aggregate = multi_exp([s_product, hid_product], [e, -challenge], n)
    except ParameterError:
        return False
    expected = params.hash_function.challenge(int_to_bytes(aggregate), bound_data)
    return expected == challenge
