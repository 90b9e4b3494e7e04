"""Password-based cryptography: PBKDF2 derivation, PBES2 encryption, PBMAC1.

The pseudorandom function is HMAC-SHA-256 keyed by the password, built once
per derivation by ``primitives.keyed_hmac``.  Block i of the derived key is
T_i = U_1 xor ... xor U_c with U_1 = PRF(P, S || INT(i)) and
U_j = PRF(P, U_{j-1}), INT(i) being the four-octet big-endian encoding of the
block index starting at 1.  PBES2 encrypts with AES-128-CBC and decrypts
through ``primitives.cbc_decrypt``, passing the caller's reader on to it.

The PBES2 header (RFC 8018 §A.2, §A.4) is written and read here:
``pbes2_encrypt`` returns it, ``pbes2_decrypt`` checks it before any
derivation, and ``pbkdf2_fields`` is the one salt and count check, which the
PFX MacData shares too.

PBES1 (and the rest of the legacy password-based encryption family) is not
implemented; decoding such an algorithm identifier fails loudly instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import asn1, oids
from .asn1 import AlgorithmIdentifier, DerValue
from .errors import BadParameter, MalformedKey, PkcsError, UnsupportedAlgorithm
from .primitives import (RandomSource, cbc_decrypt, cbc_encrypt, ct_equal, hmac_digest,
                         keyed_hmac)

__all__ = [
    "DerivedKeyTooLong",
    "TooManyIterations",
    "Pbkdf2Params",
    "pbkdf2",
    "pbkdf2_fields",
    "pbes2_algorithm",
    "pbes2_fields",
    "pbes2_encrypt",
    "pbes2_decrypt",
    "pbmac1_tag",
    "pbmac1_verify",
    "DEFAULT_ITERATIONS",
    "DEFAULT_SALT_LEN",
    "MAX_ITERATIONS",
    "check_iterations",
]

DEFAULT_ITERATIONS = 10000
DEFAULT_SALT_LEN = 8
# Largest iteration count accepted from a file; a count sets the PBKDF2 cost,
# so an edited header must not be able to demand unbounded work.
MAX_ITERATIONS = 1_000_000

AES128_KEY_LEN = 16
_IV_LEN = 16
_H_LEN = 32  # HMAC-SHA-256 output


class DerivedKeyTooLong(PkcsError, ValueError):
    pass


class TooManyIterations(PkcsError, ValueError):
    """An iteration count read or written exceeds MAX_ITERATIONS."""


def check_iterations(count: int) -> int:
    """``count`` if in [1, MAX_ITERATIONS]; called on a count read from a
    file or about to be written to one, before any key derivation.  A wire
    count may be too long to print in decimal, so no message prints it."""
    if count < 1:
        raise BadParameter("iteration count is not positive")
    if count > MAX_ITERATIONS:
        raise TooManyIterations(
            f"iteration count of {count.bit_length()} bits exceeds {MAX_ITERATIONS}")
    return count


@dataclass(frozen=True)
class Pbkdf2Params:
    salt: bytes
    iterations: int
    dk_len: int

    def __post_init__(self):
        object.__setattr__(self, "salt", bytes(self.salt))
        if len(self.salt) < 1:
            raise BadParameter("salt must be at least one octet")
        if self.iterations < 1:
            raise BadParameter("iteration count must be positive")
        if self.dk_len < 1:
            raise BadParameter("derived key length must be positive")
        if self.dk_len > (2**32 - 1) * _H_LEN:
            raise DerivedKeyTooLong("derived key length beyond the PRF block limit")


def pbkdf2(password: bytes, params: Pbkdf2Params) -> bytes:
    """Derive params.dk_len octets from the password."""
    prf = keyed_hmac(password)
    blocks = -(-params.dk_len // _H_LEN)
    out = bytearray()
    for i in range(1, blocks + 1):
        u = prf(params.salt + i.to_bytes(4, "big"))
        t = int.from_bytes(u, "big")
        for _ in range(params.iterations - 1):
            u = prf(u)
            t ^= int.from_bytes(u, "big")
        out += t.to_bytes(_H_LEN, "big")
    return bytes(out[:params.dk_len])


def pbkdf2_fields(salt_v: DerValue, iter_v: DerValue) -> tuple[bytes, int]:
    """Salt and count of a PBKDF2 header read from a file, checked before any
    derivation: a field of the wrong type, an empty salt or a count below one
    is MalformedKey, a count above MAX_ITERATIONS is TooManyIterations."""
    try:
        salt, count = salt_v.as_octet_string(), iter_v.as_integer()
    except asn1.DerError as exc:
        raise MalformedKey(str(exc)) from None
    if not salt or count < 1:
        raise MalformedKey("PBKDF2 salt is empty or count is not positive")
    return salt, check_iterations(count)


def pbes2_algorithm(salt: bytes, iterations: int, iv: bytes) -> AlgorithmIdentifier:
    """PBES2 AlgorithmIdentifier carrying (salt, count, PRF id, cipher id, IV)."""
    kdf = AlgorithmIdentifier(oids.PBKDF2, asn1.sequence(
        asn1.octet_string(salt), asn1.integer(iterations),
        AlgorithmIdentifier(oids.HMAC_WITH_SHA256).to_der_value()))
    enc = AlgorithmIdentifier(oids.AES128_CBC, asn1.octet_string(iv))
    return AlgorithmIdentifier(oids.PBES2, asn1.sequence(kdf.to_der_value(), enc.to_der_value()))


def pbes2_fields(algorithm: AlgorithmIdentifier) -> tuple[bytes, int, bytes]:
    """(salt, count, IV) of a PBES2 header, checked before any derivation; a
    DER fault in it is left for the caller to report."""
    if algorithm.oid in oids.LEGACY_PBE:
        raise UnsupportedAlgorithm(f"legacy password-based scheme {algorithm.oid} not supported")
    if algorithm.oid != oids.PBES2:
        raise UnsupportedAlgorithm(f"unsupported encryption algorithm {algorithm.oid}")
    if algorithm.params is None:
        raise MalformedKey("PBES2 header lacks parameters")
    kdf, enc = map(AlgorithmIdentifier.from_der_value, asn1._fields(algorithm.params, 2))
    if kdf.oid != oids.PBKDF2:
        raise UnsupportedAlgorithm(f"unsupported key derivation {kdf.oid}")
    if enc.oid != oids.AES128_CBC:
        raise UnsupportedAlgorithm(f"unsupported cipher {enc.oid}")
    if kdf.params is None or enc.params is None:
        raise MalformedKey("PBKDF2 or cipher identifier lacks parameters")
    salt_v, iter_v, prf_v = asn1._fields(kdf.params, 3)
    prf = AlgorithmIdentifier.from_der_value(prf_v)
    if prf.oid != oids.HMAC_WITH_SHA256:
        raise UnsupportedAlgorithm(f"unsupported PRF {prf.oid}")
    iv = enc.params.as_octet_string()
    if len(iv) != _IV_LEN:
        raise MalformedKey("AES-128-CBC IV must be 16 octets")
    return (*pbkdf2_fields(salt_v, iter_v), iv)


def pbes2_encrypt(message: bytes, password: bytes, salt: bytes, iterations: int,
                  rng: RandomSource) -> tuple[AlgorithmIdentifier, bytes]:
    """(PBES2 header, ciphertext) under PBKDF2(password) -> AES-128-CBC with a
    fresh random IV.

    The count is held to MAX_ITERATIONS, as on the reading side, so nothing
    is written that the reader would refuse."""
    check_iterations(iterations)
    iv = rng.read(_IV_LEN)
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, AES128_KEY_LEN))
    return pbes2_algorithm(salt, iterations, iv), cbc_encrypt(dk, iv, message)


def pbes2_decrypt(algorithm: AlgorithmIdentifier, ciphertext: bytes, password: bytes,
                  read: Callable[[bytes], Any] = bytes) -> Any:
    """``read`` of the plaintext; a wrong password is cbc_decrypt's one DecryptionError."""
    salt, iterations, iv = pbes2_fields(algorithm)
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, AES128_KEY_LEN))
    return cbc_decrypt(dk, iv, ciphertext, read)


def pbmac1_tag(message: bytes, password: bytes, salt: bytes, iterations: int) -> bytes:
    """HMAC-SHA-256 tag under a 32-octet PBKDF2-derived key."""
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, 32))
    return hmac_digest(dk, message)


def pbmac1_verify(message: bytes, tag: bytes, password: bytes, salt: bytes,
                  iterations: int) -> bool:
    return ct_equal(pbmac1_tag(message, password, salt, iterations), tag)
