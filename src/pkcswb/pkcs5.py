"""Password-based cryptography: PBKDF2 derivation, PBES2 encryption, PBMAC1.

The pseudorandom function is HMAC-SHA-256 keyed by the password.  Block i of
the derived key is T_i = U_1 xor ... xor U_c with U_1 = PRF(P, S || INT(i))
and U_j = PRF(P, U_{j-1}), INT(i) being the four-octet big-endian encoding of
the block index starting at 1; ``hashlib.pbkdf2_hmac`` computes it in one
call, and the tests hold it to a naive oracle written from RFC 8018 §5.2.
``Pbkdf2Params`` bounds the count and the length, so every derivation's work
is bounded before it starts.  PBES2 encrypts with AES-128-CBC and decrypts
through ``primitives.cbc_decrypt``, passing the caller's reader on to it.

The PBES2 header (RFC 8018 §A.2, §A.4) is written and read here:
``pbes2_encrypt`` returns it, ``pbes2_decrypt`` checks it before any
derivation, and ``pbkdf2_fields`` is the one salt and count check, which the
PFX MacData shares too; a DER fault in the header is MalformedKey.  So are
the hmacWithSHA256 and AES-128-CBC identifiers inside it (RFC 8018 §B.1.2,
§B.2.5), which CMS carries as well; ``check_mac_algorithm`` refuses any other.

PBES1 (and the rest of the legacy password-based encryption family) is not
implemented; decoding such an algorithm identifier fails loudly instead.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

from . import asn1, oids
from .asn1 import AlgorithmIdentifier, DerValue, Oid
from .errors import BadParameter, Frozen, MalformedKey, PkcsError, UnsupportedAlgorithm
from .primitives import (BLOCK_LEN, RandomSource, cbc_decrypt, cbc_encrypt, ct_equal,
                         hmac_digest)

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
    "MAX_DK_LEN",
    "MAX_SALT_LEN",
    "check_iterations",
]

DEFAULT_ITERATIONS = 10000
DEFAULT_SALT_LEN = 8
# Largest iteration count accepted from a file; a count sets the PBKDF2 cost,
# so an edited header must not be able to demand unbounded work.
MAX_ITERATIONS = 1_000_000
# Longest derived key, in octets: 32 PRF blocks, 32 times the longest key
# pkcswb derives (PBMAC1's 32 octets), so a derivation costs at most
# 32 * MAX_ITERATIONS PRF calls.  RFC 8018's own limit, (2**32 - 1) * hLen,
# bounds nothing a machine can run, and hashlib takes no more than 2**31 - 1.
MAX_DK_LEN = 1024
# Longest salt, in octets, that ``p8-wrap --salt-len`` may ask for.  RFC 8018
# §4.1 asks for at least eight; the salt is drawn before ``Pbkdf2Params``
# sees it, so an unbounded length would ask the random source for unbounded
# octets.
MAX_SALT_LEN = 1024

AES128_KEY_LEN = 16
HMAC_SHA256_ALGORITHM = AlgorithmIdentifier(oids.HMAC_WITH_SHA256)


class DerivedKeyTooLong(PkcsError, ValueError):
    """A derived key length exceeds MAX_DK_LEN."""


class TooManyIterations(PkcsError, ValueError):
    """An iteration count read or written exceeds MAX_ITERATIONS."""


def check_iterations(count: int) -> int:
    """``count`` if in [1, MAX_ITERATIONS]; called on a count read from a
    file and on the count of every derivation (``Pbkdf2Params``).  A wire
    count may be too long to print in decimal, so no message prints it."""
    if count < 1:
        raise BadParameter("iteration count is not positive")
    if count > MAX_ITERATIONS:
        raise TooManyIterations(
            f"iteration count of {count.bit_length()} bits exceeds {MAX_ITERATIONS}")
    return count


class Pbkdf2Params(Frozen):
    _fields = ("salt", "iterations", "dk_len")

    def __init__(self, salt: bytes, iterations: int, dk_len: int):
        salt = bytes(memoryview(salt))  # an int is refused, not read as zero octets
        if len(salt) < 1:
            raise BadParameter("salt must be at least one octet")
        check_iterations(iterations)
        if dk_len < 1:
            raise BadParameter("derived key length must be positive")
        if dk_len > MAX_DK_LEN:
            raise DerivedKeyTooLong(f"derived key length exceeds {MAX_DK_LEN} octets")
        self.__dict__.update(salt=salt, iterations=iterations, dk_len=dk_len)


def pbkdf2(password: bytes, params: Pbkdf2Params) -> bytes:
    """Derive params.dk_len octets from the password."""
    return hashlib.pbkdf2_hmac("sha256", password, params.salt, params.iterations,
                               params.dk_len)


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


def check_mac_algorithm(oid: Oid) -> None:
    """The one refusal of a received MAC or PRF algorithm: any OID but hmacWithSHA256."""
    if oid != oids.HMAC_WITH_SHA256:
        raise UnsupportedAlgorithm(f"unsupported MAC algorithm {oid}")


def aes128_cbc_algorithm(iv: bytes) -> AlgorithmIdentifier:
    return AlgorithmIdentifier(oids.AES128_CBC, asn1.octet_string(iv))


def aes128_cbc_iv(algorithm: AlgorithmIdentifier) -> bytes:
    """The IV of an AES-128-CBC identifier; a DER fault in it is left for the caller."""
    if algorithm.oid != oids.AES128_CBC:
        raise UnsupportedAlgorithm(f"unsupported cipher {algorithm.oid}")
    iv = b"" if algorithm.params is None else algorithm.params.as_octet_string()
    if len(iv) != BLOCK_LEN:
        raise MalformedKey("AES-128-CBC IV must be 16 octets")
    return iv


def pbes2_algorithm(salt: bytes, iterations: int, iv: bytes) -> AlgorithmIdentifier:
    """PBES2 AlgorithmIdentifier carrying (salt, count, PRF id, cipher id, IV)."""
    kdf = AlgorithmIdentifier(oids.PBKDF2, asn1.sequence(
        asn1.octet_string(salt), asn1.integer(iterations), HMAC_SHA256_ALGORITHM.to_der_value()))
    return AlgorithmIdentifier(oids.PBES2, asn1.sequence(
        kdf.to_der_value(), aes128_cbc_algorithm(iv).to_der_value()))


def pbes2_fields(algorithm: AlgorithmIdentifier) -> tuple[bytes, int, bytes]:
    """(salt, count, IV) of a PBES2 header, checked before any derivation; a
    DER fault in it is MalformedKey, as in ``pbkdf2_fields``."""
    if algorithm.oid in oids.LEGACY_PBE:
        raise UnsupportedAlgorithm(f"legacy password-based scheme {algorithm.oid} not supported")
    if algorithm.oid != oids.PBES2:
        raise UnsupportedAlgorithm(f"unsupported encryption algorithm {algorithm.oid}")
    if algorithm.params is None:
        raise MalformedKey("PBES2 header lacks parameters")
    try:
        kdf, enc = map(AlgorithmIdentifier.from_der_value, asn1._fields(algorithm.params, 2))
        if kdf.oid != oids.PBKDF2:
            raise UnsupportedAlgorithm(f"unsupported key derivation {kdf.oid}")
        iv = aes128_cbc_iv(enc)
        if kdf.params is None:
            raise MalformedKey("PBKDF2 identifier lacks parameters")
        salt_v, iter_v, prf_v = asn1._fields(kdf.params, 3)
        check_mac_algorithm(asn1.algorithm_oid(prf_v))
    except asn1.DerError as exc:
        raise MalformedKey(str(exc)) from None
    return (*pbkdf2_fields(salt_v, iter_v), iv)


def pbes2_encrypt(message: bytes, password: bytes, salt: bytes, iterations: int,
                  rng: RandomSource) -> tuple[AlgorithmIdentifier, bytes]:
    """(PBES2 header, ciphertext) under PBKDF2(password) -> AES-128-CBC with a
    fresh random IV.

    ``Pbkdf2Params`` holds the count to MAX_ITERATIONS, as on the reading
    side, before the IV is drawn, so nothing is written that the reader
    would refuse."""
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, AES128_KEY_LEN))
    iv = rng.read(BLOCK_LEN)
    return pbes2_algorithm(salt, iterations, iv), cbc_encrypt(dk, iv, message)


def pbes2_decrypt(algorithm: AlgorithmIdentifier, ciphertext: bytes, password: bytes,
                  read: Callable[[bytes], object] = bytes) -> object:
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
