"""Password-based cryptography: PBKDF2 derivation, PBES2 encryption, PBMAC1.

The pseudorandom function is HMAC-SHA-256 keyed by the password, built once
per derivation by ``primitives.keyed_hmac``.  Block i of the derived key is
T_i = U_1 xor ... xor U_c with U_1 = PRF(P, S || INT(i)) and
U_j = PRF(P, U_{j-1}), INT(i) being the four-octet big-endian encoding of the
block index starting at 1.  PBES2 encrypts with AES-128-CBC and decrypts
through ``primitives.cbc_decrypt``, passing the caller's reader on to it.

PBES1 (and the rest of the legacy password-based encryption family) is not
implemented; decoding such an algorithm identifier fails loudly instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import BadParameter, PkcsError
from .primitives import (RandomSource, cbc_decrypt, cbc_encrypt, ct_equal, hmac_digest,
                         keyed_hmac)

__all__ = [
    "DerivedKeyTooLong",
    "TooManyIterations",
    "Pbkdf2Params",
    "Pbes2Params",
    "pbkdf2",
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
    file or about to be written to one, before any key derivation."""
    if count < 1:
        raise BadParameter(f"iteration count {count} is not positive")
    if count > MAX_ITERATIONS:
        raise TooManyIterations(f"iteration count {count} exceeds {MAX_ITERATIONS}")
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


@dataclass(frozen=True)
class Pbes2Params:
    """Self-describing PBES2 header: everything needed to re-derive and decrypt."""

    salt: bytes
    iterations: int
    iv: bytes

    def __post_init__(self):
        object.__setattr__(self, "salt", bytes(self.salt))
        object.__setattr__(self, "iv", bytes(self.iv))


def pbes2_encrypt(message: bytes, password: bytes, salt: bytes, iterations: int,
                  rng: RandomSource) -> tuple[Pbes2Params, bytes]:
    """Encrypt under PBKDF2(password) -> AES-128-CBC with a fresh random IV.

    The count is held to MAX_ITERATIONS, as on the reading side, so nothing
    is written that the reader would refuse."""
    check_iterations(iterations)
    params = Pbes2Params(salt, iterations, rng.read(_IV_LEN))
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, AES128_KEY_LEN))
    return params, cbc_encrypt(dk, params.iv, message)


def pbes2_decrypt(params: Pbes2Params, ciphertext: bytes, password: bytes,
                  read: Callable[[bytes], Any] = bytes) -> Any:
    """``read`` of the plaintext; a wrong password is cbc_decrypt's one DecryptionError."""
    dk = pbkdf2(password, Pbkdf2Params(params.salt, params.iterations, AES128_KEY_LEN))
    return cbc_decrypt(dk, params.iv, ciphertext, read)


def pbmac1_tag(message: bytes, password: bytes, salt: bytes, iterations: int) -> bytes:
    """HMAC-SHA-256 tag under a 32-octet PBKDF2-derived key."""
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, 32))
    return hmac_digest(dk, message)


def pbmac1_verify(message: bytes, tag: bytes, password: bytes, salt: bytes,
                  iterations: int) -> bool:
    return ct_equal(pbmac1_tag(message, password, salt, iterations), tag)
