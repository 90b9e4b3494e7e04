"""Password-based cryptography: PBKDF2 derivation, PBES2 encryption, PBMAC1.

The pseudorandom function is HMAC keyed by the password.  Block i of the
derived key is T_i = U_1 xor ... xor U_c with U_1 = PRF(P, S || INT(i)) and
U_j = PRF(P, U_{j-1}), INT(i) being the four-octet big-endian encoding of the
block index starting at 1.

PBES1 (and the rest of the legacy password-based encryption family) is not
implemented; decoding such an algorithm identifier fails loudly instead.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass, field

from .errors import DecryptionError
from .primitives import (SHA256, HashAlg, RandomSource, cbc_decrypt,
                         cbc_encrypt, ct_equal, hmac_digest)

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


class DerivedKeyTooLong(ValueError):
    pass


class TooManyIterations(ValueError):
    """An iteration count read from a file exceeds MAX_ITERATIONS."""


def check_iterations(count: int) -> int:
    """``count`` if at most MAX_ITERATIONS; called on a count read from a
    file, before any key derivation."""
    if count > MAX_ITERATIONS:
        raise TooManyIterations(f"iteration count {count} exceeds {MAX_ITERATIONS}")
    return count


@dataclass(frozen=True)
class Pbkdf2Params:
    salt: bytes
    iterations: int
    dk_len: int
    prf: HashAlg = SHA256

    def __post_init__(self):
        object.__setattr__(self, "salt", bytes(self.salt))
        if len(self.salt) < 1:
            raise ValueError("salt must be at least one octet")
        if self.iterations < 1:
            raise ValueError("iteration count must be positive")
        if self.dk_len < 1:
            raise ValueError("derived key length must be positive")
        if self.dk_len > (2**32 - 1) * self.prf.output_len:
            raise DerivedKeyTooLong("derived key length beyond the PRF block limit")


def _prf_factory(password: bytes, alg: HashAlg):
    """Per-call PRF closure; the common SHA-256 case reuses keyed HMAC state."""
    if alg == SHA256 and alg.raw is None:
        base = _hmac.new(bytes(password), digestmod=hashlib.sha256)

        def prf(msg: bytes) -> bytes:
            h = base.copy()
            h.update(msg)
            return h.digest()

        return prf
    return lambda msg: hmac_digest(password, msg, alg)


def pbkdf2(password: bytes, params: Pbkdf2Params) -> bytes:
    """Derive params.dk_len octets from the password."""
    prf = _prf_factory(password, params.prf)
    h_len = params.prf.output_len
    blocks = -(-params.dk_len // h_len)
    out = bytearray()
    for i in range(1, blocks + 1):
        u = prf(params.salt + i.to_bytes(4, "big"))
        t = bytearray(u)
        for _ in range(params.iterations - 1):
            u = prf(u)
            for j in range(h_len):
                t[j] ^= u[j]
        out += t
    return bytes(out[:params.dk_len])


@dataclass(frozen=True)
class Pbes2Params:
    """Self-describing PBES2 header: everything needed to re-derive and decrypt."""

    salt: bytes
    iterations: int
    iv: bytes
    prf: HashAlg = field(default=SHA256)
    cipher: str = "aes-128-cbc"

    def __post_init__(self):
        object.__setattr__(self, "salt", bytes(self.salt))
        object.__setattr__(self, "iv", bytes(self.iv))
        if self.cipher != "aes-128-cbc":
            raise ValueError("only AES-128-CBC is supported")
        if len(self.iv) != _IV_LEN:
            raise ValueError("IV must be 16 octets")


def pbes2_encrypt(message: bytes, password: bytes, salt: bytes, iterations: int,
                  rng: RandomSource) -> tuple[Pbes2Params, bytes]:
    """Encrypt under PBKDF2(password) -> AES-128-CBC with a fresh random IV."""
    params = Pbes2Params(salt, iterations, rng.read(_IV_LEN))
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, AES128_KEY_LEN, params.prf))
    return params, cbc_encrypt(dk, params.iv, message)


def pbes2_decrypt(params: Pbes2Params, ciphertext: bytes, password: bytes) -> bytes:
    dk = pbkdf2(password, Pbkdf2Params(params.salt, params.iterations,
                                       AES128_KEY_LEN, params.prf))
    try:
        return cbc_decrypt(dk, params.iv, ciphertext)
    except Exception:
        # wrong password and mangled ciphertext are indistinguishable on purpose
        raise DecryptionError() from None


def pbmac1_tag(message: bytes, password: bytes, salt: bytes, iterations: int,
               mac_key_len: int = 32) -> bytes:
    """HMAC tag under a PBKDF2-derived key."""
    dk = pbkdf2(password, Pbkdf2Params(salt, iterations, mac_key_len))
    return hmac_digest(dk, message)


def pbmac1_verify(message: bytes, tag: bytes, password: bytes, salt: bytes,
                  iterations: int, mac_key_len: int = 32) -> bool:
    return ct_equal(pbmac1_tag(message, password, salt, iterations, mac_key_len), tag)
