"""RSA encryption and signature schemes: EME-PKCS1-v1_5, EME-OAEP, EMSA-PSS.

The encoding layers work purely on octet strings of the modulus length k and
are exercised octet-for-octet in the tests; the scheme layer composes them
with the raw modular operations.

Every decryption failure - wrong leading octets, bad delimiter, short
padding, out-of-range representative - raises the same DecryptionError value
so that callers cannot be turned into a format oracle.  Signature
verification is a plain boolean and never reveals which check failed.  It
reads public octets only, so unlike the two decryption decoders, which scan
every octet of a secret encoded message, it is not constant time.

RSASSA-PSS has one salt rule, pss_salt_len_for: sLen = min(hLen,
emLen - hLen - 2).  sign and verify both default to it, and verification
refuses a recovered salt of any other length (RFC 8017 §9.1.2 step 10).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

from .errors import DecryptionError, PkcsError
from .primitives import SHA256, HashAlg, RandomSource, ct_equal, mgf
from .rsa import RsaPrivateKey, RsaPublicKey, rsa_private_op, rsa_public_op

__all__ = [
    "MessageTooLong",
    "EncodingError",
    "ModulusTooSmall",
    "OaepParams",
    "PssParams",
    "pss_salt_len_for",
    "os2ip",
    "i2osp",
    "eme_v15_pad",
    "eme_v15_unpad",
    "oaep_encode",
    "oaep_decode",
    "pss_encode",
    "pss_verify_encoding",
    "encrypt",
    "decrypt",
    "sign",
    "verify",
    "SCHEME_V15",
    "SCHEME_OAEP",
]

SCHEME_V15 = "v1_5"
SCHEME_OAEP = "oaep"

# SHA-256 accepts inputs below 2^61 octets; longer labels are unhashable.
_MAX_HASH_INPUT = 2**61 - 1


class MessageTooLong(PkcsError, ValueError):
    """The message, or the OAEP label, needs more room than the scheme allows."""


class EncodingError(PkcsError, ValueError):
    """The PSS parameters leave no room for PS || 0x01 || salt."""


class ModulusTooSmall(PkcsError, ValueError):
    pass


def os2ip(octets: bytes) -> int:
    return int.from_bytes(octets, "big")


def i2osp(value: int, length: int) -> bytes:
    """Big-endian, fixed width, leading zeros preserved."""
    return value.to_bytes(length, "big")


def _xor(a: bytes, b: bytes) -> bytes:
    """Octet-wise XOR of two strings of equal length, as one integer XOR."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


@dataclass(frozen=True)
class OaepParams:
    """EME-OAEP geometry: hash (output k0), optional label, modulus octets k."""

    k: int
    hash_alg: HashAlg = SHA256
    label: bytes = b""

    @property
    def k0(self) -> int:
        return self.hash_alg.output_len

    @property
    def max_message_len(self) -> int:
        # message length k1 must satisfy k1 < k - 2*k0 - 2
        return self.k - 2 * self.k0 - 3


def pss_salt_len_for(key: RsaPublicKey | RsaPrivateKey) -> int:
    """The one RSASSA-PSS salt rule, min(hLen, emLen - hLen - 2), or 0 if none fits."""
    h_len = SHA256.output_len
    return max(0, min(h_len, (key.n.bit_length() + 6) // 8 - h_len - 2))


@dataclass(frozen=True)
class PssParams:
    """EMSA-PSS geometry: hash (output k0), salt length, k, and |n| in bits."""

    k: int
    modulus_bits: int
    hash_alg: HashAlg = SHA256
    _: KW_ONLY
    salt_len: int

    def __post_init__(self):
        if self.salt_len < 0:
            raise ValueError("negative salt length")
        if (self.modulus_bits + 7) // 8 != self.k:
            raise ValueError("k must be the octet length of the modulus")

    @property
    def k0(self) -> int:
        return self.hash_alg.output_len

    @property
    def cleared_bits(self) -> int:
        # leftmost 8k - |n| + 1 bits of EM are forced to zero
        return 8 * self.k - self.modulus_bits + 1

    def fits(self) -> bool:
        # emLen >= hLen + sLen + 2, emLen = ceil((|n| - 1) / 8): k - 1 if |n| = 8k - 7
        return (self.modulus_bits + 6) // 8 >= self.k0 + self.salt_len + 2

    @classmethod
    def for_key(cls, key: RsaPublicKey | RsaPrivateKey) -> "PssParams":
        return cls(key.modulus_octets, key.n.bit_length(), salt_len=pss_salt_len_for(key))


# ---------------------------------------------------------------------------
# EME-PKCS1-v1_5


def eme_v15_pad(message: bytes, k: int, rng: RandomSource) -> bytes:
    """0x00 || 0x02 || PS || 0x00 || M with at least eight nonzero PS octets."""
    if len(message) > k - 11:
        raise MessageTooLong("message needs more room than the modulus allows")
    ps_len = k - 3 - len(message)
    ps = bytearray()
    while len(ps) < ps_len:
        chunk = rng.read(ps_len - len(ps))
        ps += bytes(b for b in chunk if b != 0)
    return b"\x00\x02" + bytes(ps) + b"\x00" + bytes(message)


def eme_v15_unpad(em: bytes, k: int) -> bytes:
    """Inverse of eme_v15_pad; every failure collapses into DecryptionError."""
    bad = len(em) != k or k < 11
    sep = -1
    for i in range(2, len(em)):
        if em[i] == 0 and sep < 0:
            sep = i
    bad |= len(em) < 2 or em[0] != 0x00 or em[1] != 0x02
    bad |= sep < 0
    bad |= sep - 2 < 8
    if bad:
        raise DecryptionError()
    return em[sep + 1:]


# ---------------------------------------------------------------------------
# EME-OAEP


def oaep_encode(message: bytes, params: OaepParams, rng: RandomSource) -> bytes:
    """EM = 0x00 || (r xor MGF(maskedDB, k0)) || (DB xor MGF(r, k-k0-1))."""
    k, k0 = params.k, params.k0
    if len(params.label) > _MAX_HASH_INPUT:
        raise MessageTooLong("label beyond the hash input limit")
    if len(message) > params.max_message_len:
        raise MessageTooLong("message too long for OAEP under this modulus")
    lhash = params.hash_alg.digest(params.label)
    ps = b"\x00" * (k - 2 * k0 - 2 - len(message))
    db = lhash + ps + b"\x01" + bytes(message)
    seed = rng.read(k0)
    masked_db = _xor(db, mgf(seed, k - k0 - 1, params.hash_alg))
    masked_seed = _xor(seed, mgf(masked_db, k0, params.hash_alg))
    return b"\x00" + masked_seed + masked_db


def oaep_decode(em: bytes, params: OaepParams) -> bytes:
    k, k0 = params.k, params.k0
    if len(em) != k or k < 2 * k0 + 2:
        raise DecryptionError()
    masked_seed, masked_db = em[1:1 + k0], em[1 + k0:]
    seed = _xor(masked_seed, mgf(masked_db, k0, params.hash_alg))
    db = _xor(masked_db, mgf(seed, k - k0 - 1, params.hash_alg))
    lhash = params.hash_alg.digest(params.label)
    bad = em[0] != 0x00
    bad |= not ct_equal(db[:k0], lhash)
    rest = db[k0:]
    sep = -1
    for i, b in enumerate(rest):
        if b != 0 and sep < 0:
            sep = i
    bad |= sep < 0
    bad |= sep >= 0 and rest[sep] != 0x01
    if bad:
        raise DecryptionError()
    return rest[sep + 1:]


# ---------------------------------------------------------------------------
# EMSA-PSS


def pss_encode(message: bytes, params: PssParams, rng: RandomSource) -> bytes:
    """maskedDB || H(M') || 0xbc with the leftmost 8k-|n|+1 bits cleared."""
    if not params.fits():
        raise EncodingError("no room for PS || 0x01 || salt")
    alg, k, k0 = params.hash_alg, params.k, params.k0
    salt = rng.read(params.salt_len) if params.salt_len else b""
    m_prime = b"\x00" * 8 + alg.digest(message) + salt
    h = alg.digest(m_prime)
    ps = b"\x00" * (k - k0 - 2 - params.salt_len)
    db = ps + b"\x01" + salt
    masked_db = _xor(db, mgf(h, k - k0 - 1, alg))
    em = masked_db + h + b"\xbc"
    keep = 0xFF >> params.cleared_bits
    return bytes([em[0] & keep]) + em[1:]


def pss_verify_encoding(message: bytes, em: bytes, params: PssParams) -> bool:
    alg, k, k0 = params.hash_alg, params.k, params.k0
    if len(em) != k or not params.fits():
        return False
    ok = em[-1] == 0xBC
    masked_db, h = em[:k - k0 - 1], em[k - k0 - 1:k - 1]
    keep = 0xFF >> params.cleared_bits
    ok &= em[0] & ~keep & 0xFF == 0
    db = _xor(masked_db, mgf(h, k - k0 - 1, alg))
    # EM is public, so DB is read with bytes operations, not a constant-time scan:
    # PS is zeros up to the 0x01 separator, and the salt follows it
    db = (bytes([db[0] & keep]) + db[1:]).lstrip(b"\x00")
    ok &= db[:1] == b"\x01"
    salt = db[1:]
    ok &= len(salt) == params.salt_len  # RFC 8017 §9.1.2 step 10: sLen is fixed
    m_prime = b"\x00" * 8 + alg.digest(message) + salt
    ok &= ct_equal(alg.digest(m_prime), h)
    return bool(ok)


# ---------------------------------------------------------------------------
# scheme layer


def encrypt(message: bytes, pk: RsaPublicKey, scheme: str, rng: RandomSource,
            *, label: bytes = b"") -> bytes:
    """Pad, convert to an integer, and apply the public operation."""
    k = pk.modulus_octets
    if scheme == SCHEME_V15:
        em = eme_v15_pad(message, k, rng)
    elif scheme == SCHEME_OAEP:
        em = oaep_encode(message, OaepParams(k, label=label), rng)
    else:
        raise ValueError(f"unknown encryption scheme {scheme!r}")
    return i2osp(rsa_public_op(os2ip(em), pk), k)


def decrypt(ciphertext: bytes, sk: RsaPrivateKey, scheme: str,
            *, label: bytes = b"") -> bytes:
    if scheme not in (SCHEME_V15, SCHEME_OAEP):
        raise ValueError(f"unknown encryption scheme {scheme!r}")
    k = sk.modulus_octets
    if len(ciphertext) != k:
        raise DecryptionError()
    c = os2ip(ciphertext)
    if c >= sk.n:
        raise DecryptionError()
    em = i2osp(rsa_private_op(c, sk), k)
    if scheme == SCHEME_V15:
        return eme_v15_unpad(em, k)
    return oaep_decode(em, OaepParams(k, label=label))


def sign(message: bytes, sk: RsaPrivateKey, rng: RandomSource,
         params: PssParams | None = None) -> bytes:
    """RSASSA-PSS signature; params default to PssParams.for_key, as in verify."""
    params = params or PssParams.for_key(sk)
    if params.modulus_bits != sk.n.bit_length():  # k follows from |n|
        raise ValueError("params do not match the signing key")
    if not params.fits():
        raise ModulusTooSmall("modulus too small for these PSS parameters")
    em = pss_encode(message, params, rng)
    return i2osp(rsa_private_op(os2ip(em), sk), params.k)


def verify(message: bytes, signature: bytes, pk: RsaPublicKey,
           params: PssParams | None = None) -> bool:
    params = params or PssParams.for_key(pk)
    k = pk.modulus_octets
    if params.k != k or len(signature) != k:
        return False
    s = os2ip(signature)
    if s >= pk.n:
        return False
    em = i2osp(rsa_public_op(s, pk), k)
    return pss_verify_encoding(message, em, params)
