"""RSA encryption and signature schemes: EME-PKCS1-v1_5, EME-OAEP, EMSA-PSS.

The encoding layers work on octet strings of the modulus length k and are
exercised octet-for-octet in the tests; the scheme layer composes them with
the raw modular operations.  EMSA-PSS is built and checked as one integer,
DB masked to ``PssParams.db_bits``: ``sign`` exponentiates the built one,
``verify`` checks s^e mod n as it is, and ``pss_encode`` and
``pss_verify_encoding`` are their octet front ends.  The builder refuses
parameters that leave no room as ModulusTooSmall, the one PSS encoding error.

Every decryption failure - wrong leading octets, bad delimiter, short
padding, out-of-range representative - raises the same DecryptionError value
so that callers cannot be turned into a format oracle.  Signature
verification is a plain boolean and never reveals which check failed.  It
reads public octets only, so unlike the two decryption decoders, which scan
every octet of a secret encoded message, it is not constant time.  Before it,
``check_signature_algorithm`` alone refuses a received signature algorithm
other than RSASSA-PSS, for requests and signed-data alike, as
UnsupportedAlgorithm: an algorithm pkcswb lacks is never reported as forged.
So do ``rsa_key_algorithm`` and ``check_key_transport_algorithm`` for theirs.

RSASSA-PSS has one salt rule, over the modulus bit length: sLen = min(hLen,
emLen - hLen - 2).  sign uses it, verify defaults to it, and verification
refuses a recovered salt of any other length (RFC 8017 §9.1.2 step 10).
The RSA algorithm identifiers and key layouts (RFC 8017 §A.1-A.2) are written
and read here alone; RSASSA-PSS and RSAES-OAEP carry no parameters and are
read by OID.  The private key body that PKCS #8 carries is a SEQUENCE of
version, n, e, d, followed by one (r_i, d_i, t_i) triple per prime; the first
prime carries the trivial coefficient t_1 = 1 so that all primes share one
shape, the one ``rsa.RsaPrivateKey`` derives, and the triples map one to one.
Multiprime keys use body version 1, two-prime keys version 0.  The reader
builds the key from the body's e, d and primes, refuses a body whose n,
version or triples differ from those they derive, and keeps d as received
(OpenSSL may write it modulo phi(n)).  It then runs the private operation's
check once, on a fixed representative, so a key whose "primes" are not all
prime is refused as MalformedKey when read, not at first use; where
decryption meets that check failing, it raises the uniform DecryptionError.
"""

from __future__ import annotations

import functools
import math

from . import asn1, oids
from .errors import DecryptionError, Frozen, MalformedKey, PkcsError, UnsupportedAlgorithm
from .primitives import SHA256, HashAlg, RandomSource, RngExhausted, ct_equal, mgf
from .rsa import (FaultDetected, RsaPrivateKey, RsaPublicKey, _checked_crt, check_key_caps,
                  rsa_private_op, rsa_public_op)

__all__ = [
    "MessageTooLong",
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

RSA_KEY_ALGORITHM = asn1.AlgorithmIdentifier(oids.RSA_ENCRYPTION, asn1.null())
PSS_ALGORITHM = asn1.AlgorithmIdentifier(oids.RSASSA_PSS)
OAEP_ALGORITHM = asn1.AlgorithmIdentifier(oids.RSAES_OAEP)


class MessageTooLong(PkcsError, ValueError):
    """The message needs more room than the scheme's padding leaves."""


class ModulusTooSmall(PkcsError, ValueError):
    """No room for the encoding; for PSS, raised by its one builder alone."""


def os2ip(octets: bytes) -> int:
    return int.from_bytes(octets, "big")


def i2osp(value: int, length: int) -> bytes:
    """Big-endian, fixed width, leading zeros preserved."""
    return value.to_bytes(length, "big")


def _xor(a: bytes, b: bytes) -> bytes:
    """Octet-wise XOR of two strings of equal length, as one integer XOR."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


class OaepParams(Frozen):
    """EME-OAEP geometry: hash (output k0), optional label, modulus octets k."""

    _fields = ("k", "hash_alg", "label")

    def __init__(self, k: int, hash_alg: HashAlg = SHA256, label: bytes = b""):
        self.__dict__.update(k=k, hash_alg=hash_alg, label=label)

    @property
    def k0(self) -> int:
        return self.hash_alg.output_len

    @property
    def max_message_len(self) -> int:
        # RFC 8017 §7.1.1 step 1b: the PS length under an empty message
        return self.k - 2 * self.k0 - 2


def pss_salt_len_for(key: RsaPublicKey | RsaPrivateKey) -> int:
    """The salt rule for the size of ``key``'s modulus."""
    return PssParams.for_key(key).salt_len


class PssParams(Frozen):
    """EMSA-PSS geometry: hash (output k0), salt length, and |n| in bits,
    which sets k, the modulus octet length."""

    _fields = ("k", "modulus_bits", "hash_alg", "salt_len")

    def __init__(self, modulus_bits: int, hash_alg: HashAlg = SHA256, *, salt_len: int):
        if salt_len < 0:
            raise ValueError("negative salt length")
        self.__dict__.update(k=(modulus_bits + 7) // 8, modulus_bits=modulus_bits,
                             hash_alg=hash_alg, salt_len=salt_len)

    @property
    def k0(self) -> int:
        return self.hash_alg.output_len

    @property
    def db_bits(self) -> int:
        # maskedDB's width in EM < 2^(|n|-1), under H || 0xbc: no cleared bits
        return self.modulus_bits - 1 - 8 * (self.k0 + 1)

    def fits(self) -> bool:
        # emLen >= hLen + sLen + 2: DB's 0x01 bit, 8 sLen, lies inside the width
        return self.db_bits > 8 * self.salt_len

    @classmethod
    def for_key(cls, key: RsaPublicKey | RsaPrivateKey) -> "PssParams":
        """One value per modulus size, keyed by |n| in bits alone, so a public
        and a private key of one size share it; its salt is the salt rule's."""
        return _pss_params_for_bits(key.n.bit_length())


@functools.lru_cache(maxsize=64)
def _pss_params_for_bits(modulus_bits: int) -> PssParams:
    """The one RSASSA-PSS salt rule, min(hLen, emLen - hLen - 2), or 0 if none fits."""
    bare = PssParams(modulus_bits, salt_len=0)
    salt_len = max(0, min(bare.k0, (bare.db_bits - 1) // 8))  # largest 8 sLen < db_bits
    return PssParams(modulus_bits, salt_len=salt_len)


def rsa_key_algorithm(value: asn1.DerValue) -> asn1.AlgorithmIdentifier:
    algorithm = asn1.AlgorithmIdentifier.from_der_value(value)
    if algorithm.oid != oids.RSA_ENCRYPTION:
        raise UnsupportedAlgorithm(f"unsupported key algorithm {algorithm.oid}")
    if algorithm.params not in (None, RSA_KEY_ALGORITHM.params):  # RFC 3279 §2.3.1
        raise MalformedKey("rsaEncryption parameters must be NULL")
    return algorithm


def check_signature_algorithm(oid: asn1.Oid) -> None:
    """The one refusal of a received signature algorithm: any OID but RSASSA-PSS."""
    if oid != oids.RSASSA_PSS:
        raise UnsupportedAlgorithm(f"unsupported signature algorithm {oid}")


def check_key_transport_algorithm(oid: asn1.Oid) -> None:
    """The one refusal of a received key transport algorithm: any OID but RSAES-OAEP."""
    if oid != oids.RSAES_OAEP:
        raise UnsupportedAlgorithm(f"unsupported key transport algorithm {oid}")


# ---------------------------------------------------------------------------
# key layouts


def encode_public_key_info(pk: RsaPublicKey) -> asn1.DerValue:
    key_der = asn1.der_encode(asn1.sequence(asn1.integer(pk.n), asn1.integer(pk.e)))
    return asn1.sequence(RSA_KEY_ALGORITHM.to_der_value(), asn1.bit_string(key_der))


def decode_public_key_info(value: asn1.DerValue) -> RsaPublicKey:
    """A refused key identifier, KeyTooLarge, or n or e out of range raises its own class."""
    alg_v, key_v = asn1._fields(value, 2)
    rsa_key_algorithm(alg_v)
    n_v, e_v = asn1._fields(asn1.der_decode(key_v.as_bit_string()), 2)
    n, e = n_v.as_integer(), e_v.as_integer()
    check_key_caps(n, e)
    return RsaPublicKey(n, e)


def key_body(key: RsaPrivateKey) -> asn1.DerValue:
    triples = [asn1.sequence(*map(asn1.integer, triple))
               for triple in zip(key.primes, key.crt_exponents, key.crt_coefficients)]
    return asn1.sequence(*map(asn1.integer, (key.version, key.n, key.e, key.d)),
                         asn1.sequence(*triples))


# The representative on which a key read is checked once, as every private
# operation checks its own: it catches most keys whose "primes" are not prime.
_KEY_CHECK_REPRESENTATIVE = 2


def key_from_body(body: asn1.DerValue) -> RsaPrivateKey:
    version_v, n_v, e_v, d_v, triples_v = asn1._fields(body, 5)
    asn1.require(triples_v, asn1.SEQUENCE)
    n, e = n_v.as_integer(), e_v.as_integer()
    check_key_caps(n, e, len(triples_v.children))
    triples = [tuple(v.as_integer() for v in asn1._fields(triple, 3))
               for triple in triples_v.children]
    primes = [r for r, _, _ in triples]
    # a prime longer than n cannot divide it: refused before the product,
    # whose cost grows faster than the file, so the caps bound the work
    if any(r.bit_length() > n.bit_length() for r in primes) or math.prod(primes) != n:
        raise MalformedKey("modulus is not the product of the primes")
    key = RsaPrivateKey(e, d_v.as_integer(), primes)
    if version_v.as_integer() != key.version:
        raise MalformedKey("version must be 0 for two primes, 1 otherwise")
    if triples != list(zip(key.primes, key.crt_exponents, key.crt_coefficients)):
        raise MalformedKey("a CRT exponent or coefficient is not the one the primes give")
    try:
        _checked_crt(_KEY_CHECK_REPRESENTATIVE, key)
    except FaultDetected:
        raise MalformedKey("the key fails the private operation's check") from None
    return key


# ---------------------------------------------------------------------------
# EME-PKCS1-v1_5


def eme_v15_pad(message: bytes, k: int, rng: RandomSource) -> bytes:
    """0x00 || 0x02 || PS || 0x00 || M with at least eight nonzero PS octets;
    RngExhausted if 256 draws from ``rng`` do not fill PS."""
    ps_len = k - 3 - len(message)
    if ps_len < 8:  # RFC 8017 §7.2.1 step 1
        raise MessageTooLong("message needs more room than the modulus allows")
    ps = bytearray()
    # a uniform source fills PS in a few draws: the budget trips only for one
    # that keeps yielding zeros
    for _ in range(256):
        ps += bytes(b for b in rng.read(ps_len - len(ps)) if b != 0)
        if len(ps) == ps_len:
            return b"\x00\x02" + bytes(ps) + b"\x00" + bytes(message)
    raise RngExhausted("source never produced the nonzero padding octets")


def eme_v15_unpad(em: bytes, k: int) -> bytes:
    """Inverse of eme_v15_pad; every failure collapses into DecryptionError."""
    bad = len(em) != k or em[:2] != b"\x00\x02"
    sep = -1
    for i in range(2, len(em)):
        if em[i] == 0 and sep < 0:
            sep = i
    bad |= sep - 2 < 8  # PS runs to the first 0x00; with none, sep is -1
    if bad:
        raise DecryptionError()
    return em[sep + 1:]


# ---------------------------------------------------------------------------
# EME-OAEP


def oaep_encode(message: bytes, params: OaepParams, rng: RandomSource) -> bytes:
    """EM = 0x00 || (r xor MGF(maskedDB, k0)) || (DB xor MGF(r, k-k0-1))."""
    k, k0 = params.k, params.k0
    ps_len = params.max_message_len - len(message)
    if ps_len < 0:
        raise MessageTooLong("message too long for OAEP under this modulus")
    db = params.hash_alg.digest(params.label) + bytes(ps_len) + b"\x01" + bytes(message)
    seed = rng.read(k0)
    masked_db = _xor(db, mgf(seed, k - k0 - 1, params.hash_alg))
    masked_seed = _xor(seed, mgf(masked_db, k0, params.hash_alg))
    return b"\x00" + masked_seed + masked_db


def oaep_decode(em: bytes, params: OaepParams) -> bytes:
    k, k0 = params.k, params.k0
    if len(em) != k or params.max_message_len < 0:
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


def _db_mask(h: bytes, params: PssParams) -> int:
    """MGF(H, emLen - hLen - 1) as one integer, cut to the width of DB."""
    octets = mgf(h, (params.db_bits + 7) // 8, params.hash_alg)
    return int.from_bytes(octets, "big") & ((1 << params.db_bits) - 1)


def _pss_representative(message: bytes, params: PssParams, rng: RandomSource) -> int:
    """RFC 8017 §9.1.1 as one big-endian integer, the one EMSA-PSS builder:
    EM = maskedDB || H || 0xbc, DB = PS || 0x01 || salt = 2^8sLen + salt masked
    to the width verification reads; ModulusTooSmall, before any draw, if
    params do not fit."""
    if not params.fits():
        raise ModulusTooSmall("modulus too small for these PSS parameters")
    alg, k0 = params.hash_alg, params.k0
    salt = rng.read(params.salt_len)
    h = alg.digest(bytes(8) + alg.digest(message) + salt)
    masked_db = ((1 << 8 * params.salt_len) | int.from_bytes(salt, "big")) ^ _db_mask(h, params)
    return (masked_db << 8 * (k0 + 1)) | (int.from_bytes(h, "big") << 8) | 0xBC


def pss_encode(message: bytes, params: PssParams, rng: RandomSource) -> bytes:
    """The builder's EM as k octets, the form ``pss_verify_encoding`` reads."""
    return i2osp(_pss_representative(message, params, rng), params.k)


def pss_verify_encoding(message: bytes, em: bytes, params: PssParams) -> bool:
    """The EMSA-PSS check of an encoded message of k octets, as one integer."""
    return len(em) == params.k and _pss_verify_representative(message, os2ip(em), params)


def _pss_verify_representative(message: bytes, em: int, params: PssParams) -> bool:
    """RFC 8017 §9.1.2 on EM = maskedDB || H || 0xbc read as one big-endian
    integer, the one EMSA-PSS check.  EM is public, so each test is a shift
    and a mask and the first that fails decides: the trailer, the cleared top
    bits (EM < 2^(|n|-1)), DB = PS || 0x01 || salt with exactly sLen salt
    octets (DB >> 8sLen == 1), then H against the hash of M'."""
    alg, k0, salt_bits = params.hash_alg, params.k0, 8 * params.salt_len
    if em & 0xFF != 0xBC or em >> (params.modulus_bits - 1) or not params.fits():
        return False
    h = ((em >> 8) & ((1 << 8 * k0) - 1)).to_bytes(k0, "big")
    db = (em >> 8 * (k0 + 1)) ^ _db_mask(h, params)
    if db >> salt_bits != 1:  # step 10: sLen is fixed
        return False
    m_hash = int.from_bytes(alg.digest(message), "big")
    m_prime = ((m_hash << salt_bits) | (db ^ (1 << salt_bits))).to_bytes(
        8 + k0 + params.salt_len, "big")
    return ct_equal(alg.digest(m_prime), h)


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
    try:
        em = i2osp(rsa_private_op(c, sk), k)
    except FaultDetected:
        raise DecryptionError() from None
    if scheme == SCHEME_V15:
        return eme_v15_unpad(em, k)
    return oaep_decode(em, OaepParams(k, label=label))


def sign(message: bytes, sk: RsaPrivateKey, rng: RandomSource) -> bytes:
    """RSASSA-PSS signature under PssParams.for_key, verify's default."""
    params = PssParams.for_key(sk)
    return i2osp(rsa_private_op(_pss_representative(message, params, rng), sk), params.k)


def verify(message: bytes, signature: bytes, pk: RsaPublicKey,
           params: PssParams | None = None) -> bool:
    params = params or PssParams.for_key(pk)
    k = pk.modulus_octets
    if params.k != k or len(signature) != k:
        return False
    s = os2ip(signature)
    if s >= pk.n:
        return False
    return _pss_verify_representative(message, rsa_public_op(s, pk), params)
