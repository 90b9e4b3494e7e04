"""Hash, HMAC, MGF1, AES-128-CBC, and injectable random sources.

``HashAlg`` (SHA-256 by default, hashlib-backed) is the hash parameter of
MGF1 and of the OAEP and PSS encodings; an instance with another function,
such as a truncated SHA-256, keeps the padding layers testable at small
output sizes.  HMAC-SHA-256 follows RFC 2104 §4: ``keyed_hmac`` hashes the
key's two padded blocks (K xor ipad, K xor opad) once and returns a MAC that
copies those two SHA-256 states for each message, so PBKDF2 and the seeded
source pay for the key once, not once per block.  AES-128 is
implemented here from the FIPS 197 construction so that the package stays
self-contained and octet-for-octet testable.  Its rounds are table-driven
(32-bit T-tables derived at import, four column words of state); decryption
is the equivalent inverse cipher.  CBC expands the key once per message and
chains on 128-bit ints.  ``cbc_decrypt`` is the one CBC decryption path: every
failure, padding or the caller's reader, is the one ``DecryptionError``.  Table
lookups are indexed by secret-dependent state, so AES here is not constant time.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import BadParameter, DecryptionError, PkcsError, uniform_decryption

__all__ = [
    "HashAlg",
    "SHA256",
    "keyed_hmac",
    "hmac_digest",
    "mgf",
    "ct_equal",
    "aes128_encrypt_block",
    "aes128_decrypt_block",
    "cbc_encrypt",
    "cbc_decrypt",
    "BadLength",
    "RngExhausted",
    "RandomSource",
    "SystemRandomSource",
    "ConstantSource",
    "SeededSource",
    "ExhaustibleSource",
]


class BadLength(PkcsError):
    """Key, IV, or ciphertext length does not fit the cipher geometry."""


class RngExhausted(PkcsError):
    """A finite deterministic random source ran dry."""


# ---------------------------------------------------------------------------
# hashes and MACs


@dataclass(frozen=True)
class HashAlg:
    """A hash function: name, output length (octets), and the function."""

    name: str
    output_len: int
    raw: Callable[[bytes], bytes] = field(compare=False, repr=False)

    def digest(self, data: bytes) -> bytes:
        out = self.raw(bytes(data))
        if len(out) != self.output_len:
            raise ValueError(f"{self.name} produced {len(out)} octets, expected {self.output_len}")
        return out


SHA256 = HashAlg("sha256", 32, lambda data: hashlib.sha256(data).digest())


_HMAC_BLOCK = 64  # SHA-256 block length, the B of RFC 2104
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def keyed_hmac(key: bytes) -> Callable[[bytes], bytes]:
    """HMAC-SHA-256 (RFC 2104) under ``key``, as a function of the message.

    A key longer than the 64-octet block is hashed first."""
    key = bytes(key)
    if len(key) > _HMAC_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_HMAC_BLOCK, b"\x00")
    inner_copy = hashlib.sha256(key.translate(_IPAD)).copy
    outer_copy = hashlib.sha256(key.translate(_OPAD)).copy

    def mac(msg: bytes) -> bytes:
        inner = inner_copy()
        inner.update(msg)
        outer = outer_copy()
        outer.update(inner.digest())
        return outer.digest()

    return mac


def hmac_digest(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA-256 of one message."""
    return keyed_hmac(key)(msg)


def mgf(seed: bytes, out_len: int, alg: HashAlg = SHA256) -> bytes:
    """MGF1: hash(seed || counter) blocks, four-octet big-endian counter from 0."""
    if out_len < 0:
        raise ValueError("negative output length")
    if out_len > (1 << 32) * alg.output_len:
        raise ValueError("mask longer than the MGF can produce")
    seed = bytes(seed)
    blocks = -(-out_len // alg.output_len)
    return b"".join([alg.digest(seed + counter.to_bytes(4, "big"))
                     for counter in range(blocks)])[:out_len]


def ct_equal(a: bytes, b: bytes) -> bool:
    """Constant-time octet comparison for MAC tags and padding checks."""
    return _hmac.compare_digest(bytes(a), bytes(b))


# ---------------------------------------------------------------------------
# AES-128 (FIPS 197), desk-scale implementation
#
# The S-box and its inverse are derived from the GF(2^8) inverse plus the
# affine map, and the round tables from the S-boxes and MixColumns, rather
# than transcribed, which removes a whole class of table typos; correctness
# is pinned against the FIPS 197 and SP 800-38A vectors and an independent
# implementation in the test suite.


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


def _build_tables() -> tuple[bytes, bytes]:
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)  # multiply by the generator 0x03
    sbox = bytearray(256)
    for a in range(256):
        inv = 0 if a == 0 else exp[(255 - log[a]) % 255]
        s = inv
        for _ in range(4):
            inv = ((inv << 1) | (inv >> 7)) & 0xFF
            s ^= inv
        sbox[a] = s ^ 0x63
    inv_sbox = bytearray(256)
    for a, s in enumerate(sbox):
        inv_sbox[s] = a
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_tables()
_WORD = 0xFFFFFFFF


def _gmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


def _round_tables(box: bytes, coef: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The four T-tables of one direction (FIPS 197 §5; Daemen-Rijmen §4.2).

    Table j maps a state octet x in row j to the 32-bit column word that
    SubBytes (``box``) then MixColumns (first column ``coef``) make of it:
    table 0 holds coef * box[x], table j is table 0 rotated right by 8j bits.
    """
    t0 = tuple(int.from_bytes(bytes(_gmul(s, c) for c in coef), "big") for s in box)
    return (t0,) + tuple(tuple((w >> 8 * j | w << 32 - 8 * j) & _WORD for w in t0)
                         for j in (1, 2, 3))


_TE = _round_tables(_SBOX, (2, 1, 1, 3))       # SubBytes, MixColumns
_TD = _round_tables(_INV_SBOX, (14, 9, 13, 11))  # InvSubBytes, InvMixColumns


def _expand_key(key: bytes) -> list[tuple[int, ...]]:
    """The 11 round keys of AES-128 (FIPS 197 §5.2), four big-endian words each."""
    if len(key) != 16:
        raise BadLength("AES-128 key must be 16 octets")
    words = [int.from_bytes(key[i:i + 4], "big") for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = (_SBOX[temp >> 16 & 255] << 24 | _SBOX[temp >> 8 & 255] << 16
                    | _SBOX[temp & 255] << 8 | _SBOX[temp >> 24]) ^ rcon << 24
            rcon = _xtime(rcon)
        words.append(words[i - 4] ^ temp)
    return [tuple(words[i:i + 4]) for i in range(0, 44, 4)]


def _inverse_keys(rk: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Round keys of the equivalent inverse cipher (FIPS 197 §5.3.5).

    Rounds run last to first; keys 1-9 go through InvMixColumns, read off
    the decryption tables at S[x] (InvSubBytes undoes S).  Each round's words
    are stored in the column order (0, 3, 2, 1) that ``_rounds`` uses for
    decryption.
    """
    t0, t1, t2, t3 = _TD
    dk = []
    for r, k in enumerate(reversed(rk)):
        if 0 < r < 10:
            k = [t0[_SBOX[w >> 24]] ^ t1[_SBOX[w >> 16 & 255]]
                 ^ t2[_SBOX[w >> 8 & 255]] ^ t3[_SBOX[w & 255]] for w in k]
        dk.append((k[0], k[3], k[2], k[1]))
    return dk


def _rounds(rk: list[tuple[int, ...]], tables, box: bytes, s0: int, s1: int, s2: int, s3: int):
    """Ten rounds over four column words; the last omits MixColumns.

    Output column c takes row j from input column c + j (ShiftRows).  With
    the columns numbered (0, 3, 2, 1) the same rule is c - j (InvShiftRows),
    so decryption runs this function on reordered words and keys.
    """
    t0, t1, t2, t3 = tables
    k0, k1, k2, k3 = rk[0]
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for k0, k1, k2, k3 in rk[1:10]:
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ k0,
            t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ k1,
            t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ k2,
            t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ k3,
        )
    k0, k1, k2, k3 = rk[10]
    return (
        (box[s0 >> 24] << 24 | box[s1 >> 16 & 255] << 16 | box[s2 >> 8 & 255] << 8
         | box[s3 & 255]) ^ k0,
        (box[s1 >> 24] << 24 | box[s2 >> 16 & 255] << 16 | box[s3 >> 8 & 255] << 8
         | box[s0 & 255]) ^ k1,
        (box[s2 >> 24] << 24 | box[s3 >> 16 & 255] << 16 | box[s0 >> 8 & 255] << 8
         | box[s1 & 255]) ^ k2,
        (box[s3 >> 24] << 24 | box[s0 >> 16 & 255] << 16 | box[s1 >> 8 & 255] << 8
         | box[s2 & 255]) ^ k3,
    )


def _encrypt(rk: list[tuple[int, ...]], block: int) -> int:
    """One block as a 128-bit big-endian int, under the ``_expand_key`` round keys."""
    a, b, c, d = _rounds(rk, _TE, _SBOX, block >> 96, block >> 64 & _WORD,
                         block >> 32 & _WORD, block & _WORD)
    return a << 96 | b << 64 | c << 32 | d


def _decrypt(dk: list[tuple[int, ...]], block: int) -> int:
    """Inverse of ``_encrypt``, under the ``_inverse_keys`` round keys."""
    a, d, c, b = _rounds(dk, _TD, _INV_SBOX, block >> 96, block & _WORD,
                         block >> 32 & _WORD, block >> 64 & _WORD)
    return a << 96 | b << 64 | c << 32 | d


BLOCK_LEN = 16


def _block_int(block: bytes) -> int:
    if len(block) != BLOCK_LEN:
        raise BadLength("AES block must be 16 octets")
    return int.from_bytes(block, "big")


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    return _encrypt(_expand_key(key), _block_int(block)).to_bytes(BLOCK_LEN, "big")


def aes128_decrypt_block(key: bytes, block: bytes) -> bytes:
    return _decrypt(_inverse_keys(_expand_key(key)), _block_int(block)).to_bytes(BLOCK_LEN, "big")


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-128-CBC with block padding: n octets of value n, 1 <= n <= 16."""
    if len(iv) != BLOCK_LEN:
        raise BadLength("IV must be 16 octets")
    rk = _expand_key(key)
    pad = BLOCK_LEN - len(plaintext) % BLOCK_LEN
    padded = bytes(plaintext) + bytes([pad]) * pad
    out = bytearray()
    prev = int.from_bytes(iv, "big")
    for i in range(0, len(padded), BLOCK_LEN):
        prev = _encrypt(rk, int.from_bytes(padded[i:i + BLOCK_LEN], "big") ^ prev)
        out += prev.to_bytes(BLOCK_LEN, "big")
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes,
                read: Callable[[bytes], Any] = bytes) -> Any:
    """``read`` of the unpadded AES-128-CBC plaintext.  A wrong IV or ciphertext
    length, bad padding and ``read`` refusing the octets are one DecryptionError."""
    if len(iv) != BLOCK_LEN or not ciphertext or len(ciphertext) % BLOCK_LEN:
        raise DecryptionError()
    dk = _inverse_keys(_expand_key(key))
    out = bytearray()
    prev = int.from_bytes(iv, "big")
    for i in range(0, len(ciphertext), BLOCK_LEN):
        block = int.from_bytes(ciphertext[i:i + BLOCK_LEN], "big")
        out += (_decrypt(dk, block) ^ prev).to_bytes(BLOCK_LEN, "big")
        prev = block
    # padding check over a fixed window, single uniform failure
    pad = out[-1]
    bad = int(not 1 <= pad <= BLOCK_LEN)
    for i in range(1, BLOCK_LEN + 1):
        in_pad = int(i <= pad)
        bad |= in_pad & int(out[-i] != pad)
    if bad:
        raise DecryptionError()
    with uniform_decryption():
        return read(bytes(out[:-pad]))


# ---------------------------------------------------------------------------
# random sources


class RandomSource:
    """Abstract octet generator.  One instance, one consumer."""

    def read(self, n: int) -> bytes:
        raise NotImplementedError


def _octet_count(n: int) -> int:
    """``n``, the count a source is asked to read, unless it is negative."""
    if n < 0:
        raise BadParameter(f"cannot read {n} octets")
    return n


class SystemRandomSource(RandomSource):
    def read(self, n: int) -> bytes:
        return os.urandom(_octet_count(n))


class ConstantSource(RandomSource):
    """Emits one fixed octet value; handy for layout-forcing tests."""

    def __init__(self, octet: int = 0xFF):
        if not 0 <= octet <= 0xFF:
            raise ValueError("octet out of range")
        self._octet = octet

    def read(self, n: int) -> bytes:
        return bytes([self._octet]) * _octet_count(n)


class SeededSource(RandomSource):
    """Deterministic stream: HMAC(seed, counter) blocks, 4-octet big-endian counter."""

    def __init__(self, seed: bytes):
        self._mac = keyed_hmac(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        n = _octet_count(n)
        while len(self._buffer) < n:
            self._buffer += self._mac(self._counter.to_bytes(4, "big"))
            self._counter += 1
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


class ExhaustibleSource(RandomSource):
    """Fixed-octet pool that raises RngExhausted once consumed."""

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def read(self, n: int) -> bytes:
        if self._pos + _octet_count(n) > len(self._data):
            raise RngExhausted(f"needed {n} octets, {len(self._data) - self._pos} left")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out
