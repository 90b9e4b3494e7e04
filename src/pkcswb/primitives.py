"""Hash, HMAC, MGF1, AES-128-CBC, and injectable random sources.

``HashAlg`` (SHA-256 by default, hashlib-backed) is the hash parameter of
MGF1 and of the OAEP and PSS encodings; an instance with another function,
such as a truncated SHA-256, keeps the padding layers testable at small
output sizes.  HMAC is HMAC-SHA-256 through the stdlib ``hmac``.  AES-128 is
implemented here from the FIPS 197 construction so that the package stays
self-contained and octet-for-octet testable; CBC expands the key once per
message.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import os
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "HashAlg",
    "SHA256",
    "hmac_digest",
    "mgf",
    "ct_equal",
    "aes128_encrypt_block",
    "aes128_decrypt_block",
    "cbc_encrypt",
    "cbc_decrypt",
    "BadPadding",
    "BadLength",
    "RngExhausted",
    "RandomSource",
    "SystemRandomSource",
    "ConstantSource",
    "SeededSource",
    "ExhaustibleSource",
]


class BadPadding(Exception):
    """Uniform block-padding failure; carries no detail on purpose."""

    def __init__(self):
        super().__init__("bad padding")


class BadLength(Exception):
    """Key, IV, or ciphertext length does not fit the cipher geometry."""


class RngExhausted(Exception):
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


def hmac_digest(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA-256 (RFC 2104) through the stdlib ``hmac``."""
    return _hmac.digest(key, msg, "sha256")


def mgf(seed: bytes, out_len: int, alg: HashAlg = SHA256) -> bytes:
    """MGF1: hash(seed || counter) blocks, four-octet big-endian counter from 0."""
    if out_len < 0:
        raise ValueError("negative output length")
    if out_len > (1 << 32) * alg.output_len:
        raise ValueError("mask longer than the MGF can produce")
    out = bytearray()
    counter = 0
    while len(out) < out_len:
        out += alg.digest(bytes(seed) + counter.to_bytes(4, "big"))
        counter += 1
    return bytes(out[:out_len])


def ct_equal(a: bytes, b: bytes) -> bool:
    """Constant-time octet comparison for MAC tags and padding checks."""
    return _hmac.compare_digest(bytes(a), bytes(b))


# ---------------------------------------------------------------------------
# AES-128 (FIPS 197), desk-scale implementation
#
# The S-box and its inverse are derived from the GF(2^8) inverse plus the
# affine map rather than transcribed, which removes a whole class of table
# typos; correctness is pinned against an independent implementation in the
# test suite.


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

# Flat-state index maps for ShiftRows on a column-major 16-octet state.
_SHIFT_ROWS = [(i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16)]
_INV_SHIFT_ROWS = [(i % 4) + 4 * (((i // 4) - (i % 4)) % 4) for i in range(16)]


def _gmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


def _expand_key(key: bytes) -> list[bytes]:
    if len(key) != 16:
        raise BadLength("AES-128 key must be 16 octets")
    words = [key[4 * i:4 * i + 4] for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = bytes((_SBOX[temp[1]] ^ rcon, _SBOX[temp[2]], _SBOX[temp[3]], _SBOX[temp[0]]))
            rcon = _xtime(rcon)
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[4 * r:4 * r + 4]) for r in range(11)]


def _mix_columns(state: bytes, inverse: bool = False) -> bytes:
    coef = (14, 11, 13, 9) if inverse else (2, 3, 1, 1)
    out = bytearray(16)
    for c in range(4):
        col = state[4 * c:4 * c + 4]
        for r in range(4):
            out[4 * c + r] = (
                _gmul(col[r], coef[0])
                ^ _gmul(col[(r + 1) % 4], coef[1])
                ^ _gmul(col[(r + 2) % 4], coef[2])
                ^ _gmul(col[(r + 3) % 4], coef[3])
            )
    return bytes(out)


def _encrypt(rk: list[bytes], block: bytes) -> bytes:
    if len(block) != 16:
        raise BadLength("AES block must be 16 octets")
    state = bytes(a ^ b for a, b in zip(block, rk[0]))
    for rnd in range(1, 10):
        state = bytes(_SBOX[b] for b in state)
        state = bytes(state[_SHIFT_ROWS[i]] for i in range(16))
        state = _mix_columns(state)
        state = bytes(a ^ b for a, b in zip(state, rk[rnd]))
    state = bytes(_SBOX[b] for b in state)
    state = bytes(state[_SHIFT_ROWS[i]] for i in range(16))
    return bytes(a ^ b for a, b in zip(state, rk[10]))


def _decrypt(rk: list[bytes], block: bytes) -> bytes:
    if len(block) != 16:
        raise BadLength("AES block must be 16 octets")
    state = bytes(a ^ b for a, b in zip(block, rk[10]))
    for rnd in range(9, 0, -1):
        state = bytes(state[_INV_SHIFT_ROWS[i]] for i in range(16))
        state = bytes(_INV_SBOX[b] for b in state)
        state = bytes(a ^ b for a, b in zip(state, rk[rnd]))
        state = _mix_columns(state, inverse=True)
    state = bytes(state[_INV_SHIFT_ROWS[i]] for i in range(16))
    state = bytes(_INV_SBOX[b] for b in state)
    return bytes(a ^ b for a, b in zip(state, rk[0]))


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    return _encrypt(_expand_key(key), block)


def aes128_decrypt_block(key: bytes, block: bytes) -> bytes:
    return _decrypt(_expand_key(key), block)


BLOCK_LEN = 16


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-128-CBC with block padding: n octets of value n, 1 <= n <= 16."""
    if len(iv) != BLOCK_LEN:
        raise BadLength("IV must be 16 octets")
    rk = _expand_key(key)
    pad = BLOCK_LEN - len(plaintext) % BLOCK_LEN
    padded = bytes(plaintext) + bytes([pad]) * pad
    out = bytearray()
    prev = iv
    for i in range(0, len(padded), BLOCK_LEN):
        block = bytes(a ^ b for a, b in zip(padded[i:i + BLOCK_LEN], prev))
        prev = _encrypt(rk, block)
        out += prev
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    if len(iv) != BLOCK_LEN:
        raise BadLength("IV must be 16 octets")
    if not ciphertext or len(ciphertext) % BLOCK_LEN:
        raise BadLength("ciphertext must be a positive multiple of 16 octets")
    rk = _expand_key(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), BLOCK_LEN):
        block = ciphertext[i:i + BLOCK_LEN]
        out += bytes(a ^ b for a, b in zip(_decrypt(rk, block), prev))
        prev = block
    # padding check over a fixed window, single uniform failure
    pad = out[-1]
    bad = int(not 1 <= pad <= BLOCK_LEN)
    for i in range(1, BLOCK_LEN + 1):
        in_pad = int(i <= pad)
        bad |= in_pad & int(out[-i] != pad)
    if bad:
        raise BadPadding()
    return bytes(out[:-pad])


# ---------------------------------------------------------------------------
# random sources


class RandomSource:
    """Abstract octet generator.  One instance, one consumer."""

    def read(self, n: int) -> bytes:
        raise NotImplementedError


class SystemRandomSource(RandomSource):
    def read(self, n: int) -> bytes:
        return os.urandom(n)


class ConstantSource(RandomSource):
    """Emits one fixed octet value; handy for layout-forcing tests."""

    def __init__(self, octet: int = 0xFF):
        if not 0 <= octet <= 0xFF:
            raise ValueError("octet out of range")
        self._octet = octet

    def read(self, n: int) -> bytes:
        return bytes([self._octet]) * n


class SeededSource(RandomSource):
    """Deterministic stream: HMAC(seed, counter) blocks, 4-octet big-endian counter."""

    def __init__(self, seed: bytes):
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hmac_digest(self._seed, self._counter.to_bytes(4, "big"))
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


class ExhaustibleSource(RandomSource):
    """Fixed-octet pool that raises RngExhausted once consumed."""

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def read(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise RngExhausted(f"needed {n} octets, {len(self._data) - self._pos} left")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out
