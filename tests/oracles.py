"""Independent reference implementations used only to cross-check the package.

Nothing here imports the code under test.  The SHA-256 oracle derives its
round constants from integer square/cube roots instead of transcribing them,
so it shares no tables with any other implementation; the PBKDF2 oracle is a
direct transliteration of the block/iteration formula that materializes every
U value before XOR-reducing.
"""

import hashlib
import hmac
import math
import struct

_MASK = 0xFFFFFFFF


def _icbrt(n: int) -> int:
    lo, hi = 0, 1 << ((n.bit_length() + 2) // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** 3 <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _first_primes(count: int) -> list[int]:
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


_PRIMES64 = _first_primes(64)
_H0 = [(math.isqrt(p << 64) - (math.isqrt(p) << 32)) & _MASK for p in _PRIMES64[:8]]
_K = [(_icbrt(p << 96) - (_icbrt(p) << 32)) & _MASK for p in _PRIMES64]


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def sha256_oracle(message: bytes) -> bytes:
    """FIPS 180-2 SHA-256, written directly from the compression schedule."""
    h = list(_H0)
    bit_len = len(message) * 8
    message += b"\x80" + b"\x00" * ((55 - len(message)) % 64) + bit_len.to_bytes(8, "big")
    for offset in range(0, len(message), 64):
        w = list(struct.unpack(">16L", message[offset:offset + 64]))
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + big_s1 + ch + _K[t] + w[t]) & _MASK
            big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (big_s0 + maj) & _MASK
            a, b, c, d, e, f, g, hh = (t1 + t2) & _MASK, a, b, c, (d + t1) & _MASK, e, f, g
        h = [(x + y) & _MASK for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return b"".join(x.to_bytes(4, "big") for x in h)


def hmac_sha256_oracle(key: bytes, message: bytes) -> bytes:
    """Two-pass HMAC built stepwise from the pad construction."""
    if len(key) > 64:
        key = sha256_oracle(key)
    key = key + b"\x00" * (64 - len(key))
    inner = sha256_oracle(bytes(b ^ 0x36 for b in key) + message)
    return sha256_oracle(bytes(b ^ 0x5C for b in key) + inner)


def naive_pbkdf2(password: bytes, salt: bytes, iterations: int, dk_len: int) -> bytes:
    """Materialize U_1..U_c per block, XOR-reduce, concatenate, truncate."""
    blocks = []
    for i in range(1, -(-dk_len // 32) + 1):
        us = [hmac.new(password, salt + struct.pack(">L", i), hashlib.sha256).digest()]
        for _ in range(iterations - 1):
            us.append(hmac.new(password, us[-1], hashlib.sha256).digest())
        acc = [0] * 32
        for u in us:
            acc = [a ^ b for a, b in zip(acc, u)]
        blocks.append(bytes(acc))
    return b"".join(blocks)[:dk_len]


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def der_tlv_count(octets: bytes, tag: int | None = None) -> int:
    """Number of tag-length-value triples in a DER encoding, or of those whose
    first tag octet is ``tag``, read by a plain walk of the headers (no
    checks: the input is taken to be valid DER)."""
    count, pending = 0, [(0, len(octets))]
    while pending:
        pos, end = pending.pop()
        while pos < end:
            first = octets[pos]
            pos += 1
            if first & 0x1F == 0x1F:  # high tag number: skip its base-128 octets
                while octets[pos] & 0x80:
                    pos += 1
                pos += 1
            length = octets[pos]
            pos += 1
            if length & 0x80:
                size = length & 0x7F
                length = int.from_bytes(octets[pos:pos + size], "big")
                pos += size
            if first & 0x20:
                pending.append((pos, pos + length))
            count += tag is None or first == tag
            pos += length
    return count


def mgf1_oracle(seed: bytes, length: int,
                hash_fn=lambda data: hashlib.sha256(data).digest()) -> bytes:
    """RFC 8017 §B.2.1 MGF1: T = Hash(seed || C) for C = 0, 1, ... as four octets."""
    t, counter = b"", 0
    while len(t) < length:
        t += hash_fn(seed + struct.pack(">I", counter))
        counter += 1
    return t[:length]


def pss_verify_oracle(message: bytes, em: bytes, em_bits: int, s_len: int) -> bool:
    """RFC 8017 §9.1.2 EMSA-PSS-VERIFY with SHA-256 and MGF1-SHA-256, step by
    step: True for "consistent", False for "inconsistent"."""
    h_len = 32
    m_hash = hashlib.sha256(message).digest()                       # step 2
    em_len = (em_bits + 7) // 8
    if len(em) != em_len or em_len < h_len + s_len + 2:             # step 3
        return False
    if em[-1] != 0xBC:                                              # step 4
        return False
    masked_db, h = em[:em_len - h_len - 1], em[em_len - h_len - 1:-1]  # step 5
    zero_bits = 8 * em_len - em_bits
    if zero_bits and masked_db[0] >> (8 - zero_bits):               # step 6
        return False
    db_mask = mgf1_oracle(h, em_len - h_len - 1)                    # step 7
    db = bytearray(a ^ b for a, b in zip(masked_db, db_mask))       # step 8
    db[0] &= 0xFF >> zero_bits                                      # step 9
    ps_len = em_len - h_len - s_len - 2
    if any(db[:ps_len]) or db[ps_len] != 0x01:                      # step 10
        return False
    salt = bytes(db[len(db) - s_len:]) if s_len else b""            # step 11
    m_prime = bytes(8) + m_hash + salt                              # step 12
    return hashlib.sha256(m_prime).digest() == h                    # steps 13-14
