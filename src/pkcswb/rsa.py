"""Multiprime RSA: key material, prime generation, raw modular operations.

Keys are products of u >= 2 distinct primes of roughly equal size.  The
decryption exponent is taken modulo lcm(r_i - 1).  A private key is e, d and
its primes, from which it derives n and one (r_i, d_i, t_i) triple per prime,
as its PKCS #8 body holds them: d_i = d mod (r_i - 1), and t_i is the inverse
modulo r_i of the partial product R_i = r_1 * ... * r_{i-1}, so t_1 = 1 (R_1
is the empty product).  The private operation recombines the per-prime
exponentiations with Garner's step, one loop over the triples.

Desk-scale keys are first class: nothing below enforces a minimum modulus
beyond arithmetic validity, so exhaustive sweeps over toy moduli stay cheap.
A key read from a file is held to maximum sizes instead (``check_key_caps``),
because its modulus, public exponent and prime count set the cost of the
work done with it, and key generation holds to the same caps, so it never
writes a key the readers refuse.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import BadParameter, PkcsError
from .primitives import RandomSource, RngExhausted

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "MessageRepresentativeOutOfRange",
    "CiphertextRepresentativeOutOfRange",
    "BadExponent",
    "DuplicatePrime",
    "InvalidKey",
    "KeyTooLarge",
    "MAX_MODULUS_BITS",
    "MAX_PRIMES",
    "MAX_EXPONENT_BITS",
    "MILLER_RABIN_ROUNDS",
    "check_key_caps",
    "generate_prime",
    "generate_key",
    "key_from_primes",
    "rsa_public_op",
    "rsa_private_op",
    "STRENGTH_TABLE",
    "strength_lookup",
    "nfs_advisory_estimate",
]


class MessageRepresentativeOutOfRange(PkcsError, ValueError):
    pass


class CiphertextRepresentativeOutOfRange(PkcsError, ValueError):
    pass


class DuplicatePrime(PkcsError, ValueError):
    """The source kept producing an already-used prime."""


class InvalidKey(PkcsError, ValueError):
    """Key material that is not a valid RSA key: the refusals of the key checks."""


class BadExponent(InvalidKey):
    """gcd(e, r_i - 1) != 1 for some prime: no d exists.  Key generation
    raises it when no prime it draws fits e within the retry budget."""


class KeyTooLarge(InvalidKey):
    """A key read from a file exceeds one of the size caps below."""


# Largest key accepted from a file.  The modulus cap sits above the 15360-bit
# top row of STRENGTH_TABLE and the prime cap above its largest u of 9; the
# public-exponent cap is the 256 bits of FIPS 186-4.
MAX_MODULUS_BITS = 16384
MAX_PRIMES = 16
MAX_EXPONENT_BITS = 256


def check_key_caps(n: int, e: int, u: int = 2) -> None:
    """Raise KeyTooLarge unless n, e and the prime count u are within the
    caps; called on a key read from a file, before the key is built."""
    if n.bit_length() > MAX_MODULUS_BITS:
        raise KeyTooLarge(f"modulus of {n.bit_length()} bits exceeds {MAX_MODULUS_BITS}")
    if e.bit_length() > MAX_EXPONENT_BITS:
        raise KeyTooLarge(f"public exponent of {e.bit_length()} bits exceeds {MAX_EXPONENT_BITS}")
    if u > MAX_PRIMES:
        raise KeyTooLarge(f"{u} primes exceed {MAX_PRIMES}")


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    def __post_init__(self):
        if self.n < 3:
            raise InvalidKey("modulus too small")
        if self.e < 3 or self.e % 2 == 0:
            raise InvalidKey("encryption exponent must be odd and >= 3")

    def __repr__(self) -> str:
        # n in decimal can exceed the digits CPython prints (4300)
        return f"RsaPublicKey(e={self.e}, n=<{self.n.bit_length()} bits>)"

    @property
    def modulus_octets(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaPrivateKey:
    """Multiprime private key: e, d and the primes, checked, from which the
    constructor derives n and the CRT material once.

    ``primes``, ``crt_exponents`` and ``crt_coefficients`` are aligned: index
    j holds r_i, d_i = d mod (r_i - 1) and t_i = R_i^-1 mod r_i for prime
    i = j + 1, with R_i = r_1 * ... * r_{i-1}, so the first coefficient is 1.
    """

    e: int
    d: int
    primes: tuple[int, ...]
    n: int = field(init=False)
    crt_exponents: tuple[int, ...] = field(init=False)
    crt_coefficients: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        primes = tuple(self.primes)
        if len(primes) < 2:
            raise InvalidKey("at least two primes required")
        # before any arithmetic: a prime of 1 makes lcm(r_i - 1) zero
        if any(r < 3 or r % 2 == 0 for r in primes):
            raise InvalidKey("primes must be odd and >= 3")
        n = math.prod(primes)
        if math.lcm(*primes) != n:
            raise InvalidKey("primes must be distinct and pairwise coprime")
        chi = math.lcm(*[r - 1 for r in primes])
        if math.gcd(self.e, chi) != 1:
            raise BadExponent("gcd(e, r_i - 1) != 1 for some prime")
        # RFC 8017 §3.2: d is positive, and any d an encoder reduces is below n
        if not 0 < self.d < n:
            raise InvalidKey("d must lie in [1, n)")
        if self.e * self.d % chi != 1:
            raise InvalidKey("e*d != 1 modulo lcm(r_i - 1)")
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "crt_exponents", tuple(self.d % (r - 1) for r in primes))
        object.__setattr__(self, "crt_coefficients", tuple(
            pow(math.prod(primes[:i]), -1, r) for i, r in enumerate(primes)))

    def __repr__(self) -> str:
        # d, the primes and the CRT values are secret: only public facts print
        return f"RsaPrivateKey(e={self.e}, n=<{self.n.bit_length()} bits>, u={self.u})"

    @property
    def u(self) -> int:
        return len(self.primes)

    @property
    def version(self) -> int:
        """The PKCS #8 body version: 0 for two primes, 1 for more."""
        return 0 if self.u == 2 else 1

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def modulus_octets(self) -> int:
        return (self.n.bit_length() + 7) // 8


# ---------------------------------------------------------------------------
# prime generation

def _primes_below(bound: int) -> list[int]:
    """The primes below ``bound``, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound, i)))
    return list(itertools.compress(range(bound), sieve))


def _product(factors: list[int]) -> int:
    """math.prod by halves, which multiplies big by big instead of big by
    small: half the time for the 1732 factors below."""
    if len(factors) <= 16:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


# The two trial-division stages of _is_probable_prime, each one gcd with a
# product of primes: those below 1000 (168 primes) and those in [1000, 2^14)
# (1732 primes, a 22 072-bit product).
_SMALL_PRIMES = frozenset(_primes_below(1000))
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_PRODUCT = _product(_primes_below(1 << 14)[len(_SMALL_PRIMES):])

# Miller-Rabin rounds per candidate that passes trial division.
MILLER_RABIN_ROUNDS = 40


def _is_probable_prime(n: int, rng: RandomSource) -> bool:
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < 997 ** 2:
        return True
    # Miller-Rabin with witnesses drawn from the supplied source
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    width = (n.bit_length() + 7) // 8
    for i in range(MILLER_RABIN_ROUNDS):
        a = 2 + int.from_bytes(rng.read(width), "big") % (n - 3)
        # The second stage runs after the first witness is drawn, so the
        # source is read exactly as by Miller-Rabin alone.  Here n >= 997^2
        # exceeds every prime of the product: a gcd above 1 is a proper factor.
        if i == 0 and math.gcd(n, _PRODUCT) != 1:
            return False
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=64)
def _prime_floor(bits: int, u: int) -> int:
    """⌈2^(bits − 1/u)⌉, the least m with m^u ≥ 2^(u·bits − 1).

    Integer Newton iteration for the u-th root, started above the root so it
    descends to ⌊root⌋.  Cached: generate_key asks once per prime for at most
    two sizes.
    """
    target = 1 << (u * bits - 1)
    m = 1 << bits
    while True:
        below = ((u - 1) * m + target // m ** (u - 1)) // u
        if below >= m:
            break
        m = below
    return m if m ** u >= target else m + 1


def generate_prime(bits: int, rng: RandomSource, u: int = 2) -> int:
    """Probable prime in [⌈2^(bits − 1/u)⌉, 2^bits − 1] for a u-prime key.

    The floor generalises the FIPS 186-4 §B.3.1 rule p ≥ √2·2^(bits−1) (the
    case u = 2): the product of u primes so drawn, of sizes b_1 … b_u, is at
    least 2^(Σb_i − 1) and below 2^Σb_i, so it has exactly Σb_i bits and no
    prime is ever thrown away for a short modulus.  Candidates are odd and
    drawn almost uniformly from the range (64 spare random bits reduced
    modulo its width); each must pass trial division and
    MILLER_RABIN_ROUNDS rounds of Miller-Rabin.

    Trial division has two stages, each one gcd with a product of primes.
    The primes below 1000 are tried before any witness is drawn.  The primes
    in [1000, 2^14) are tried after the first witness is drawn and before
    its exponentiation: the source is then read exactly as by Miller-Rabin
    alone, so a seed gives the same primes as without the stage, and about
    a third of the composites that reach Miller-Rabin are rejected by the
    gcd instead of a modular exponentiation.
    """
    if bits < 8:
        raise BadParameter("need at least 8 bits")
    low = _prime_floor(bits, u)
    span = (1 << bits) - low
    width = (bits + 7) // 8 + 8
    # expected candidates ~ bits * ln(2) / 2; the budget only trips for
    # degenerate sources that keep proposing the same composite
    for _ in range(200 * bits):
        candidate = (low + int.from_bytes(rng.read(width), "big") % span) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise RngExhausted("source never produced a prime candidate")


def key_from_primes(primes, e: int) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Build a key pair from explicitly chosen distinct odd primes."""
    primes = tuple(primes)
    try:
        d = pow(e, -1, math.lcm(*[r - 1 for r in primes]))
    except ValueError:  # no inverse: the constructor names the reason
        d = 0
    private = RsaPrivateKey(e, d, primes)
    return private.public_key, private


def generate_key(modulus_bits: int, u: int, e: int,
                 rng: RandomSource) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate a u-prime key with a modulus of exactly `modulus_bits` bits.

    Every prime is drawn above the floor of generate_prime, so the first u
    primes kept always reach the size; a prime is redrawn only when
    gcd(e, r - 1) != 1 or it repeats an earlier one.
    """
    if u < 2:
        raise BadParameter("u must be at least 2")
    if modulus_bits // u < 16:
        raise BadParameter("primes would fall below 16 bits")
    if e < 3 or e % 2 == 0:
        raise BadParameter("encryption exponent must be odd and >= 3")
    if modulus_bits > MAX_MODULUS_BITS or u > MAX_PRIMES or e.bit_length() > MAX_EXPONENT_BITS:
        raise BadParameter(f"{modulus_bits} bits, {u} primes or a {e.bit_length()}-bit e exceed "
                           f"the caps of {MAX_MODULUS_BITS}, {MAX_PRIMES} and {MAX_EXPONENT_BITS}")
    base, extra = divmod(modulus_bits, u)
    primes: list[int] = []
    for bits in [base + 1] * extra + [base] * (u - extra):
        for attempt in range(200):
            r = generate_prime(bits, rng, u)
            if math.gcd(e, r - 1) != 1:
                if attempt == 199:
                    raise BadExponent("could not find a prime with gcd(e, r-1) = 1")
                continue
            if r in primes:
                if attempt == 199:
                    raise DuplicatePrime("prime source keeps repeating itself")
                continue
            primes.append(r)
            break
    return key_from_primes(primes, e)


# ---------------------------------------------------------------------------
# raw operations


def rsa_public_op(m: int, pk: RsaPublicKey) -> int:
    """m^e mod n for a message representative m in [0, n)."""
    if not 0 <= m < pk.n:
        raise MessageRepresentativeOutOfRange("message representative out of range")
    return pow(m, pk.e, pk.n)


def rsa_private_op(c: int, sk: RsaPrivateKey) -> int:
    """c^d mod n via per-prime exponentiation and CRT recombination."""
    if not 0 <= c < sk.n:
        raise CiphertextRepresentativeOutOfRange("ciphertext representative out of range")
    result, product = 0, 1
    for r, d_i, t_i in zip(sk.primes, sk.crt_exponents, sk.crt_coefficients):
        result += product * ((pow(c, d_i, r) - result) * t_i % r)
        product *= r
    return result


# ---------------------------------------------------------------------------
# strength data

# Symmetric-equivalent strength of multiprime moduli under an NFS-factoring
# attacker, keyed by (modulus bits, prime count).  Opaque data; no
# interpolation is offered.
STRENGTH_TABLE: dict[tuple[int, int], int] = {
    (1024, 2): 80,
    (1024, 3): 73,
    (2335, 3): 112,
    (2335, 4): 100,
    (2335, 5): 88,
    (3072, 3): 128,
    (3072, 4): 117,
    (3072, 5): 103,
    (3072, 6): 93,
    (7680, 4): 192,
    (7680, 5): 175,
    (7680, 6): 158,
    (7680, 7): 144,
    (7680, 9): 125,
    (15360, 5): 256,
    (15360, 6): 235,
    (15360, 7): 215,
    (15360, 8): 199,
}


def strength_lookup(modulus_bits: int, u: int) -> int | None:
    """Exact table row, or None when the combination is not tabulated."""
    return STRENGTH_TABLE.get((modulus_bits, u))


def nfs_advisory_estimate(modulus_bits: int) -> float:
    """log2 of the NFS work factor L[1/3, (64/9)^(1/3)] at a 2^bits modulus.

    Advisory only: the asymptotic formula is not calibrated against the
    strength table and can sit several bits away from the tabulated rows.
    """
    if modulus_bits < 256:
        raise BadParameter("estimate is meaningless below 256 bits")
    ln_n = modulus_bits * math.log(2)
    work = (64 / 9) ** (1 / 3) * ln_n ** (1 / 3) * math.log(ln_n) ** (2 / 3)
    return work / math.log(2)
