"""Multiprime RSA: key material, prime generation, raw modular operations.

Keys are products of u >= 2 distinct primes of roughly equal size.  The
decryption exponent is taken modulo lcm(r_i - 1).  A private key is e, d and
its primes, from which it derives n and one (r_i, d_i, t_i) triple per prime,
as its PKCS #8 body holds them: d_i = d mod (r_i - 1), and t_i is the inverse
modulo r_i of the partial product R_i = r_1 * ... * r_{i-1}, so t_1 = 1 (R_1
is the empty product).  The private operation recombines the per-prime
exponentiations, its legs, with Garner's step, one loop over the triples.

The private operation checks its result s before it returns it: unless
s^e = c (mod n) it raises FaultDetected and releases nothing.  One wrong leg
would otherwise give a signature s for which gcd(s^e - m, n) is a factor of n
(the Bellcore attack: Boneh, DeMillo and Lipton, EUROCRYPT '97).  A key whose
"primes" are not all prime gives wrong results too, so ``pkcs1`` runs the
same check once on every key it reads; one check does not prove primality.

Two kinds of exponentiation are independent of each other: a private
operation's u legs, and the 40 random-witness Miller-Rabin rounds of a prime
candidate.  The last half of either runs in one forked worker process while
the caller computes the first half, when all of these hold: ``os.fork``
exists, the process may run on two or more CPUs, it has one thread when the
worker starts, and every modulus (a prime of the key, or the candidate) has
at least _LEG_BITS bits.  Otherwise, and whenever another thread holds the
worker, all of them run in-process.  The results are the same either way, and
key generation reads the same octets either way.  The worker starts at the
first exchange that may use it, serves only the process that forked it, and
is closed and reaped at exit, or when an import of this module that has been
discarded is collected.

Desk-scale keys are first class: nothing below enforces a minimum modulus
beyond arithmetic validity, so exhaustive sweeps over toy moduli stay cheap.
A key read from a file is held to maximum sizes instead (``check_key_caps``),
because its modulus, public exponent and prime count set the cost of the
work done with it, and key generation holds to the same caps, so it never
writes a key the readers refuse.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import os
import threading
import types
import weakref

from .errors import BadParameter, Frozen, PkcsError
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
    "FaultDetected",
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


class FaultDetected(PkcsError):
    """A private operation's result failed its check s^e = c (mod n): a leg
    went wrong, or the key's "primes" are not all prime.  Nothing is released."""

    exit_code = 1


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


class RsaPublicKey(Frozen):
    _fields = ("n", "e")

    def __init__(self, n: int, e: int):
        if n < 3:
            raise InvalidKey("modulus too small")
        if e < 3 or e % 2 == 0:
            raise InvalidKey("encryption exponent must be odd and >= 3")
        self.__dict__.update(n=n, e=e)

    def __repr__(self) -> str:
        # n in decimal can exceed the digits CPython prints (4300)
        return f"RsaPublicKey(e={self.e}, n=<{self.n.bit_length()} bits>)"

    @property
    def modulus_octets(self) -> int:
        return (self.n.bit_length() + 7) // 8


class RsaPrivateKey(Frozen):
    """Multiprime private key: e, d and the primes, checked, from which the
    constructor derives n and the CRT material once.

    ``primes``, ``crt_exponents`` and ``crt_coefficients`` are aligned: index
    j holds r_i, d_i = d mod (r_i - 1) and t_i = R_i^-1 mod r_i for prime
    i = j + 1, with R_i = r_1 * ... * r_{i-1}, so the first coefficient is 1.
    """

    _fields = ("e", "d", "primes", "n", "crt_exponents", "crt_coefficients")

    def __init__(self, e: int, d: int, primes: tuple[int, ...]):
        primes = tuple(primes)
        if len(primes) < 2:
            raise InvalidKey("at least two primes required")
        # before any arithmetic: a prime of 1 makes lcm(r_i - 1) zero
        if any(r < 3 or r % 2 == 0 for r in primes):
            raise InvalidKey("primes must be odd and >= 3")
        n = math.prod(primes)
        if math.lcm(*primes) != n:
            raise InvalidKey("primes must be distinct and pairwise coprime")
        chi = math.lcm(*[r - 1 for r in primes])
        if math.gcd(e, chi) != 1:
            raise BadExponent("gcd(e, r_i - 1) != 1 for some prime")
        # RFC 8017 §3.2: d is positive, and any d an encoder reduces is below n
        if not 0 < d < n:
            raise InvalidKey("d must lie in [1, n)")
        if e * d % chi != 1:
            raise InvalidKey("e*d != 1 modulo lcm(r_i - 1)")
        self.__dict__.update(e=e, d=d, primes=primes, n=n,
                             crt_exponents=tuple(d % (r - 1) for r in primes),
                             crt_coefficients=tuple(pow(math.prod(primes[:i]), -1, r)
                                                    for i, r in enumerate(primes)))

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

# Random-witness Miller-Rabin rounds per candidate that passes the three
# refusal steps of _is_probable_prime.
MILLER_RABIN_ROUNDS = 40


def _is_strong_probable_prime(a: int, n: int, d: int, s: int) -> bool:
    """One Miller-Rabin round: is n a strong probable prime to base a, where
    n - 1 = d * 2^s with d odd?"""
    return _squarings_pass(pow(a, d, n), n, s)


def _squarings_pass(x: int, n: int, s: int) -> bool:
    """The rest of a Miller-Rabin round once x = a^d mod n is known: x is 1
    or n - 1, or one of its s - 1 squarings is n - 1."""
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def _is_probable_prime(n: int, rng: RandomSource) -> bool:
    """Is n prime, to MILLER_RABIN_ROUNDS rounds with witnesses from rng?

    Exact below 997^2, where no octet is read.  Above it a candidate is
    refused by the first of three steps that finds it composite: the gcd with
    the primes below 1000, then, once the first witness is drawn, the gcd with
    the primes in [1000, 2^14) and a strong test to base 2.  A candidate that
    passes all three draws its other MILLER_RABIN_ROUNDS - 1 witnesses, in
    order, and must pass a round with each of the MILLER_RABIN_ROUNDS.  Their
    exponentiations go through _powers, the last half to the worker when it
    is free, and the squarings are finished here.  So the octets read depend
    on the candidate alone: none, one witness, or all of them.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < 997 ** 2:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    width = (n.bit_length() + 7) // 8

    def witness() -> int:
        return 2 + int.from_bytes(rng.read(width), "big") % (n - 3)

    witnesses = [witness()]
    # Both steps run after the first witness is drawn, and every witness is
    # drawn before any round runs, so a prime reads what Miller-Rabin alone
    # reads.  Here n >= 997^2 exceeds every prime of the product: a gcd
    # above 1 is a proper factor.
    if math.gcd(n, _PRODUCT) != 1 or not _is_strong_probable_prime(2, n, d, s):
        return False
    witnesses += [witness() for _ in range(MILLER_RABIN_ROUNDS - 1)]
    return all(_squarings_pass(x, n, s) for x in _powers([(a, d, n) for a in witnesses]))


def _prime_floor(bits: int, u: int) -> int:
    """⌈2^(bits − 1/u)⌉, the least m with m^u ≥ 2^(u·bits − 1).

    Integer Newton iteration for the u-th root, started above the root so it
    descends to ⌊root⌋.  generate_prime asks once per prime; at tens of
    microseconds against a key's hundreds of milliseconds, it needs no memo.
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
    modulo its width); each must pass MILLER_RABIN_ROUNDS rounds of
    Miller-Rabin, as _is_probable_prime runs them.

    A composite is refused by the first of three steps that finds it out: a
    gcd with the primes below 1000, before any witness is drawn; then, after
    the first witness is drawn and before its exponentiation, a gcd with the
    primes in [1000, 2^14), and a strong test to base 2.  Base 2 costs about
    0.8 of a random witness in CPython's windowed pow, whose table of odd
    powers 2, 2^3, ..., 2^31 then holds numbers of one or two digits.

    Each candidate reads its own octets, then no witness (refused by the
    first step), one (refused by the second or third) or all
    MILLER_RABIN_ROUNDS, before any of their rounds runs, wherever the rounds
    then run.  A prime reads its witnesses as Miller-Rabin alone does, so a
    seed gives the same primes as Miller-Rabin alone, on one CPU or two.  A
    composite that the second or third step refuses reads one witness, where
    Miller-Rabin alone may read more; one that passes them (a strong base-2
    pseudoprime with no factor below 2^14) reads all of them, where
    Miller-Rabin alone stops at the first that refuses it.
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
    """c^d mod n via per-prime exponentiation and CRT recombination, checked:
    FaultDetected unless the result s has s^e = c (mod n)."""
    if not 0 <= c < sk.n:
        raise CiphertextRepresentativeOutOfRange("ciphertext representative out of range")
    return _checked_crt(c, sk)


def _checked_crt(c: int, sk: RsaPrivateKey) -> int:
    """rsa_private_op for c in [0, n): the legs, through _powers, the Garner
    loop, then the check against the public exponent.  The check calls
    ``pow`` itself, not rsa_public_op, so the benchmark's tracer counts no
    public operation for it."""
    values = _powers([(c, d_i, r) for r, d_i in zip(sk.primes, sk.crt_exponents)])
    result, product = 0, 1
    for value, r, t_i in zip(values, sk.primes, sk.crt_coefficients):
        result += product * ((value - result) * t_i % r)
        product *= r
    if pow(result, sk.e, sk.n) != c:
        raise FaultDetected("the private operation failed its check")
    return result


# ---------------------------------------------------------------------------
# the exponentiation worker

# The least modulus size, in bits, that the worker takes: the crossover
# measured for private operations on two vCPUs with u = 2, where one took
# 121 µs with the worker against 115 in-process at 128-bit primes, and 181
# against 202 at 160.
_LEG_BITS = 160


def _powers(triples: list[tuple[int, int, int]]) -> list[int]:
    """pow(b, e, m) for each triple (b, e, m): the last half in the worker
    while the first half runs in-process, when _free_worker gives the worker;
    all in-process when it does not, and when the worker fails, which
    discards it."""
    worker = _free_worker(min(m for _, _, m in triples).bit_length())
    if worker is None:
        return [pow(b, e, m) for b, e, m in triples]
    kept = len(triples) - len(triples) // 2
    try:
        _send(worker.requests, list(itertools.chain.from_iterable(triples[kept:])))
        values = [pow(b, e, m) for b, e, m in triples[:kept]]
        values += _receive(worker.replies)
    except OSError:
        values = []
    except BaseException:  # a reply may be on its way: no later exchange may read it
        _discard(worker)
        raise
    if len(values) == len(triples):
        worker.lock.release()
        return values
    _discard(worker)  # the worker is gone: its half is done here
    return [pow(b, e, m) for b, e, m in triples]


class _Worker:
    """A forked process that answers each request b_1, e_1, m_1, b_2, ... with
    b_1^e_1 mod m_1, b_2^e_2 mod m_2, ... until its request pipe closes.
    ``lock`` admits one exchange at a time; a discarded worker keeps it held.
    A worker dropped unclosed, with the import of this module that held it,
    is closed and reaped then."""

    open = False  # until the fork succeeds

    def __init__(self):
        fds = []  # the request pipe's two ends, then the reply pipe's
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        requests, self.requests, self.replies, replies = fds
        self.lock = threading.Lock()
        if self.pid == 0:
            try:
                os.close(self.requests)
                os.close(self.replies)
                _serve(requests, replies)
            finally:
                os._exit(0)
        os.close(requests)
        os.close(replies)
        self.open = True

    def close(self, reap: bool = True) -> None:
        """Close both pipes, which ends the worker's loop, then reap it; only
        the first call acts.  A forked child passes ``reap=False``."""
        if not self.open:
            return
        self.open = False
        os.close(self.requests)
        os.close(self.replies)
        if reap:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:  # SIGCHLD ignored: the system reaped it
                pass

    __del__ = close


_worker: _Worker | None = None


def _free_worker(bits: int) -> _Worker | None:
    """The process's worker, started if there is none, locked for one exchange;
    None when the least modulus has ``bits`` < _LEG_BITS, when no worker can
    start (no ``os.fork``, one CPU, other threads, or a failed fork), and
    when another thread holds it."""
    global _worker
    if bits < _LEG_BITS:
        return None
    worker = _worker
    if worker is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if not hasattr(os, "fork") or cpus < 2 or threading.active_count() > 1:
            return None
        try:
            worker = _worker = _Worker()
        except OSError:
            return None
    return worker if worker.lock.acquire(blocking=False) else None


def _discard(worker: _Worker) -> None:
    """Drop a worker whose exchange failed, close it and reap it; its lock
    stays held, so a thread that still holds a reference to it never sends."""
    global _worker
    if _worker is worker:
        _worker = None
    worker.close()


def _stop_worker() -> None:
    """At exit: close and reap the worker, once an exchange that a daemon
    thread may still have in flight ends (waiting a second at most)."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.lock.acquire(timeout=1)
        worker.close()


def _forget_worker() -> None:
    """In a forked child: close the pipes of the parent's worker, which the
    child neither uses nor reaps, so the worker still ends when the parent
    closes them.  The child starts its own."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.close(reap=False)


def _call_if_alive(ref: weakref.ref) -> None:
    """Call the function ``ref`` refers to, unless it has been collected."""
    function = ref()
    if function is not None:
        function()


# atexit and os.register_at_fork keep their hooks to the end of the process.
# Each hook here is _call_if_alive rebuilt with empty globals, holding its
# function weakly, so no hook keeps an import of this module alive: one that
# is discarded for a fresh import is collected, and its worker closed and
# reaped with it.
_call_if_alive = types.FunctionType(_call_if_alive.__code__, {})
atexit.register(_call_if_alive, weakref.ref(_stop_worker))
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=functools.partial(_call_if_alive, weakref.ref(_forget_worker)))


def _serve(requests: int, replies: int) -> None:
    """The worker's loop: one reply per request, until end of file."""
    while request := _receive(requests):
        _send(replies, [pow(b, e, m) for b, e, m in zip(*[iter(request)] * 3)])


def _send(fd: int, values: list[int]) -> None:
    """One frame: its octet count, then each value as its octet count and
    its big-endian octets, all as 4-octet counts."""
    body = b"".join(len(octets).to_bytes(4, "big") + octets
                    for octets in (v.to_bytes((v.bit_length() + 7) // 8, "big")
                                   for v in values))
    view = memoryview(len(body).to_bytes(4, "big") + body)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int) -> list[int]:
    """The values of the next frame on ``fd``; none at end of file."""
    body = _read(fd, int.from_bytes(_read(fd, 4), "big"))
    values, i = [], 0
    while i < len(body):
        size = int.from_bytes(body[i:i + 4], "big")
        values.append(int.from_bytes(body[i + 4:i + 4 + size], "big"))
        i += 4 + size
    return values


def _read(fd: int, size: int) -> bytes:
    """``size`` octets from ``fd``, or none if it ends first."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return b""
        data += chunk
    return data


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
