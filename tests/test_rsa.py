import dataclasses
import math
import random

import pytest

from oracles import is_prime_by_trial_division
from pkcswb import rsa
from pkcswb.errors import BadParameter
from pkcswb.primitives import ConstantSource, ExhaustibleSource, RngExhausted, SeededSource
from conftest import seeded


# -- hand-computed key material ----------------------------------------------


def test_two_prime_toy_key():
    public, private = rsa.key_from_primes((5, 11), 3)
    # chi = lcm(4, 10) = 20 and 3 * 7 = 21 = 1 mod 20
    assert private.d == 7
    assert public.n == 55 and private.version == 0


def test_three_prime_toy_key():
    public, private = rsa.key_from_primes((3, 5, 7), 5)
    assert private.d == 5
    assert private.crt_exponents == (1, 1, 5)
    assert private.crt_coefficients == (1, 2, 1)   # t_1 = 1, 3*2 = 1 mod 5, 15 = 1 mod 7
    assert private.version == 1


def test_u_below_two_rejected():
    with pytest.raises(ValueError):
        rsa.key_from_primes((5,), 3)
    with pytest.raises(ValueError):
        rsa.generate_key(64, 1, 3, seeded(b"x"))


def test_bad_exponent_rejected():
    with pytest.raises(rsa.BadExponent):
        rsa.key_from_primes((5, 11), 5)  # gcd(5, 4) = 1 but gcd(5, 10) = 5


# -- raw operations -----------------------------------------------------------


def test_public_op_examples():
    public, _ = rsa.key_from_primes((5, 11), 3)
    assert rsa.rsa_public_op(2, public) == 8
    assert rsa.rsa_public_op(0, public) == 0
    assert rsa.rsa_public_op(1, public) == 1
    assert rsa.rsa_public_op(54, public) == 54  # (-1)^odd = -1


def test_private_op_examples():
    _, private = rsa.key_from_primes((5, 11), 3)
    assert rsa.rsa_private_op(8, private) == 2
    assert rsa.rsa_private_op(0, private) == 0


def test_range_errors():
    public, private = rsa.key_from_primes((5, 11), 3)
    with pytest.raises(rsa.MessageRepresentativeOutOfRange):
        rsa.rsa_public_op(55, public)
    with pytest.raises(rsa.MessageRepresentativeOutOfRange):
        rsa.rsa_public_op(-1, public)
    with pytest.raises(rsa.CiphertextRepresentativeOutOfRange):
        rsa.rsa_private_op(55, private)


def test_exhaustive_multiprime_identity():
    public, private = rsa.key_from_primes((3, 5, 7), 5)
    for m in range(105):
        assert rsa.rsa_private_op(rsa.rsa_public_op(m, public), private) == m


def test_crt_equals_naive_exponentiation():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    for c in range(105):
        assert rsa.rsa_private_op(c, private) == pow(c, private.d, private.n)


def test_round_trip_identities_generated_key(key_512):
    public, private = key_512
    rng = seeded(b"ids")
    for _ in range(100):
        m = int.from_bytes(rng.read(64), "big") % public.n
        assert rsa.rsa_private_op(rsa.rsa_public_op(m, public), private) == m
        assert rsa.rsa_public_op(rsa.rsa_private_op(m, private), public) == m


def test_private_key_invariants_checked():
    _, private = rsa.key_from_primes((5, 11), 3)
    with pytest.raises(rsa.InvalidKey):
        rsa.RsaPrivateKey(private.e, private.d + 1, private.primes)
    # d taken modulo phi(n) = 40 instead of lcm(4, 10) = 20 is the same key
    same = rsa.RsaPrivateKey(3, 27, (5, 11))
    assert (same.n, same.crt_exponents, same.crt_coefficients) == (
        private.n, private.crt_exponents, private.crt_coefficients)


@pytest.mark.parametrize("u", [2, 3])
def test_private_key_d_outside_one_to_n_is_invalid(toy_keys, u):
    # e*d = 1 mod lcm(r_i - 1) holds for both: only the range refuses them
    private = toy_keys[u][1]
    lam = math.lcm(*(r - 1 for r in private.primes))
    for d in (private.d - 3 * lam, private.d + (private.n // lam + 1) * lam):
        with pytest.raises(rsa.InvalidKey, match=r"\[1, n\)"):
            rsa.RsaPrivateKey(private.e, d, private.primes)


@pytest.mark.parametrize("primes,e", [((3, 5, 15), 3), ((9, 15), 3), ((5, 11), 5)])
def test_private_key_primes_must_be_coprime_to_each_other_and_e(primes, e):
    with pytest.raises(rsa.InvalidKey):
        rsa.RsaPrivateKey(e, 1, primes)
    with pytest.raises(rsa.InvalidKey):
        rsa.key_from_primes(primes, e)


def test_private_key_is_e_d_and_its_primes():
    # n, the version and the CRT triples are derived, never passed in
    assert [f.name for f in dataclasses.fields(rsa.RsaPrivateKey) if f.init] == [
        "e", "d", "primes"]


# -- prime generation ----------------------------------------------------------


def test_generate_prime_small_is_really_prime():
    for tag in (b"a", b"b", b"c", b"d"):
        p = rsa.generate_prime(8, seeded(b"prime8/" + tag))
        assert p >= 2**7
        assert all(p == q or p % q for q in range(2, 256) if q <= p)
        assert is_prime_by_trial_division(p)


@pytest.mark.parametrize("bits", [12, 16, 20])
def test_generate_prime_confirmed_by_trial_division(bits):
    for tag in (b"x", b"y", b"z"):
        p = rsa.generate_prime(bits, seeded(b"prime/%d/" % bits + tag))
        assert p.bit_length() == bits
        assert is_prime_by_trial_division(p)


def test_generate_prime_deterministic():
    assert rsa.generate_prime(16, seeded(b"det")) == rsa.generate_prime(16, seeded(b"det"))


def test_generate_prime_minimum_bits():
    with pytest.raises(ValueError):
        rsa.generate_prime(7, seeded(b"q"))


def test_generate_prime_exhausted_source():
    with pytest.raises(RngExhausted):
        rsa.generate_prime(16, ExhaustibleSource(b"\x00\x01"))


def _forced_candidate(octet: int, bits: int) -> int:
    # the one candidate generate_prime(bits, ConstantSource(octet)) proposes
    low = math.isqrt(2 ** (2 * bits - 1)) + 1  # ⌈√2·2^(bits−1)⌉
    x = int.from_bytes(bytes([octet]) * ((bits + 7) // 8 + 8), "big")
    return (low + x % (2**bits - low)) | 1


def test_duplicate_prime_detected():
    # constant 0x06 forces candidate 53381, which is prime, so the source
    # keeps proposing the same prime over and over
    assert _forced_candidate(0x06, 16) == 53381
    assert is_prime_by_trial_division(53381)
    with pytest.raises(rsa.DuplicatePrime):
        rsa.generate_key(32, 2, 65537, ConstantSource(0x06))


def test_non_prime_constant_source_trips_candidate_budget():
    assert _forced_candidate(0xC5, 16) == 53547 == 3 * 17849
    with pytest.raises(RngExhausted):
        rsa.generate_prime(16, ConstantSource(0xC5))


# -- the two trial-division stages ------------------------------------------------


class _CountingSource(SeededSource):
    def __init__(self, seed: bytes):
        super().__init__(seed)
        self.reads = []

    def read(self, n: int) -> bytes:
        self.reads.append(n)
        return super().read(n)


def _count_exponentiations(monkeypatch) -> list[int]:
    """Exponents of the modular exponentiations rsa runs from now on, bar squarings."""
    exponents = []

    def counting(base, exponent, modulus=None):
        if exponent != 2:
            exponents.append(exponent)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(rsa, "pow", counting, raising=False)
    return exponents


def test_stage_products_hold_the_primes_of_their_ranges():
    assert rsa._SMALL_PRIMES == {p for p in range(1000) if is_prime_by_trial_division(p)}
    assert rsa._SMALL_PRODUCT == math.prod(rsa._SMALL_PRIMES)
    second = [p for p in range(1000, 2**14) if is_prime_by_trial_division(p)]
    assert len(second) == 1732
    assert rsa._PRODUCT == math.prod(second)
    assert rsa._PRODUCT.bit_length() == 22072


def test_is_probable_prime_agrees_with_trial_division_below_2_16():
    # below 997^2 the answer is exact and no random octet is read
    empty = ExhaustibleSource(b"")
    for n in range(2**16):
        assert rsa._is_probable_prime(n, empty) == is_prime_by_trial_division(n), n


def test_is_probable_prime_agrees_with_trial_division_across_997_squared():
    # either side of where Miller-Rabin starts, and past 1009^2 and 1009 * 1013,
    # the least composites that the first stage passes
    rng = seeded(b"across 997^2")
    for n in range(997**2 - 2**10, 1009 * 1013 + 2**10):
        assert rsa._is_probable_prime(n, rng) == is_prime_by_trial_division(n), n


def test_factor_below_2_14_rejected_with_one_witness_and_no_exponentiation(monkeypatch):
    second = [p for p in rsa._primes_below(2**14) if p >= 1000]
    factors = [second[0], second[-1]] + random.Random(14).sample(second, 30)
    assert factors[:2] == [1009, 16381]
    cofactors = [rsa.generate_prime(bits, seeded(b"cofactor/%d" % bits)) for bits in (21, 64, 512)]
    assert all(r > 2**20 for r in cofactors)
    exponents = _count_exponentiations(monkeypatch)
    for q in factors:
        for r in cofactors:
            rng = _CountingSource(b"%d*%d" % (q, r))
            assert not rsa._is_probable_prime(q * r, rng)
            # the first witness is drawn, as Miller-Rabin alone would, and not used
            assert rng.reads == [((q * r).bit_length() + 7) // 8]
    assert exponents == []


# Generated before the second stage existed: a change to how the random
# stream is read would show here as other primes.
_STREAM_GUARD_PRIMES = (
    int("d788ba55a487d078be5fa970b90852ef477e6067294ee43f53001a4b0fb9e886"
        "7c147667c5597353b434b393ff297dbbc5684f8036c5bcddc1f581aa4d6d9b5b", 16),
    int("da4e20b46c4ed888c9fa446d0d8bc49d9eb83e261db79d5bbf82103f218c2982"
        "5bec3284181d7ce6060384ed9e4ccd697642fbcd45228417ceb3cb3dc2f4212b", 16),
)


def test_seeded_key_primes_are_pinned():
    _, private = rsa.generate_key(1024, 2, 65537, seeded(b"stream guard"))
    assert private.primes == _STREAM_GUARD_PRIMES


def test_seeded_prime_spends_a_pinned_count_of_exponentiations(monkeypatch):
    exponents = _count_exponentiations(monkeypatch)
    p = rsa.generate_prime(512, seeded(b"stream guard/512"))
    assert p == int("c6b141cb3aebefd31ac67a8db0053de0b17f531ed81df22a696177bf5b6c39cf"
                    "3a2ae58e441969ecb09163caa4e10383d5ca6f5489032a0b86b38a008b5eab67", 16)
    # 40 rounds on the prime and 9 first rounds on composites; Miller-Rabin
    # alone spent 51, two on composites with a factor in [1000, 2^14)
    assert len(exponents) == rsa.MILLER_RABIN_ROUNDS + 9 == 49


# -- key generation -------------------------------------------------------------


@pytest.mark.parametrize("bits,u", [(64, 2), (96, 3), (128, 4), (512, 2)])
def test_generate_key_shapes(bits, u):
    public, private = rsa.generate_key(bits, u, 65537, seeded(b"shape%d" % u))
    assert public.n.bit_length() == bits
    assert private.u == u
    assert private.version == (0 if u == 2 else 1)
    chi = math.lcm(*[r - 1 for r in private.primes])
    assert (private.e * private.d) % chi == 1


@pytest.mark.parametrize("u", range(2, 17))
def test_no_prime_is_thrown_away(u, monkeypatch):
    drawn = []
    real = rsa.generate_prime

    def counting(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(rsa, "generate_prime", counting)
    for modulus_bits in (16 * u + 7, 20 * u + u // 2, 24 * u):  # odd and even sizes
        drawn.clear()
        public, private = rsa.generate_key(modulus_bits, u, 65537,
                                           seeded(b"exact/%d/%d" % (u, modulus_bits)))
        assert public.n.bit_length() == modulus_bits
        base, extra = divmod(modulus_bits, u)
        assert [r.bit_length() for r in private.primes] == \
            [base + 1] * extra + [base] * (u - extra)
        # u primes drawn and kept; only a repeat or gcd(e, r - 1) != 1 is redrawn
        kept = [r for i, r in enumerate(drawn)
                if r not in drawn[:i] and math.gcd(65537, r - 1) == 1]
        assert tuple(kept) == private.primes


@pytest.mark.parametrize("bits", [8, 9, 16, 17, 512, 513])
@pytest.mark.parametrize("u", [2, 3, 5, 16])
def test_prime_floor_is_the_ceiling_of_the_u_th_root(bits, u):
    low = rsa._prime_floor(bits, u)
    target = 2 ** (u * bits - 1)
    assert (low - 1) ** u < target <= low ** u
    if u == 2:
        assert low == math.isqrt(target) + 1  # the FIPS 186-4 §B.3.1 √2 bound
    for tag in (b"a", b"b"):
        assert low <= rsa.generate_prime(bits, seeded(b"floor/%d/" % u + tag), u) < 2**bits


@pytest.mark.parametrize("bits,u,e", [
    (1024, rsa.MAX_PRIMES + 1, 65537),
    (rsa.MAX_MODULUS_BITS + 1, 2, 65537),
    (512, 2, (1 << rsa.MAX_EXPONENT_BITS) + 1),
])
def test_generate_key_refuses_a_key_over_the_reader_caps(bits, u, e):
    # refused before any random octet is read: the empty source is never touched
    with pytest.raises(BadParameter):
        rsa.generate_key(bits, u, e, ExhaustibleSource(b""))


def test_generate_key_determinism():
    a = rsa.generate_key(64, 2, 65537, seeded(b"same"))
    b = rsa.generate_key(64, 2, 65537, seeded(b"same"))
    assert a == b


# -- strength table --------------------------------------------------------------


_TABLE_ROWS = [
    (80, 1024, 2), (73, 1024, 3),
    (112, 2335, 3), (100, 2335, 4), (88, 2335, 5),
    (128, 3072, 3), (117, 3072, 4), (103, 3072, 5), (93, 3072, 6),
    (192, 7680, 4), (175, 7680, 5), (158, 7680, 6), (144, 7680, 7), (125, 7680, 9),
    (256, 15360, 5), (235, 15360, 6), (215, 15360, 7), (199, 15360, 8),
]


def test_strength_table_all_rows():
    assert len(rsa.STRENGTH_TABLE) == 18
    for strength, bits, u in _TABLE_ROWS:
        assert rsa.strength_lookup(bits, u) == strength


def test_strength_lookup_absent():
    assert rsa.strength_lookup(2048, 2) is None
    assert rsa.strength_lookup(1024, 4) is None


def test_nfs_estimate_monotone():
    assert rsa.nfs_advisory_estimate(2048) > rsa.nfs_advisory_estimate(1024)


def test_nfs_estimate_near_table_anchor():
    assert abs(rsa.nfs_advisory_estimate(1024) - 80) <= 10


def test_nfs_estimate_finite_positive():
    for bits in range(256, 16385, 512):
        value = rsa.nfs_advisory_estimate(bits)
        assert 0 < value < float("inf")
    with pytest.raises(ValueError):
        rsa.nfs_advisory_estimate(255)


def test_key_caps_hold_at_their_limits():
    rsa.check_key_caps(2**rsa.MAX_MODULUS_BITS - 1, 2**rsa.MAX_EXPONENT_BITS - 1,
                       rsa.MAX_PRIMES)
    for n, e, u in ((2**rsa.MAX_MODULUS_BITS, 3, 2),
                    (15, 2**rsa.MAX_EXPONENT_BITS, 2),
                    (15, 3, rsa.MAX_PRIMES + 1)):
        with pytest.raises(rsa.KeyTooLarge):
            rsa.check_key_caps(n, e, u)
    assert rsa.MAX_MODULUS_BITS > max(bits for bits, _ in rsa.STRENGTH_TABLE)
    assert rsa.MAX_PRIMES > max(u for _, u in rsa.STRENGTH_TABLE)


@pytest.mark.parametrize("e", [4, 65536])
def test_generate_key_refuses_an_even_exponent(e):
    with pytest.raises(BadParameter, match="odd"):
        rsa.generate_key(64, 2, e, ExhaustibleSource(b""))


def test_public_key_repr_names_e_and_the_modulus_size():
    # n in decimal would have 4933 digits, more than CPython prints (4300)
    public = rsa.RsaPublicKey(2**16383 + 1, 65537)
    assert repr(public) == "RsaPublicKey(e=65537, n=<16384 bits>)"
