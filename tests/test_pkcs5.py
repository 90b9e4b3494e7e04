import hashlib
import hmac
import time

import pytest

from oracles import naive_pbkdf2
from pkcswb import oids
from pkcswb.asn1 import AlgorithmIdentifier
from pkcswb.errors import DecryptionError, MalformedKey, uniform_decryption
from pkcswb.pkcs5 import (MAX_ITERATIONS, DerivedKeyTooLong, Pbkdf2Params, TooManyIterations,
                          check_iterations, pbes2_algorithm, pbes2_decrypt, pbes2_encrypt,
                          pbes2_fields, pbkdf2, pbmac1_tag, pbmac1_verify)
from conftest import count_sha256_constructions, hmac_pads, seeded

PASSWORD = b"correct horse"
SALT = b"\x00" * 8


def test_single_iteration_single_block():
    derived = pbkdf2(PASSWORD, Pbkdf2Params(SALT, 1, 32))
    assert derived == hmac.new(PASSWORD, SALT + b"\x00\x00\x00\x01",
                               hashlib.sha256).digest()


def test_two_iterations_is_xor_of_terms():
    u1 = hmac.new(PASSWORD, SALT + b"\x00\x00\x00\x01", hashlib.sha256).digest()
    u2 = hmac.new(PASSWORD, u1, hashlib.sha256).digest()
    assert pbkdf2(PASSWORD, Pbkdf2Params(SALT, 2, 32)) == bytes(
        a ^ b for a, b in zip(u1, u2))


@pytest.mark.parametrize("iterations", [1, 2, 1000])
@pytest.mark.parametrize("dk_len", [31, 32, 69])
def test_matches_naive_oracle(iterations, dk_len):
    ours = pbkdf2(PASSWORD, Pbkdf2Params(SALT, iterations, dk_len))
    assert ours == naive_pbkdf2(PASSWORD, SALT, iterations, dk_len)


def test_matches_stdlib():
    for iterations, dk_len in ((1, 32), (77, 48), (1000, 69)):
        assert pbkdf2(PASSWORD, Pbkdf2Params(SALT, iterations, dk_len)) == \
            hashlib.pbkdf2_hmac("sha256", PASSWORD, SALT, iterations, dk_len)


@pytest.mark.parametrize("password_len", [0, 1, 63, 64, 65, 131])
def test_passwords_across_the_hmac_block_size(password_len):
    # a password longer than the 64-octet block is hashed to 32 octets first
    password = seeded(b"password").read(password_len)
    for iterations, dk_len in ((1, 32), (2, 69), (100, 32)):
        ours = pbkdf2(password, Pbkdf2Params(SALT, iterations, dk_len))
        assert ours == naive_pbkdf2(password, SALT, iterations, dk_len)
        assert ours == hashlib.pbkdf2_hmac("sha256", password, SALT, iterations, dk_len)


def test_derivation_hashes_the_password_pads_once(monkeypatch):
    made = count_sha256_constructions(monkeypatch)
    pbkdf2(PASSWORD, Pbkdf2Params(SALT, 1000, 69))
    assert made == hmac_pads(PASSWORD)


def test_prefix_property():
    long = pbkdf2(PASSWORD, Pbkdf2Params(SALT, 10, 100))
    for dk_len in (1, 31, 32, 33, 64, 99):
        assert pbkdf2(PASSWORD, Pbkdf2Params(SALT, 10, dk_len)) == long[:dk_len]


def test_any_input_perturbation_changes_key():
    rng = seeded(b"perturb")
    base = pbkdf2(PASSWORD, Pbkdf2Params(SALT, 7, 32))
    for _ in range(20):
        other_password = PASSWORD + rng.read(1)
        other_salt = SALT[:-1] + rng.read(1)
        assert pbkdf2(other_password, Pbkdf2Params(SALT, 7, 32)) != base
        if other_salt != SALT:
            assert pbkdf2(PASSWORD, Pbkdf2Params(other_salt, 7, 32)) != base
    assert pbkdf2(PASSWORD, Pbkdf2Params(SALT, 8, 32)) != base


def test_iteration_cost_scales_linearly():
    def median_time(iterations: int) -> float:
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            pbkdf2(PASSWORD, Pbkdf2Params(SALT, iterations, 32))
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]

    ratio = median_time(4000) / median_time(1000)
    assert 3.0 <= ratio <= 5.0, f"ratio {ratio:.2f} outside [3, 5]"


def test_param_validation():
    with pytest.raises(ValueError):
        Pbkdf2Params(b"", 1, 32)
    with pytest.raises(ValueError):
        Pbkdf2Params(SALT, 0, 32)
    with pytest.raises(TooManyIterations):  # so no derivation can cost more
        Pbkdf2Params(SALT, MAX_ITERATIONS + 1, 32)
    with pytest.raises(DerivedKeyTooLong):
        Pbkdf2Params(SALT, 1, (2**32 - 1) * 32 + 1)


def test_check_iterations_bounds():
    assert check_iterations(1) == 1
    assert check_iterations(MAX_ITERATIONS) == MAX_ITERATIONS
    for count in (0, -1):
        with pytest.raises(ValueError, match="not positive"):
            check_iterations(count)
    # 10**5000 has more digits than CPython prints (4300): its size is given
    for count in (MAX_ITERATIONS + 1, 10**5000):
        with pytest.raises(TooManyIterations, match=f"{count.bit_length()} bits"):
            check_iterations(count)


# -- PBES2 -------------------------------------------------------------------


def test_pbes2_round_trip():
    algorithm, ciphertext = pbes2_encrypt(b"attack at dawn", PASSWORD, SALT, 100,
                                          seeded(b"iv"))
    assert pbes2_decrypt(algorithm, ciphertext, PASSWORD) == b"attack at dawn"


def test_pbes2_wrong_password_fifty_trials():
    algorithm, ciphertext = pbes2_encrypt(b"attack at dawn", PASSWORD, SALT, 100,
                                          seeded(b"iv2"))
    for index in range(50):
        with pytest.raises(DecryptionError):
            pbes2_decrypt(algorithm, ciphertext, b"wrong-%04d" % index)


def test_pbes2_iteration_count_feeds_derivation():
    a, _ = pbes2_encrypt(b"m", PASSWORD, SALT, 1, seeded(b"same-iv"))
    b, _ = pbes2_encrypt(b"m", PASSWORD, SALT, 10000, seeded(b"same-iv"))
    key_a = pbkdf2(PASSWORD, Pbkdf2Params(SALT, pbes2_fields(a)[1], 16))
    key_b = pbkdf2(PASSWORD, Pbkdf2Params(SALT, pbes2_fields(b)[1], 16))
    assert key_a != key_b


def test_pbes2_params_self_describing():
    algorithm, ciphertext = pbes2_encrypt(b"payload", PASSWORD, b"othersalt", 123,
                                          seeded(b"iv3"))
    salt, iterations, iv = pbes2_fields(algorithm)
    assert salt == b"othersalt" and iterations == 123
    assert len(iv) == 16
    rebuilt = pbes2_algorithm(salt, iterations, iv)
    assert pbes2_decrypt(rebuilt, ciphertext, PASSWORD) == b"payload"


def test_pbes2_header_round_trip():
    rng = seeded(b"pbes2-header")
    for _ in range(20):
        salt = rng.read(1 + rng.read(1)[0] % 32)
        count = 1 + int.from_bytes(rng.read(3), "big") % MAX_ITERATIONS
        iv = rng.read(16)
        assert pbes2_fields(pbes2_algorithm(salt, count, iv)) == (salt, count, iv)


def test_pbes2_tampered_ciphertext_uniform_error():
    algorithm, ciphertext = pbes2_encrypt(b"payload", PASSWORD, SALT, 100, seeded(b"iv4"))
    shapes = set()
    for tampered in (ciphertext[:-1] + b"\x00", b"\x00" * len(ciphertext),
                     ciphertext[:16]):
        if tampered == ciphertext:
            continue
        with pytest.raises(DecryptionError) as info:
            pbes2_decrypt(algorithm, tampered, PASSWORD)
        shapes.add((type(info.value), info.value.args))
    assert len(shapes) == 1


# -- PBMAC1 -------------------------------------------------------------------


def test_pbmac1_round_trip():
    tag = pbmac1_tag(b"message", PASSWORD, SALT, 50)
    assert pbmac1_verify(b"message", tag, PASSWORD, SALT, 50)


def test_pbmac1_wrong_password_fifty_trials():
    tag = pbmac1_tag(b"message", PASSWORD, SALT, 50)
    for index in range(50):
        assert not pbmac1_verify(b"message", tag, b"nope-%04d" % index, SALT, 50)


def test_pbmac1_flipped_tag_bit():
    tag = bytearray(pbmac1_tag(b"message", PASSWORD, SALT, 50))
    tag[0] ^= 1
    assert not pbmac1_verify(b"message", bytes(tag), PASSWORD, SALT, 50)


def test_uniform_decryption_drops_the_cause():
    """A declared failure becomes the one cause-free DecryptionError; a
    programming error escapes as itself, so the totality tests can see it."""
    for failure in (MalformedKey("bad body"), TooManyIterations("count"), DecryptionError()):
        with pytest.raises(DecryptionError) as info:
            with uniform_decryption():
                raise failure
        assert info.value.args == ("decryption failed",)
        assert info.value.__cause__ is None
        assert info.value.__suppress_context__ or info.value is failure
    for failure in (ValueError("bad padding"), IndexError(0), AttributeError("x")):
        with pytest.raises(type(failure)) as info:
            with uniform_decryption():
                raise failure
        assert info.value is failure


@pytest.mark.parametrize("algorithm", [
    AlgorithmIdentifier(oids.PBES2),
    pbes2_algorithm(b"saltsalt", 1000, bytes(15)),
    pbes2_algorithm(b"saltsalt", 1000, bytes(17)),
], ids=["no-parameters", "iv-15", "iv-17"])
def test_pbes2_header_without_parameters_or_a_16_octet_iv_is_malformed(algorithm):
    with pytest.raises(MalformedKey):
        pbes2_fields(algorithm)
