import hashlib
import hmac

import pytest

from pkcswb import primitives
from oracles import hmac_sha256_oracle, mgf1_oracle, sha256_oracle
from pkcswb.errors import BadParameter, DecryptionError
from pkcswb.primitives import (SHA256, BadLength, ConstantSource,
                               ExhaustibleSource, RngExhausted, SeededSource,
                               SystemRandomSource,
                               aes128_decrypt_block, aes128_encrypt_block,
                               cbc_decrypt, cbc_encrypt, ct_equal,
                               hmac_digest, keyed_hmac, mgf)
from conftest import count_sha256_constructions, hmac_pads, seeded, tiny_hash


# -- hash -------------------------------------------------------------------


@pytest.mark.parametrize("message", [b"", b"abc", b"x" * 1000])
def test_sha256_matches_independent_implementation(message):
    assert SHA256.digest(message) == sha256_oracle(message)


def test_sha256_output_length():
    rng = seeded(b"hash-len")
    for n in (0, 1, 31, 32, 33, 500):
        assert len(SHA256.digest(rng.read(n))) == 32


def test_custom_hash_alg_digest():
    alg = tiny_hash(8)
    assert alg.digest(b"abc") == hashlib.sha256(b"abc").digest()[:8]
    assert alg.output_len == 8


# -- hmac -------------------------------------------------------------------


def test_hmac_empty_key_vs_stepwise_oracle():
    assert hmac_digest(b"", b"") == hmac_sha256_oracle(b"", b"")


def test_hmac_zero_block_key_coincides_with_empty_key():
    # both pad to the same 64-octet key, so the MACs must coincide
    message = b"the padded keys coincide"
    assert hmac_digest(b"\x00" * 64, message) == hmac_digest(b"", message)
    assert hmac_digest(b"\x00" * 64, message) == hmac_sha256_oracle(b"", message)


def test_hmac_long_key_prehash_and_lengths():
    rng = seeded(b"hmac")
    for key_len in (0, 5, 63, 64, 65, 200):
        key, message = rng.read(key_len), rng.read(37)
        assert hmac_digest(key, message) == hmac_sha256_oracle(key, message)
        assert len(hmac_digest(key, message)) == 32


# RFC 4231 §4, HMAC-SHA-256 of test cases 1-4, 6 and 7 (case 5 truncates the
# output).  Cases 6 and 7 share a 131-octet key, which is hashed first.
_RFC4231 = (
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131, b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being used by the "
     b"HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
)


@pytest.mark.parametrize("key, message, expected", _RFC4231)
def test_hmac_rfc4231_vectors(key, message, expected):
    assert hmac_digest(key, message).hex() == expected


def test_keyed_hmac_carries_no_state_between_messages():
    # one keyed MAC per key, each called on other messages between its checks
    macs = {key: keyed_hmac(key) for key, _, _ in _RFC4231}
    for key, message, expected in _RFC4231 + _RFC4231[::-1] + _RFC4231:
        for other_key, other_message, _ in _RFC4231:
            macs[other_key](other_message)
        assert macs[key](message).hex() == expected
        assert macs[key](message).hex() == expected


# -- MGF1 -------------------------------------------------------------------


def test_mgf_zero_length():
    assert mgf(b"seed", 0) == b""


def test_mgf_single_block():
    assert mgf(b"seed", 32) == hashlib.sha256(b"seed" + bytes(4)).digest()


def test_mgf_two_blocks():
    first = hashlib.sha256(b"seed" + bytes(4)).digest()
    second = hashlib.sha256(b"seed" + b"\x00\x00\x00\x01").digest()
    assert mgf(b"seed", 33) == first + second[:1]


def test_mgf_prefix_property():
    rng = seeded(b"mgf")
    for _ in range(20):
        seed = rng.read(16)
        a = int(rng.read(1)[0]) % 70
        b = int(rng.read(1)[0]) % 70
        assert mgf(seed, a) == mgf(seed, a + b)[:a]


@pytest.mark.parametrize("alg", [SHA256, tiny_hash(4)], ids=["sha256", "tiny"])
def test_mgf_refuses_a_mask_past_its_four_octet_counter(alg):
    # RFC 8017 §B.2.1 step 1: maskLen > 2^32 hLen is "mask too long", refused before a block
    with pytest.raises(ValueError, match="mask longer than the MGF can produce"):
        mgf(b"seed", (1 << 32) * alg.output_len + 1, alg)


def test_mgf_respects_custom_hash():
    alg = tiny_hash(4)
    assert mgf(b"s", 9, alg) == (alg.digest(b"s" + bytes(4))
                                 + alg.digest(b"s" + b"\x00\x00\x00\x01")
                                 + alg.digest(b"s" + b"\x00\x00\x00\x02")[:1])


# SHA-256 of the MGF1 outputs of lengths 0, 1, 31, 32, 33 and 259 from the seed
# b"mgf seed", joined, under each truncated hash (as the block-by-block loop gave them)
_MGF_OUTPUTS = {
    1: "3af4408e4f84eb6f46901213013ede5a5a1e9ffdd815711c8e414b7d36ab7ffa",
    20: "48682423689eb941353b267d5d4b46863469a03692480f8f7c6a5f2aa717ec6c",
    32: "908dc6b2337005738fa061888e8b44ce2b1d508b6cf76767369e4428c4b643b9",
}


@pytest.mark.parametrize("hash_len", sorted(_MGF_OUTPUTS))
def test_mgf_under_a_truncated_hash_matches_the_oracle_and_earlier_outputs(hash_len):
    alg = tiny_hash(hash_len)
    outputs = [mgf(b"mgf seed", n, alg) for n in (0, 1, 31, 32, 33, 259)]
    for out, n in zip(outputs, (0, 1, 31, 32, 33, 259)):
        assert out == mgf1_oracle(b"mgf seed", n, alg.raw)
    assert hashlib.sha256(b"".join(outputs)).hexdigest() == _MGF_OUTPUTS[hash_len]


# -- AES / CBC --------------------------------------------------------------


def _needs_cryptography():
    """Skip where the optional ``test`` extra (``pip install .[test]``) is absent."""
    pytest.importorskip("cryptography", reason="cryptography comes with the 'test' extra")


def _pyca_ecb(key, block, decrypt=False):
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    cipher = Cipher(algorithms.AES(key), modes.ECB())
    op = cipher.decryptor() if decrypt else cipher.encryptor()
    return op.update(block) + op.finalize()


def test_aes_block_against_independent_implementation():
    _needs_cryptography()
    rng = seeded(b"aes")
    for _ in range(50):
        key, block = rng.read(16), rng.read(16)
        ours = aes128_encrypt_block(key, block)
        assert ours == _pyca_ecb(key, block)
        assert aes128_decrypt_block(key, ours) == block
        assert _pyca_ecb(key, ours, decrypt=True) == block


def test_aes_key_must_be_16_octets():
    with pytest.raises(BadLength):
        aes128_encrypt_block(b"short", b"\x00" * 16)


@pytest.mark.parametrize("key_len, block_len", [(15, 16), (17, 16), (16, 15), (16, 17)])
@pytest.mark.parametrize("operation", [aes128_encrypt_block, aes128_decrypt_block])
def test_aes_block_and_key_lengths_are_checked_both_ways(operation, key_len, block_len):
    with pytest.raises(BadLength):
        operation(b"k" * key_len, b"b" * block_len)


# FIPS 197 Appendix C.1 (AES-128): key, plaintext, ciphertext
FIPS197_C1 = (bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
              bytes.fromhex("00112233445566778899aabbccddeeff"),
              bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"))

# NIST SP 800-38A F.2.1/F.2.2 (CBC-AES128): key, IV, four plaintext and ciphertext blocks
SP800_38A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_38A_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710")
SP800_38A_CIPHER = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d" "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516" "3ff1caa1681fac09120eca307586e1a7")


def test_aes_fips197_c1_block():
    key, plaintext, ciphertext = FIPS197_C1
    assert aes128_encrypt_block(key, plaintext) == ciphertext
    assert aes128_decrypt_block(key, ciphertext) == plaintext


def test_cbc_sp800_38a_vectors():
    key, iv = SP800_38A_KEY, SP800_38A_IV
    ciphertext = cbc_encrypt(key, iv, SP800_38A_PLAIN)
    assert ciphertext[:64] == SP800_38A_CIPHER  # F.2.1; a fifth block carries the padding
    assert cbc_decrypt(key, iv, ciphertext) == SP800_38A_PLAIN
    chain = iv + SP800_38A_CIPHER  # F.2.2, block by block
    for i in range(0, 64, 16):
        block = aes128_decrypt_block(key, chain[i + 16:i + 32])
        assert bytes(a ^ b for a, b in zip(block, chain[i:i + 16])) == SP800_38A_PLAIN[i:i + 16]


def test_known_answer_vectors_match_cryptography():
    _needs_cryptography()
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    key, plaintext, ciphertext = FIPS197_C1
    assert _pyca_ecb(key, plaintext) == ciphertext
    enc = Cipher(algorithms.AES(SP800_38A_KEY), modes.CBC(SP800_38A_IV)).encryptor()
    assert enc.update(SP800_38A_PLAIN) + enc.finalize() == SP800_38A_CIPHER


def _gf_mul(a, b):
    """a * b in GF(2^8): the carry-less product, reduced by x^8 + x^4 + x^3 + x + 1."""
    product = 0
    for bit in range(8):
        if b >> bit & 1:
            product ^= a << bit
    for bit in range(14, 7, -1):
        if product >> bit & 1:
            product ^= 0x11B << bit - 8
    return product


def _column_mix(column, coef):
    """MixColumns (coef 2 3 1 1) or InvMixColumns (coef 14 11 13 9) of one column."""
    return bytes(_gf_mul(column[r], coef[0]) ^ _gf_mul(column[(r + 1) % 4], coef[1])
                 ^ _gf_mul(column[(r + 2) % 4], coef[2]) ^ _gf_mul(column[(r + 3) % 4], coef[3])
                 for r in range(4))


@pytest.mark.parametrize("tables, box, coef", [
    (primitives._TE, primitives._SBOX, (2, 3, 1, 1)),
    (primitives._TD, primitives._INV_SBOX, (14, 11, 13, 9)),
])
def test_round_tables_are_mix_columns_of_the_sbox(tables, box, coef):
    for row, table in enumerate(tables):
        for x in range(256):
            column = [0, 0, 0, 0]
            column[row] = box[x]
            assert table[x].to_bytes(4, "big") == _column_mix(column, coef)


def test_cbc_derives_no_round_tables(monkeypatch):
    # the T-tables are derived once, at import
    calls = []
    derive = primitives._round_tables
    monkeypatch.setattr(primitives, "_round_tables",
                        lambda box, coef: calls.append(1) or derive(box, coef))
    key, iv = b"k" * 16, b"i" * 16
    ciphertext = cbc_encrypt(key, iv, bytes(4096))
    assert cbc_decrypt(key, iv, ciphertext) == bytes(4096)
    assert calls == []


def test_cbc_empty_plaintext_is_one_pad_block():
    key, iv = b"k" * 16, b"i" * 16
    ciphertext = cbc_encrypt(key, iv, b"")
    assert len(ciphertext) == 16
    assert aes128_decrypt_block(key, ciphertext) == bytes(
        a ^ b for a, b in zip(b"\x10" * 16, iv))


def test_cbc_full_block_gains_pad_block():
    key, iv = b"k" * 16, b"i" * 16
    assert len(cbc_encrypt(key, iv, b"p" * 16)) == 32


def test_cbc_round_trip_all_lengths():
    rng = seeded(b"cbc")
    key, iv = rng.read(16), rng.read(16)
    for n in range(101):
        message = rng.read(n)
        assert cbc_decrypt(key, iv, cbc_encrypt(key, iv, message)) == message


def test_cbc_matches_independent_implementation():
    _needs_cryptography()
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    rng = seeded(b"cbc2")
    for n in (0, 1, 15, 16, 17, 64):
        key, iv, message = rng.read(16), rng.read(16), rng.read(n)
        pad = 16 - n % 16
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        expected = enc.update(message + bytes([pad]) * pad) + enc.finalize()
        assert cbc_encrypt(key, iv, message) == expected


def test_cbc_bad_padding_is_uniform():
    key, iv = b"k" * 16, b"i" * 16
    seen = []
    for forged_tail in (b"\x00", b"\x11", b"\x05"):
        block = b"a" * (16 - len(forged_tail)) + forged_tail
        ciphertext = aes128_encrypt_block(key, bytes(a ^ b for a, b in zip(block, iv)))
        with pytest.raises(DecryptionError) as info:
            cbc_decrypt(key, iv, ciphertext)
        seen.append((type(info.value), info.value.args))
    assert len(set(seen)) == 1


def test_cbc_decrypt_returns_what_read_makes_of_the_plaintext():
    """A declared error from ``read`` is the uniform DecryptionError; a raw
    one is a programming error, and escapes as itself."""
    def refuse(plaintext):
        raise BadParameter("not a key body")

    key, iv = b"k" * 16, b"i" * 16
    ciphertext = cbc_encrypt(key, iv, b"attack at dawn")
    assert cbc_decrypt(key, iv, ciphertext, read=bytes.upper) == b"ATTACK AT DAWN"
    with pytest.raises(DecryptionError) as info:
        cbc_decrypt(key, iv, ciphertext, read=refuse)
    assert info.value.__cause__ is None
    with pytest.raises(ValueError) as raw:
        cbc_decrypt(key, iv, ciphertext, read=int)
    assert raw.type is ValueError


def test_cbc_expands_the_key_once_per_message(monkeypatch):
    calls = []
    expand = primitives._expand_key
    monkeypatch.setattr(primitives, "_expand_key", lambda key: calls.append(1) or expand(key))
    key, iv = b"k" * 16, b"i" * 16
    ciphertext = cbc_encrypt(key, iv, bytes(4096))
    assert len(calls) == 1  # one per block plus the pad block would be 257
    assert cbc_decrypt(key, iv, ciphertext) == bytes(4096)
    assert len(calls) == 2


def test_cbc_bad_length():
    with pytest.raises(DecryptionError):
        cbc_decrypt(b"k" * 16, b"i" * 16, b"x" * 17)
    with pytest.raises(DecryptionError):
        cbc_decrypt(b"k" * 16, b"i" * 16, b"")
    with pytest.raises(DecryptionError):
        cbc_decrypt(b"k" * 16, b"i" * 15, b"x" * 16)


# -- random sources ----------------------------------------------------------


def test_constant_source():
    assert ConstantSource(0xFF).read(5) == b"\xff" * 5


def test_seeded_source_is_reproducible():
    assert SeededSource(b"seed").read(1024) == SeededSource(b"seed").read(1024)
    assert SeededSource(b"seed").read(1024) != SeededSource(b"other").read(1024)


def test_seeded_source_matches_definition():
    # stream is HMAC(seed, counter) for counters 0, 1, 2, ...
    import hmac
    blocks = b"".join(
        hmac.new(b"seed", counter.to_bytes(4, "big"), hashlib.sha256).digest()
        for counter in range(3))
    assert SeededSource(b"seed").read(80) == blocks[:80]


@pytest.mark.parametrize("seed", [b"seed", bytes(range(100))])
def test_seeded_source_stream_across_uneven_reads(seed):
    # reads straddle block boundaries; 277 blocks, so the counter reaches two
    # octets; the second seed is longer than the 64-octet HMAC block
    sizes = (1, 31, 32, 33, 64, 72, 0, 95, 8192, 330)
    blocks = -(-sum(sizes) // 32)
    assert blocks > 256
    stream = b"".join(hmac.new(seed, counter.to_bytes(4, "big"), hashlib.sha256).digest()
                      for counter in range(blocks))
    source = SeededSource(seed)
    assert b"".join(source.read(n) for n in sizes) == stream[:sum(sizes)]


def test_seeded_source_hashes_the_seed_pads_once(monkeypatch):
    made = count_sha256_constructions(monkeypatch)
    SeededSource(b"seed").read(4096)
    assert made == hmac_pads(b"seed")


def test_exhaustible_source():
    source = ExhaustibleSource(b"abcd")
    assert source.read(3) == b"abc"
    with pytest.raises(RngExhausted):
        source.read(2)


SOURCES = {
    "SeededSource": lambda: SeededSource(b"seed"),
    "ConstantSource": ConstantSource,
    "ExhaustibleSource": lambda: ExhaustibleSource(bytes(range(32))),
    "SystemRandomSource": SystemRandomSource,
}


@pytest.mark.parametrize("name", list(SOURCES))
@pytest.mark.parametrize("count", [-1, -3])
def test_negative_read_count_is_refused_and_reads_nothing(name, count):
    source, twin = SOURCES[name](), SOURCES[name]()
    source.read(5)
    twin.read(5)
    with pytest.raises(BadParameter):
        source.read(count)
    # a deterministic source goes on with the octets its twin gives next
    after = source.read(7)
    assert len(after) == 7
    if name != "SystemRandomSource":
        assert after == twin.read(7)


def test_ct_equal():
    assert ct_equal(b"same", b"same")
    assert not ct_equal(b"same", b"diff")


@pytest.mark.parametrize("call", [
    lambda: ct_equal(5, bytes(5)), lambda: SHA256.digest(3), lambda: mgf(4, 10),
    lambda: keyed_hmac(3), lambda: hmac_digest(3, b"m"), lambda: SeededSource(4),
    lambda: ExhaustibleSource(5),
], ids=["ct_equal", "digest", "mgf", "keyed_hmac", "hmac_digest", "SeededSource",
        "ExhaustibleSource"])
def test_an_int_is_refused_not_read_as_that_many_zero_octets(call):
    # bytes(n) is n zero octets; the octets of a view are read where they lie
    with pytest.raises(TypeError):
        call()
    view = memoryview(b"xabc")[1:]
    assert SHA256.digest(view) == SHA256.digest(b"abc") and ct_equal(view, b"abc")
    assert hmac_digest(view, b"m") == hmac_digest(b"abc", b"m")
    assert SeededSource(view).read(40) == SeededSource(b"abc").read(40)
    assert ExhaustibleSource(view).read(3) == b"abc"


@pytest.mark.parametrize("iv_len", [0, 15, 17])
def test_cbc_encrypt_refuses_an_iv_that_is_not_16_octets(iv_len):
    with pytest.raises(BadLength):
        cbc_encrypt(bytes(16), bytes(iv_len), b"m")
