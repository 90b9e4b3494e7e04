import hashlib

import pytest

from pkcswb import pkcs1, rsa
from pkcswb.errors import DecryptionError
from pkcswb.pkcs1 import (EncodingError, MessageTooLong, ModulusTooSmall,
                          OaepParams, PssParams, SCHEME_OAEP, SCHEME_V15,
                          eme_v15_pad, eme_v15_unpad, i2osp, oaep_decode,
                          oaep_encode, os2ip, pss_encode, pss_salt_len_for,
                          pss_verify_encoding)
from pkcswb.primitives import SHA256, ConstantSource
from conftest import seeded, tiny_hash
from oracles import mgf1_oracle, pss_verify_oracle


def _error_shape(exc: BaseException):
    return type(exc), exc.args


# -- EME-PKCS1-v1_5 ------------------------------------------------------------


def test_v15_layout_constant_source():
    em = eme_v15_pad(b"\xab", 16, ConstantSource(0xFF))
    assert em == bytes.fromhex("0002") + b"\xff" * 12 + bytes.fromhex("00ab")


def test_v15_boundary_ps_is_exactly_eight():
    em = eme_v15_pad(b"m" * 5, 16, ConstantSource(0xFF))
    assert em[2:10] == b"\xff" * 8 and em[10] == 0


def test_v15_message_too_long():
    with pytest.raises(MessageTooLong):
        eme_v15_pad(b"m" * 6, 16, ConstantSource(0xFF))


def test_v15_ps_never_contains_zero():
    rng = seeded(b"zeros")
    for _ in range(50):
        em = eme_v15_pad(b"zz", 32, rng)
        ps = em[2:em.index(b"\x00", 2)]
        assert len(ps) == 32 - 3 - 2 and 0 not in ps


def test_v15_unpad_inverse():
    em = bytes.fromhex("0002") + b"\xff" * 12 + bytes.fromhex("00ab")
    assert eme_v15_unpad(em, 16) == b"\xab"


@pytest.mark.parametrize("em", [
    bytes.fromhex("0001") + b"\xff" * 12 + bytes.fromhex("00ab"),   # wrong type octet
    bytes.fromhex("0102") + b"\xff" * 12 + bytes.fromhex("00ab"),   # wrong lead octet
    bytes.fromhex("0002") + b"\xff" * 5 + b"\x00" + b"m" * 8,       # PS below 8
    bytes.fromhex("0002") + b"\xff" * 14,                            # no delimiter
])
def test_v15_unpad_failures_uniform(em):
    with pytest.raises(DecryptionError) as info:
        eme_v15_unpad(em, 16)
    with pytest.raises(DecryptionError) as other:
        eme_v15_unpad(b"\x00" * 16, 16)
    assert _error_shape(info.value) == _error_shape(other.value)


# -- EME-OAEP --------------------------------------------------------------------


def test_oaep_leading_octet_always_zero():
    params = OaepParams(128)
    rng = seeded(b"oaep-lead")
    for _ in range(20):
        assert oaep_encode(b"msg", params, rng)[0] == 0x00


def test_oaep_layout_with_stub_mgf(monkeypatch):
    # with an all-zero seed and a zero mask the plaintext structure shows through
    monkeypatch.setattr(pkcs1, "mgf", lambda seed, n, alg: bytes(n))
    params = OaepParams(64, tiny_hash(8), label=b"L")
    em = oaep_encode(b"msg", params, ConstantSource(0x00))
    lhash = tiny_hash(8).digest(b"L")
    pad = bytes(64 - 2 * 8 - 2 - 3)
    assert em == b"\x00" + bytes(8) + lhash + pad + b"\x01" + b"msg"


def test_oaep_round_trip_boundary_lengths():
    params = OaepParams(128)
    rng = seeded(b"oaep-rt")
    for length in (0, 1, params.max_message_len - 1, params.max_message_len):
        message = rng.read(length) if length else b""
        assert oaep_decode(oaep_encode(message, params, rng), params) == message


def test_oaep_message_too_long():
    params = OaepParams(128)
    with pytest.raises(MessageTooLong):
        oaep_encode(b"x" * (params.max_message_len + 1), params, seeded(b"r"))


def test_oaep_small_modulus_with_small_hash():
    params = OaepParams(32, tiny_hash(8))
    rng = seeded(b"small")
    em = oaep_encode(b"hi", params, rng)
    assert em[0] == 0 and len(em) == 32
    assert oaep_decode(em, params) == b"hi"


def test_oaep_single_octet_flips_all_fail_uniformly():
    params = OaepParams(64, tiny_hash(8))
    em = oaep_encode(b"msg", params, seeded(b"flip"))
    reference = None
    rng = seeded(b"choose")
    for _ in range(100):
        position = os2ip(rng.read(2)) % len(em)
        tampered = bytearray(em)
        tampered[position] ^= (rng.read(1)[0] % 255) + 1
        with pytest.raises(DecryptionError) as info:
            oaep_decode(bytes(tampered), params)
        if reference is None:
            reference = _error_shape(info.value)
        assert _error_shape(info.value) == reference


def test_oaep_wrong_label_fails():
    params = OaepParams(128, label=b"right")
    em = oaep_encode(b"msg", params, seeded(b"lbl"))
    with pytest.raises(DecryptionError):
        oaep_decode(em, OaepParams(128, label=b"wrong"))


# -- EMSA-PSS ---------------------------------------------------------------------


def test_pss_trailer_and_top_bits():
    for k, bits in ((32, 256), (64, 512), (128, 1024)):
        params = PssParams(k, bits, tiny_hash(8), salt_len=8)
        em = pss_encode(b"message", params, seeded(b"pss"))
        assert len(em) == k
        assert em[-1] == 0xBC
        assert em[0] & 0x80 == 0  # 8k - |n| + 1 = 1 cleared bit
        assert os2ip(em) < 1 << (bits - 1)
        assert pss_verify_encoding(b"message", em, params)


def test_pss_full_leading_octet_cleared():
    # |n| = 8k - 7 clears all eight leading bits
    params = PssParams(32, 249, tiny_hash(8), salt_len=0)
    em = pss_encode(b"m", params, seeded(b"clr"))
    assert em[0] == 0x00
    assert pss_verify_encoding(b"m", em, params)


def test_pss_salt_zero_deterministic():
    params = PssParams(64, 512, tiny_hash(8), salt_len=0)
    a = pss_encode(b"same", params, seeded(b"a"))
    b = pss_encode(b"same", params, seeded(b"b"))
    assert a == b


def test_pss_round_trip_hundred_messages():
    params = PssParams(128, 1024, salt_len=32)
    rng = seeded(b"pss-rt")
    for _ in range(100):
        message = rng.read(int(rng.read(1)[0]) % 50)
        em = pss_encode(message, params, rng)
        assert pss_verify_encoding(message, em, params)
        assert not pss_verify_encoding(message + b"!", em, params)


def test_pss_exhaustive_bit_flip_sweep_k32():
    params = PssParams(32, 256, tiny_hash(8), salt_len=8)
    em = pss_encode(b"bits", params, seeded(b"sweep"))
    for byte_index in range(32):
        for bit in range(8):
            tampered = bytearray(em)
            tampered[byte_index] ^= 1 << bit
            assert not pss_verify_encoding(b"bits", bytes(tampered), params)


def test_pss_bad_trailer_rejected():
    params = PssParams(32, 256, tiny_hash(8), salt_len=8)
    em = bytearray(pss_encode(b"m", params, seeded(b"t")))
    em[-1] = 0xBB
    assert not pss_verify_encoding(b"m", bytes(em), params)


def _crafted_em(message: bytes, salt: bytes, em_bits: int, *, db: bytes | None = None,
                top_bits: bool = False, trailer: int = 0xBC) -> bytes:
    """An EMSA-PSS encoding built from RFC 8017 §9.1.1 with the oracle's MGF1 and
    one defect at a time: another DB, the cleared top bits set, another trailer."""
    em_len = (em_bits + 7) // 8
    h = hashlib.sha256(bytes(8) + hashlib.sha256(message).digest() + salt).digest()
    if db is None:
        db = bytes(em_len - 32 - len(salt) - 2) + b"\x01" + salt
    masked_db = bytearray(a ^ b for a, b in zip(db, mgf1_oracle(h, em_len - 33)))
    zero_bits = 8 * em_len - em_bits
    masked_db[0] &= 0xFF >> zero_bits
    if top_bits:
        masked_db[0] |= 0xFF << (8 - zero_bits) & 0xFF
    return bytes(masked_db) + h + bytes([trailer])


_SALT = bytes(range(1, 33))


@pytest.mark.parametrize("modulus_bits", [1024, 2335])
@pytest.mark.parametrize("case, salt, accepted", [
    ("valid", _SALT, True),
    ("empty salt", b"", True),
    ("all-zero DB", _SALT, False),
    ("first non-zero DB octet is 0x02", _SALT, False),
    ("top bits set", _SALT, False),
    ("trailer 0xbd", _SALT, False),
    ("20-octet salt under sLen 32", _SALT[:20], False),
])
def test_pss_verify_agrees_with_the_rfc_verifier(modulus_bits, case, salt, accepted):
    s_len = 32 if case == "20-octet salt under sLen 32" else len(salt)
    em_bits = modulus_bits - 1
    db_len = (em_bits + 7) // 8 - 33
    db = {"all-zero DB": bytes(db_len),
          "first non-zero DB octet is 0x02": bytes(db_len - len(salt) - 1) + b"\x02" + salt}
    em = _crafted_em(b"message", salt, em_bits, db=db.get(case), top_bits=case == "top bits set",
                     trailer=0xBD if case == "trailer 0xbd" else 0xBC)
    params = PssParams((modulus_bits + 7) // 8, modulus_bits, salt_len=s_len)
    assert pss_verify_oracle(b"message", em, em_bits, s_len) is accepted
    assert pss_verify_encoding(b"message", em, params) is accepted


def test_pss_no_room_is_encoding_error():
    params = PssParams(64, 512, SHA256, salt_len=32)  # needs 64-32-1 >= 33
    with pytest.raises(EncodingError):
        pss_encode(b"m", params, seeded(b"x"))


# -- scheme layer -------------------------------------------------------------------


def test_encrypt_decrypt_identity_both_schemes(key_1024):
    public, private = key_1024
    rng = seeded(b"schemes")
    message = b"sixteen byte msg"
    for scheme in (SCHEME_V15, SCHEME_OAEP):
        ciphertext = pkcs1.encrypt(message, public, scheme, rng)
        assert pkcs1.decrypt(ciphertext, private, scheme) == message


def test_v15_works_at_512_bits(key_512):
    public, private = key_512
    ciphertext = pkcs1.encrypt(b"sixteen byte msg", public, SCHEME_V15, seeded(b"v"))
    assert pkcs1.decrypt(ciphertext, private, SCHEME_V15) == b"sixteen byte msg"


def test_boundary_message_lengths(key_1024):
    public, private = key_1024
    rng = seeded(b"bounds")
    k = public.modulus_octets
    limits = {SCHEME_V15: k - 11, SCHEME_OAEP: k - 2 * 32 - 3}
    for scheme, limit in limits.items():
        for length in (0, 1, limit - 1, limit):
            message = rng.read(length) if length else b""
            assert pkcs1.decrypt(pkcs1.encrypt(message, public, scheme, rng),
                                 private, scheme) == message
        with pytest.raises(MessageTooLong):
            pkcs1.encrypt(b"x" * (limit + 1), public, scheme, rng)


def test_toy_modulus_rejected():
    public, _ = rsa.key_from_primes((5, 11), 3)
    with pytest.raises(MessageTooLong):
        pkcs1.encrypt(b"x", public, SCHEME_V15, seeded(b"t"))


def test_ciphertext_out_of_range_is_uniform_error(key_1024):
    _, private = key_1024
    k = private.modulus_octets
    shapes = set()
    for bad in (i2osp(private.n, k), i2osp(private.n + 1, k), b"\xff" * k, b"\x00" * (k - 1)):
        with pytest.raises(DecryptionError) as info:
            pkcs1.decrypt(bad, private, SCHEME_OAEP)
        shapes.add(_error_shape(info.value))
    assert len(shapes) == 1


def test_sign_verify_round_trip(key_1024):
    public, private = key_1024
    rng = seeded(b"sig")
    signature = pkcs1.sign(b"document", private, rng)
    assert pkcs1.verify(b"document", signature, public)


def test_verify_rejects_wrong_message(key_1024):
    public, private = key_1024
    rng = seeded(b"sig2")
    for index in range(100):
        message = b"msg-%d" % index
        signature = pkcs1.sign(message, private, rng)
        assert not pkcs1.verify(message + b"?", signature, public)


def test_verify_rejects_out_of_range_signature(key_1024):
    public, _ = key_1024
    k = public.modulus_octets
    assert not pkcs1.verify(b"m", i2osp(public.n + 5, k), public)
    assert not pkcs1.verify(b"m", b"\x00", public)


def test_sign_salt_too_large_for_modulus(key_512):
    _, private = key_512
    with pytest.raises(ModulusTooSmall):
        pkcs1.sign(b"m", private, seeded(b"s"), PssParams(64, 512, salt_len=32))  # needs k >= 66


def test_sign_zero_salt_is_deterministic(key_1024):
    public, private = key_1024
    params = PssParams(128, 1024, salt_len=0)
    first = pkcs1.sign(b"stable", private, seeded(b"a"), params)
    second = pkcs1.sign(b"stable", private, seeded(b"b"), params)
    assert first == second
    assert pkcs1.verify(b"stable", first, public, params)


def test_sign_512_with_reduced_salt(key_512):
    public, private = key_512
    params = PssParams(64, 512, salt_len=30)  # min(32, 64 - 32 - 2)
    signature = pkcs1.sign(b"m", private, seeded(b"s"), params)
    assert pkcs1.verify(b"m", signature, public, params)
    # the default is the signer's own salt rule, so default params work too
    assert PssParams.for_key(private) == params
    assert pkcs1.verify(b"m", signature, public)
    assert signature == pkcs1.sign(b"m", private, seeded(b"s"))


def test_sign_and_verify_use_one_salt_rule(key_1024):
    public, private = key_1024
    assert [pss_salt_len_for(public), PssParams.for_key(private).salt_len] == [32, 32]
    signature = pkcs1.sign(b"m", private, seeded(b"s"), PssParams(128, 1024, salt_len=20))
    assert pkcs1.verify(b"m", signature, public, PssParams(128, 1024, salt_len=20))
    assert not pkcs1.verify(b"m", signature, public)  # sLen 20 is not the rule's 32


@pytest.mark.parametrize("bits, salt_len", [(513, 30), (514, 31), (520, 31), (521, 31),
                                             (529, 32)])
def test_default_salt_fits_every_modulus_size(bits, salt_len):
    # at |n| = 8k - 7 the leading octet of EM is all cleared bits, so emLen = k - 1
    public, private = rsa.generate_key(bits, 2, 65537, seeded(b"size%d" % bits))
    assert pss_salt_len_for(public) == salt_len
    assert pkcs1.verify(b"m", pkcs1.sign(b"m", private, seeded(b"s")), public)


def test_no_room_for_pss_signs_never_and_verifies_false():
    public, private = rsa.generate_key(200, 2, 65537, seeded(b"200"))
    assert PssParams.for_key(public).salt_len == 0
    with pytest.raises(ModulusTooSmall):
        pkcs1.sign(b"m", private, seeded(b"s"))
    assert not pkcs1.verify(b"m", bytes(25), public)
    assert not pkcs1.verify(b"m", i2osp(rsa.rsa_private_op(5, private), 25), public)


def test_os2ip_i2osp_fixed_width():
    assert i2osp(1, 4) == b"\x00\x00\x00\x01"
    assert os2ip(b"\x00\x00\x01\x00") == 256
    assert i2osp(os2ip(b"\x00\xab\xcd"), 3) == b"\x00\xab\xcd"


def test_xor_is_octet_wise_at_every_length():
    rng = seeded(b"xor")
    for length in range(301):
        a = bytes(2) + rng.read(length)[2:] if length > 2 else rng.read(length)
        b = rng.read(length)
        assert pkcs1._xor(a, b) == bytes(x ^ y for x, y in zip(a, b))
        assert len(pkcs1._xor(a, a)) == length


@pytest.mark.parametrize("k,em_len", [(128, 127), (128, 129), (64, 64)],
                         ids=["short", "long", "modulus-below-2-hlen-plus-2"])
def test_oaep_decode_refuses_an_em_of_the_wrong_length(k, em_len):
    with pytest.raises(DecryptionError):
        oaep_decode(bytes(em_len), OaepParams(k))
