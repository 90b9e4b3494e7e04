import hashlib

import pytest

from pkcswb import pkcs1, rsa
from pkcswb.errors import DecryptionError
from pkcswb.pkcs1 import (MessageTooLong, ModulusTooSmall,
                          OaepParams, PssParams, SCHEME_OAEP, SCHEME_V15,
                          eme_v15_pad, eme_v15_unpad, i2osp, oaep_decode,
                          oaep_encode, os2ip, pss_encode, pss_salt_len_for,
                          pss_verify_encoding)
from pkcswb.primitives import SHA256, ConstantSource, ExhaustibleSource, RngExhausted
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


def test_v15_pad_ends_on_a_source_of_zeros(key_512):
    public, _ = key_512
    with pytest.raises(RngExhausted):
        pkcs1.encrypt(b"m", public, SCHEME_V15, ConstantSource(0x00))


class _ZerosFirst(ConstantSource):
    """All zeros on the first read, then 0x5a octets; records each read's size."""

    def __init__(self):
        super().__init__(0x5A)
        self.reads = []

    def read(self, n):
        self.reads.append(n)
        return bytes(n) if len(self.reads) == 1 else super().read(n)


def test_v15_pad_draws_again_after_a_read_of_zeros():
    rng = _ZerosFirst()
    em = eme_v15_pad(b"zz", 32, rng)
    assert em == b"\x00\x02" + b"\x5a" * 27 + b"\x00zz"
    assert rng.reads == [27, 27]


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
        params = PssParams(bits, tiny_hash(8), salt_len=8)
        em = pss_encode(b"message", params, seeded(b"pss"))
        assert len(em) == k
        assert em[-1] == 0xBC
        assert em[0] & 0x80 == 0  # 8k - |n| + 1 = 1 cleared bit
        assert os2ip(em) < 1 << (bits - 1)
        assert pss_verify_encoding(b"message", em, params)


def test_pss_full_leading_octet_cleared():
    # |n| = 8k - 7 clears all eight leading bits
    params = PssParams(249, tiny_hash(8), salt_len=0)
    em = pss_encode(b"m", params, seeded(b"clr"))
    assert em[0] == 0x00
    assert pss_verify_encoding(b"m", em, params)


def test_pss_salt_zero_deterministic():
    params = PssParams(512, tiny_hash(8), salt_len=0)
    a = pss_encode(b"same", params, seeded(b"a"))
    b = pss_encode(b"same", params, seeded(b"b"))
    assert a == b


def test_pss_round_trip_hundred_messages():
    params = PssParams(1024, salt_len=32)
    rng = seeded(b"pss-rt")
    for _ in range(100):
        message = rng.read(int(rng.read(1)[0]) % 50)
        em = pss_encode(message, params, rng)
        assert pss_verify_encoding(message, em, params)
        assert not pss_verify_encoding(message + b"!", em, params)


@pytest.mark.parametrize("modulus_bits", [256, 249])  # 249 = 8k - 7 clears the first octet
def test_pss_exhaustive_bit_flip_sweep_k32(modulus_bits):
    params = PssParams(modulus_bits, tiny_hash(8), salt_len=8)
    em = pss_encode(b"bits", params, seeded(b"sweep"))
    for byte_index in range(32):
        for bit in range(8):
            tampered = bytearray(em)
            tampered[byte_index] ^= 1 << bit
            assert not pss_verify_encoding(b"bits", bytes(tampered), params)


def test_pss_bad_trailer_rejected():
    params = PssParams(256, tiny_hash(8), salt_len=8)
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
    params = PssParams(modulus_bits, salt_len=s_len)
    assert pss_verify_oracle(b"message", em, em_bits, s_len) is accepted
    assert pss_verify_encoding(b"message", em, params) is accepted


@pytest.mark.parametrize("modulus_bits", [1025, 2329])  # 8k - 7: emLen is k - 1
def test_pss_where_em_is_an_octet_shorter_than_k_is_the_rfc_encoding(modulus_bits):
    params = PssParams(modulus_bits, salt_len=32)
    em = pss_encode(b"message", params, seeded(b"short em"))
    assert em[0] == 0 and pss_verify_oracle(b"message", em[1:], modulus_bits - 1, 32)
    crafted = _crafted_em(b"message", _SALT, modulus_bits - 1)
    assert pss_verify_encoding(b"message", b"\x00" + crafted, params)


def test_pss_no_room_is_modulus_too_small_before_any_draw():
    # the one builder refuses for pss_encode and sign alike, drawing no salt
    params = PssParams(512, SHA256, salt_len=32)  # needs 64-32-1 >= 33
    with pytest.raises(ModulusTooSmall):
        pss_encode(b"m", params, ExhaustibleSource(b""))


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
    limits = {SCHEME_V15: k - 11, SCHEME_OAEP: k - 2 * 32 - 2}  # RFC 8017 §7.2.1, §7.1.1
    for scheme, limit in limits.items():
        for length in (0, 1, limit - 1, limit):
            message = rng.read(length) if length else b""
            assert pkcs1.decrypt(pkcs1.encrypt(message, public, scheme, rng),
                                 private, scheme) == message
        with pytest.raises(MessageTooLong):
            pkcs1.encrypt(b"x" * (limit + 1), public, scheme, rng)


def _pyca():
    """``cryptography``'s RSA, hashes and padding modules, where the optional
    ``test`` extra (``pip install .[test]``) is installed."""
    pytest.importorskip("cryptography", reason="cryptography comes with the 'test' extra")
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding, rsa as pyca_rsa
    return pyca_rsa, hashes, padding


def _pyca_private(pyca_rsa, private):
    """The ``cryptography`` key of a two-prime key."""
    p, q = private.primes
    return pyca_rsa.RSAPrivateNumbers(
        p, q, private.d, private.d % (p - 1), private.d % (q - 1), pow(q, -1, p),
        pyca_rsa.RSAPublicNumbers(private.e, private.n)).private_key()


def test_oaep_bound_agrees_with_cryptography(key_1024):
    pyca_rsa, hashes, padding = _pyca()
    public, private = key_1024
    theirs = _pyca_private(pyca_rsa, private)
    oaep = padding.OAEP(padding.MGF1(hashes.SHA256()), hashes.SHA256(), None)
    assert OaepParams(128).max_message_len == 62
    message = seeded(b"oaep 62").read(62)
    assert theirs.decrypt(pkcs1.encrypt(message, public, SCHEME_OAEP, seeded(b"r")),
                          oaep) == message
    assert pkcs1.decrypt(theirs.public_key().encrypt(message, oaep), private,
                         SCHEME_OAEP) == message
    with pytest.raises(MessageTooLong):
        pkcs1.encrypt(message + b"!", public, SCHEME_OAEP, seeded(b"r"))
    with pytest.raises(ValueError):
        theirs.public_key().encrypt(message + b"!", oaep)


def test_pss_signatures_agree_with_cryptography(key_1024):
    pyca_rsa, hashes, padding = _pyca()
    pss = padding.PSS(padding.MGF1(hashes.SHA256()), 32)
    # 1025 = 8k - 7 bits: EM is an octet shorter than the modulus
    for public, private in (key_1024, rsa.generate_key(1025, 2, 65537, seeded(b"1025"))):
        theirs = _pyca_private(pyca_rsa, private)
        signature = pkcs1.sign(b"m", private, seeded(b"s"))
        theirs.public_key().verify(signature, b"m", pss, hashes.SHA256())  # raises if refused
        assert pkcs1.verify(b"m", theirs.sign(b"m", pss, hashes.SHA256()), public)


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


@pytest.mark.parametrize("path", ["v1_5", "oaep", "enveloped-data"])
def test_a_faulty_private_operation_is_the_uniform_decryption_error(key_1024, path, monkeypatch):
    from pkcswb import cms
    public, private = key_1024
    ciphertexts = {
        "v1_5": lambda: pkcs1.encrypt(b"m", public, SCHEME_V15, seeded(b"f")),
        "oaep": lambda: pkcs1.encrypt(b"m", public, SCHEME_OAEP, seeded(b"f")),
        "enveloped-data": lambda: cms.envelope(cms.make_data(b"m"), public, seeded(b"f")),
    }
    opens = {
        "v1_5": lambda sealed: pkcs1.decrypt(sealed, private, SCHEME_V15),
        "oaep": lambda sealed: pkcs1.decrypt(sealed, private, SCHEME_OAEP),
        "enveloped-data": lambda sealed: cms.open_envelope(sealed, private),
    }
    sealed = ciphertexts[path]()
    assert opens[path](sealed)
    real_pow = pow  # the first leg is always exponentiated in-process
    monkeypatch.setattr(rsa, "pow", lambda base, exponent, modulus=None: real_pow(
        base, exponent, modulus) + (modulus == private.primes[0]), raising=False)
    with pytest.raises(DecryptionError) as info:
        opens[path](sealed)
    assert _error_shape(info.value) == (DecryptionError, ("decryption failed",))
    assert info.value.__cause__ is None and info.value.__suppress_context__


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


def _sign_off_rule(message, sk, params, rng):
    """An RSASSA-PSS signature under ``params``, which sign itself never takes."""
    return i2osp(rsa.rsa_private_op(os2ip(pss_encode(message, params, rng)), sk), params.k)


def test_sign_zero_salt_is_deterministic(key_1024):
    public, private = key_1024
    params = PssParams(1024, salt_len=0)
    first = _sign_off_rule(b"stable", private, params, seeded(b"a"))
    second = _sign_off_rule(b"stable", private, params, seeded(b"b"))
    assert first == second
    assert pkcs1.verify(b"stable", first, public, params)


def test_sign_512_with_reduced_salt(key_512):
    public, private = key_512
    params = PssParams(512, salt_len=30)  # min(32, 64 - 32 - 2)
    signature = pkcs1.sign(b"m", private, seeded(b"s"))
    assert pkcs1.verify(b"m", signature, public, params)
    # the default is the signer's own salt rule, so default params work too
    assert PssParams.for_key(private) == params
    assert pkcs1.verify(b"m", signature, public)
    assert signature == pkcs1.sign(b"m", private, seeded(b"s"))


def test_sign_and_verify_use_one_salt_rule(key_1024):
    public, private = key_1024
    assert [pss_salt_len_for(public), PssParams.for_key(private).salt_len] == [32, 32]
    signature = _sign_off_rule(b"m", private, PssParams(1024, salt_len=20), seeded(b"s"))
    assert pkcs1.verify(b"m", signature, public, PssParams(1024, salt_len=20))
    assert not pkcs1.verify(b"m", signature, public)  # sLen 20 is not the rule's 32


@pytest.mark.parametrize("bits, salt_len", [(513, 30), (514, 31), (520, 31), (521, 31),
                                             (529, 32)])
def test_default_salt_fits_every_modulus_size(bits, salt_len):
    # at |n| = 8k - 7 the leading octet of EM is all cleared bits, so emLen = k - 1
    public, private = rsa.generate_key(bits, 2, 65537, seeded(b"size%d" % bits))
    assert pss_salt_len_for(public) == salt_len
    assert pkcs1.verify(b"m", pkcs1.sign(b"m", private, seeded(b"s")), public)


def test_pss_params_are_built_once_per_modulus_size(key_1024, key_1024_b, toy_keys):
    assert PssParams.for_key(key_1024[0]) is PssParams.for_key(key_1024_b[1])
    # keyed by the modulus size alone: a public and a private key of one size share it
    assert PssParams.for_key(key_1024[0]) is PssParams.for_key(key_1024[1])
    sizes = [rsa.RsaPublicKey((1 << bits - 1) | 1, 65537) for bits in range(49, 4097)]
    for key in [public for public, _ in toy_keys.values()] + sizes:
        bits = key.n.bit_length()
        assert PssParams.for_key(key) == PssParams(bits, salt_len=pss_salt_len_for(key))
        assert pss_salt_len_for(key) == PssParams.for_key(key).salt_len


def test_no_room_for_pss_signs_never_and_verifies_false():
    public, private = rsa.generate_key(200, 2, 65537, seeded(b"200"))
    assert PssParams.for_key(public).salt_len == 0
    with pytest.raises(ModulusTooSmall):
        pkcs1.sign(b"m", private, ExhaustibleSource(b""))
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
