import math

import pytest

from pkcswb import asn1, cms, csr, keystore, oids, pkcs5, rsa
from pkcswb.asn1 import AlgorithmIdentifier, Oid, der_decode, der_encode
from pkcswb.errors import DecryptionError, MalformedKey, UnsupportedAlgorithm
from pkcswb.keystore import (ATTRIBUTE_REGISTRY, Attribute,
                             EncryptedPrivateKeyInfo, PrivateKeyInfo,
                             SyntaxViolation, UnknownAttributeType, attribute_check,
                             attribute_make, decode_private_key,
                             decrypt_private_key,
                             encode_private_key, encrypt_private_key,
                             natural_person_bundle, pkcs_entity_bundle)
from pkcswb.pkcs5 import pbes2_algorithm, pbes2_fields
from conftest import seeded


# -- PrivateKeyInfo -------------------------------------------------------------


def test_toy_key_round_trip_field_identical():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    encoded = encode_private_key(private)
    assert decode_private_key(encoded) == private


def test_re_encode_is_byte_identical():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    encoded = encode_private_key(private)
    assert encode_private_key(decode_private_key(encoded)) == encoded


def test_truncated_input_is_malformed():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    encoded = encode_private_key(private)
    with pytest.raises(MalformedKey):
        decode_private_key(encoded[:len(encoded) // 2])
    with pytest.raises(MalformedKey):
        decode_private_key(b"")


def test_multiprime_versions(key_512):
    _, private = key_512
    assert decode_private_key(encode_private_key(private)) == private
    _, mp = rsa.generate_key(96, 3, 65537, seeded(b"mp"))
    body = der_decode(der_decode(encode_private_key(mp)).children[2].as_octet_string())
    assert body.children[0].as_integer() == 1  # multiprime body version
    assert len(body.children[4].children) == 3


def test_corrupted_key_body_fails_invariants():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    root = der_decode(encode_private_key(private))
    body = der_decode(root.children[2].as_octet_string())
    # structurally valid body whose d no longer satisfies e*d = 1 (mod chi)
    broken_body = asn1.sequence(
        body.children[0], body.children[1], body.children[2],
        asn1.integer(private.d + 1), body.children[4])
    broken = asn1.sequence(root.children[0], root.children[1],
                           asn1.octet_string(der_encode(broken_body)))
    with pytest.raises(MalformedKey):
        decode_private_key(der_encode(broken))


def _with_body_fields(private: rsa.RsaPrivateKey, edit) -> bytes:
    """The .p8 encoding of ``private`` with its key body's five fields
    (version, n, e, d, triples) replaced by ``edit(fields)``."""
    root = der_decode(encode_private_key(private))
    fields = list(der_decode(root.children[2].as_octet_string()).children)
    body = asn1.sequence(*edit(fields))
    return der_encode(asn1.sequence(root.children[0], root.children[1],
                                    asn1.octet_string(der_encode(body))))


def test_first_triple_with_a_coefficient_other_than_one_is_malformed():
    _, private = rsa.key_from_primes((3, 5, 7), 5)

    def first_coefficient_two(fields):
        first, *rest = fields[4].children
        r_v, d_v, _ = first.children
        return fields[:4] + [asn1.sequence(asn1.sequence(r_v, d_v, asn1.integer(2)), *rest)]

    with pytest.raises(MalformedKey, match="coefficient"):
        decode_private_key(_with_body_fields(private, first_coefficient_two))


@pytest.mark.parametrize("primes,version", [((5, 11), 1), ((3, 5, 7), 0)])
def test_body_version_that_disagrees_with_the_prime_count_is_malformed(primes, version):
    _, private = rsa.key_from_primes(primes, 3 if len(primes) == 2 else 5)
    edited = _with_body_fields(private, lambda fields: [asn1.integer(version)] + fields[1:])
    with pytest.raises(MalformedKey, match="version"):
        decode_private_key(edited)


@pytest.mark.parametrize("primes,e", [((5, 11), 3), ((3, 5, 7), 5)])
def test_body_with_d_modulo_phi_decodes_and_re_encodes_as_received(primes, e):
    # OpenSSL writes d = e^-1 mod phi(n), which lcm(r_i - 1) divides
    _, private = rsa.key_from_primes(primes, e)
    d_phi = pow(private.e, -1, math.prod(r - 1 for r in private.primes))
    assert d_phi != private.d
    edited = _with_body_fields(private, lambda fields: fields[:3] + [asn1.integer(d_phi)]
                               + fields[4:])
    decoded = decode_private_key(edited)
    assert decoded.d == d_phi and decoded.crt_exponents == private.crt_exponents
    assert encode_private_key(decoded) == edited


@pytest.mark.parametrize("u", [2, 3])
def test_body_with_d_outside_one_to_n_is_malformed(toy_keys, u):
    # the triples still match: lcm(r_i - 1) is a multiple of every r_i - 1
    private = toy_keys[u][1]
    lam = math.lcm(*(r - 1 for r in private.primes))
    for d in (private.d - 3 * lam, private.d + (private.n // lam + 1) * lam):
        edited = _with_body_fields(private, lambda fields: fields[:3] + [asn1.integer(d)]
                                   + fields[4:])
        with pytest.raises(MalformedKey, match=r"\[1, n\)"):
            decode_private_key(edited)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_body_with_a_crt_exponent_not_reduced_is_malformed(i):
    # RFC 8017 §A.1.2: exponent1 is d mod (p - 1); d_i + (r_i - 1) is refused
    _, private = rsa.key_from_primes((3, 5, 7), 5)

    def unreduced(fields):
        triples = list(fields[4].children)
        r_v, d_v, t_v = triples[i].children
        r = r_v.as_integer()
        triples[i] = asn1.sequence(r_v, asn1.integer(d_v.as_integer() + r - 1), t_v)
        return fields[:4] + [asn1.sequence(*triples)]

    with pytest.raises(MalformedKey, match="exponent"):
        decode_private_key(_with_body_fields(private, unreduced))


def _with_child(value, index, child):
    """``value`` with its child at ``index`` replaced by ``child``."""
    kids = list(value.children)
    kids[index] = child
    return asn1.DerValue(value.tag_class, True, value.tag_number, tuple(kids))


_SIGNING_TIME = attribute_make("signingTime", "260101120000Z")


def _read_private_key_info(retag, keypair):
    root = PrivateKeyInfo(keypair[1], (attribute_make("friendlyName", "k"),)).to_der_value()
    return PrivateKeyInfo.from_der(der_encode(_with_child(root, 3, retag(root.children[3]))))


def _read_request(retag, keypair):
    request = csr.build_csr(csr.Name((("commonName", "c"),)), keypair,
                            (attribute_make("challengePassword", "pw"),), seeded(b"[0] csr"))
    root = der_decode(request.to_der())
    info_v = root.children[0]
    info_v = _with_child(info_v, 3, retag(info_v.children[3]))
    der = der_encode(_with_child(root, 0, info_v))
    return csr.verify_csr(csr.CertificationRequest.from_der(der))


def _read_signed_data(retag, keypair):
    ident = cms.SignerIdent(csr.Name((("commonName", "s"),)), b"kid")
    signed = cms.sign_data(cms.make_data(b"m"), keypair[1], ident, (_SIGNING_TIME,),
                           seeded(b"[0] signed")).content
    (signer,) = signed.children[3].children
    signer = _with_child(signer, 3, retag(signer.children[3]))
    signed = _with_child(signed, 3, asn1.set_value(signer))
    return cms.verify_signed(cms.ContentInfo(oids.CT_SIGNED_DATA, signed), keypair[0])[1]


def _read_authenticated_data(retag, keypair):
    body = cms.authenticate_data(cms.make_data(b"m"), bytes(16), (_SIGNING_TIME,)).content
    body = _with_child(body, 3, retag(body.children[3]))
    return cms.check_auth(cms.ContentInfo(oids.CT_AUTHENTICATED_DATA, body), bytes(16))


# every reader of a [0] IMPLICIT SET OF Attribute, and what it does with a set
# under another tag: raise that class, or return False
_ATTRIBUTE_SET_READERS = {
    "private-key-info": (_read_private_key_info, MalformedKey),
    "request": (_read_request, csr.MalformedRequest),
    "signed-data": (_read_signed_data, asn1.NonCanonical),
    "authenticated-data": (_read_authenticated_data, False),
}


@pytest.mark.parametrize("retag", [lambda v: asn1.context(1, v.children),
                                   lambda v: asn1.set_value(*v.children)],
                         ids=["context-1", "universal-set"])
@pytest.mark.parametrize("reader", list(_ATTRIBUTE_SET_READERS))
def test_every_reader_refuses_an_attribute_set_not_tagged_context_zero(reader, retag, key_512):
    read, refused = _ATTRIBUTE_SET_READERS[reader]
    assert read(lambda v: v, key_512)  # under [0], the same set is read
    if refused is False:
        assert read(retag, key_512) is False
    else:
        with pytest.raises(refused, match="CONTEXT tag 0"):
            read(retag, key_512)


def test_unsupported_key_algorithm():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    root = der_decode(encode_private_key(private))
    swapped = asn1.sequence(
        root.children[0],
        AlgorithmIdentifier(Oid.parse("1.2.840.10040.4.1")).to_der_value(),
        root.children[2],
    )
    with pytest.raises(UnsupportedAlgorithm):
        decode_private_key(der_encode(swapped))


def test_attributes_round_trip_and_canonical_order():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    a = attribute_make("friendlyName", "alice key")
    b = attribute_make("localKeyId", b"\x01\x02")
    info_ab = PrivateKeyInfo(private, (a, b))
    info_ba = PrivateKeyInfo(private, (b, a))
    assert info_ab.to_der() == info_ba.to_der()
    decoded = PrivateKeyInfo.from_der(info_ab.to_der())
    assert decoded == info_ab
    assert decoded.to_der() == info_ab.to_der()


# -- EncryptedPrivateKeyInfo -------------------------------------------------------


def test_encrypt_decrypt_round_trip(key_512):
    _, private = key_512
    info = PrivateKeyInfo(private, (attribute_make("friendlyName", "k"),))
    epki = encrypt_private_key(info, b"pw", b"saltsalt", 64, seeded(b"iv"))
    assert decrypt_private_key(epki, b"pw") == info
    recoded = EncryptedPrivateKeyInfo.from_der(epki.to_der())
    assert recoded == epki and recoded.to_der() == epki.to_der()
    assert decrypt_private_key(recoded, b"pw") == info


def test_wrong_password_fifty_trials(key_512):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv2"))
    for index in range(50):
        with pytest.raises(DecryptionError):
            decrypt_private_key(epki, b"bad-%04d" % index)


def test_different_salts_change_ciphertext(key_512):
    _, private = key_512
    info = PrivateKeyInfo(private)
    a = encrypt_private_key(info, b"pw", b"salt-aaa", 64, seeded(b"iv3"))
    b = encrypt_private_key(info, b"pw", b"salt-bbb", 64, seeded(b"iv3"))
    assert a.encrypted_data != b.encrypted_data


def test_empty_password_rejected(key_512):
    _, private = key_512
    with pytest.raises(ValueError):
        encrypt_private_key(PrivateKeyInfo(private), b"", b"saltsalt", 64, seeded(b"x"))


def test_legacy_pbe_identifier_unsupported():
    for legacy in ("1.2.840.113549.1.5.3", "1.2.840.113549.1.12.1.3"):
        epki = EncryptedPrivateKeyInfo(AlgorithmIdentifier(Oid.parse(legacy)), b"x")
        with pytest.raises(UnsupportedAlgorithm):
            decrypt_private_key(epki, b"pw")


# -- attribute registry --------------------------------------------------------------


def test_registry_is_a_bijection_of_exactly_ten():
    names = list(ATTRIBUTE_REGISTRY)
    oid_list = [spec.oid for spec in ATTRIBUTE_REGISTRY.values()]
    assert len(names) == 10
    assert len(set(oid_list)) == 10
    assert sorted(names) == sorted([
        "contentType", "messageDigest", "signingTime", "sequenceNumber",
        "randomNonce", "counterSignature", "challengePassword",
        "extensionRequest", "friendlyName", "localKeyId"])


def test_challenge_password_directory_string():
    attribute = attribute_make("challengePassword", "s3cret")
    assert attribute_check(attribute)
    assert attribute.values[0].is_universal(asn1.PRINTABLE_STRING)
    unicode_attr = attribute_make("challengePassword", "gehéim")
    assert unicode_attr.values[0].is_universal(asn1.UTF8_STRING)
    assert attribute_check(unicode_attr)


def test_message_digest_attribute():
    assert attribute_check(attribute_make("messageDigest", b"\x00" * 32))


def test_friendly_name_must_be_non_empty():
    with pytest.raises(SyntaxViolation):
        attribute_make("friendlyName", "")
    assert attribute_check(attribute_make("friendlyName", "display name"))


def test_built_values_pass_through_every_type():
    built = {"contentType": asn1.oid_value(oids.CT_DATA),
             "messageDigest": asn1.octet_string(bytes(32)),
             "signingTime": asn1.utc_time("200101120000Z"),
             "sequenceNumber": asn1.integer(3),
             "randomNonce": asn1.octet_string(b"\x01\x02\x03\x04"),
             "counterSignature": asn1.sequence(asn1.integer(1)),
             "challengePassword": asn1.utf8_string("pw"),
             "extensionRequest": asn1.sequence(),
             "friendlyName": asn1.utf8_string("k"),
             "localKeyId": asn1.octet_string(b"\x01")}
    assert set(built) == set(ATTRIBUTE_REGISTRY)
    for name, value in built.items():
        assert attribute_make(name, value).values == (value,)
    for name in ("counterSignature", "extensionRequest"):
        with pytest.raises(SyntaxViolation, match="already-built"):
            attribute_make(name, b"\x30\x00")


def test_unknown_attribute_type():
    with pytest.raises(UnknownAttributeType):
        attribute_make("nonexistent", 1)


def test_attribute_check_is_total():
    assert not attribute_check(Attribute(Oid.parse("1.2.3.4"), (asn1.null(),)))
    wrong_syntax = Attribute(oids.AT_MESSAGE_DIGEST, (asn1.integer(5),))
    assert not attribute_check(wrong_syntax)


def test_signing_time_syntax():
    assert attribute_check(attribute_make("signingTime", "200101120000Z"))
    assert attribute_check(attribute_make("signingTime", "20200101120000Z"))
    with pytest.raises(SyntaxViolation):
        attribute_make("signingTime", "not a time")


def test_sequence_number_and_nonce():
    assert attribute_check(attribute_make("sequenceNumber", 9))
    with pytest.raises(SyntaxViolation):
        attribute_make("sequenceNumber", 0)
    assert attribute_check(attribute_make("randomNonce", b"\x01\x02\x03\x04"))
    with pytest.raises(SyntaxViolation):
        attribute_make("randomNonce", b"\x01")


def test_attribute_der_round_trip_order_insensitive():
    attribute = Attribute(oids.AT_LOCAL_KEY_ID,
                          (asn1.octet_string(b"zz"), asn1.octet_string(b"aa")))
    recoded = Attribute.from_der_value(der_decode(der_encode(attribute.to_der_value())))
    assert recoded == attribute
    assert recoded.values[0].octets == b"aa"  # canonical order


def test_received_attribute_set_out_of_order_is_non_canonical():
    # a [0] IMPLICIT SET OF Attribute is not a universal SET, so its order is
    # checked where it is read, by the same neighbour comparison
    low, high = sorted((der_encode(attribute_make("signingTime", "200101120000Z").to_der_value()),
                        der_encode(attribute_make("sequenceNumber", 7).to_der_value())))
    for children, ok in ((low + high, True), (high + low, False), (low + low, True)):
        received = der_decode(bytes([0xA0, len(children)]) + children)
        if ok:
            assert len(keystore._attributes_from_der(received)) == len(received.children)
        else:
            with pytest.raises(asn1.NonCanonical):
                keystore._attributes_from_der(received)


def test_natural_person_bundle():
    bundle = natural_person_bundle(email_address="a@example.org",
                                   country_of_citizenship="US",
                                   gender="F",
                                   date_of_birth="19800101000000Z")
    assert len(bundle) == 4
    assert {a.attr_type for a in bundle} == {
        oids.AT_EMAIL_ADDRESS, oids.AT_COUNTRY_OF_CITIZENSHIP,
        oids.AT_GENDER, oids.AT_DATE_OF_BIRTH}
    with pytest.raises(UnknownAttributeType):
        natural_person_bundle(shoe_size="44")


def test_pkcs_entity_bundle():
    bundle = pkcs_entity_bundle(encrypted_private_key_info=asn1.octet_string(b"blob"))
    assert bundle[0].attr_type == oids.AT_ENCRYPTED_PRIVATE_KEY_INFO
    with pytest.raises(UnknownAttributeType):
        pkcs_entity_bundle(unknown_thing=asn1.null())


# -- hostile PBES2 headers ----------------------------------------------------------


def _pbes2_epki(kdf: AlgorithmIdentifier, enc: AlgorithmIdentifier) -> EncryptedPrivateKeyInfo:
    header = AlgorithmIdentifier(oids.PBES2,
                                 asn1.sequence(kdf.to_der_value(), enc.to_der_value()))
    return EncryptedPrivateKeyInfo.from_der(EncryptedPrivateKeyInfo(header, bytes(32)).to_der())


def test_pbes2_identifiers_without_parameters_are_malformed():
    kdf = AlgorithmIdentifier(oids.PBKDF2, asn1.sequence(
        asn1.octet_string(b"saltsalt"), asn1.integer(64),
        AlgorithmIdentifier(oids.HMAC_WITH_SHA256).to_der_value()))
    enc = AlgorithmIdentifier(oids.AES128_CBC, asn1.octet_string(bytes(16)))
    for epki in (_pbes2_epki(AlgorithmIdentifier(oids.PBKDF2), enc),
                 _pbes2_epki(kdf, AlgorithmIdentifier(oids.AES128_CBC)),
                 EncryptedPrivateKeyInfo(AlgorithmIdentifier(oids.PBES2, asn1.null()),
                                         bytes(32))):
        with pytest.raises(MalformedKey):
            decrypt_private_key(epki, b"pw")


@pytest.mark.parametrize("field", ["PBES2", "PBKDF2"])
def test_pbes2_parameters_under_another_tag_are_malformed(key_512, field):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv-tag"))
    params = epki.algorithm.params
    if field == "PBKDF2":
        params = params.children[0].children[1]
    der = epki.to_der()
    at = der.index(der_encode(params))
    assert der[at] == 0x30 and decrypt_private_key(epki, b"pw") == PrivateKeyInfo(private)
    edited = EncryptedPrivateKeyInfo.from_der(der[:at] + b"\xa0" + der[at + 1:])
    with pytest.raises(MalformedKey):
        decrypt_private_key(edited, b"pw")


def test_p8e_iteration_count_above_cap_fails_before_pbkdf2(key_512, monkeypatch):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv-cap"))
    salt, _, iv = pbes2_fields(epki.algorithm)
    edited = EncryptedPrivateKeyInfo(pbes2_algorithm(salt, 2**40, iv),
                                     epki.encrypted_data).to_der()

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on an over-cap iteration count")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    with pytest.raises(pkcs5.TooManyIterations):
        decrypt_private_key(EncryptedPrivateKeyInfo.from_der(edited), b"pw")
    assert pkcs5.MAX_ITERATIONS < 2**40


@pytest.mark.parametrize("salt,count", [(b"saltsalt", 0), (b"saltsalt", -1), (b"", 64)])
def test_p8e_nonpositive_count_or_empty_salt_is_malformed(key_512, monkeypatch, salt, count):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv-low"))
    _, _, iv = pbes2_fields(epki.algorithm)
    edited = EncryptedPrivateKeyInfo(pbes2_algorithm(salt, count, iv),
                                     epki.encrypted_data).to_der()

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on a malformed header")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    with pytest.raises(MalformedKey):
        decrypt_private_key(EncryptedPrivateKeyInfo.from_der(edited), b"pw")


# -- size caps on keys read from a file -------------------------------------------


def _pki_der(n: int, e: int, primes: tuple[int, ...], d: int = 3) -> bytes:
    """PrivateKeyInfo around a key body that is only the right shape."""
    triples = [asn1.sequence(asn1.integer(r), asn1.integer(1), asn1.integer(1))
               for r in primes]
    body = asn1.sequence(asn1.integer(0), asn1.integer(n), asn1.integer(e),
                         asn1.integer(d), asn1.sequence(*triples))
    return der_encode(asn1.sequence(
        asn1.integer(0),
        AlgorithmIdentifier(oids.RSA_ENCRYPTION, asn1.null()).to_der_value(),
        asn1.octet_string(der_encode(body))))


@pytest.fixture
def no_key_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a key was built before its size was checked")

    monkeypatch.setattr(keystore, "RsaPrivateKey", refuse)


def test_private_key_modulus_above_cap_is_malformed(no_key_built):
    with pytest.raises(MalformedKey, match="modulus"):
        PrivateKeyInfo.from_der(_pki_der(2**rsa.MAX_MODULUS_BITS + 1, 65537, (3, 3)))


def test_private_key_prime_count_above_cap_is_malformed(no_key_built):
    over = _pki_der(3 * 5, 65537, (3,) * (rsa.MAX_PRIMES + 1))
    with pytest.raises(MalformedKey, match="primes"):
        PrivateKeyInfo.from_der(over)
    # wrapped under a password, the same key is one more decryption failure
    epki = EncryptedPrivateKeyInfo(*pkcs5.pbes2_encrypt(over, b"pw", b"saltsalt", 64,
                                                        seeded(b"iv-u")))
    with pytest.raises(DecryptionError) as info:
        decrypt_private_key(epki, b"pw")
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_private_key_modulus_not_the_product_of_the_primes_is_malformed(no_key_built):
    # compared before the key, and so any inverse, is computed
    with pytest.raises(MalformedKey, match="modulus"):
        PrivateKeyInfo.from_der(_pki_der(5 * 11 + 2, 3, (5, 11)))


def test_private_key_prime_longer_than_the_modulus_is_malformed(monkeypatch):
    # refused before any product: its cost grows faster than the file's size
    def refuse(*args):
        raise AssertionError("the primes were multiplied")

    monkeypatch.setattr(math, "prod", refuse)
    with pytest.raises(MalformedKey, match="modulus"):
        PrivateKeyInfo.from_der(_pki_der(5 * 11, 3, (5, 2**64 + 1)))


@pytest.mark.parametrize("primes,e,d", [
    ((3, 5, 15), 3, 19),   # 15 shares 3 and 5 with the others; 3 * 19 = 1 mod 28
    ((9, 15), 3, 19),      # 9 and 15 share 3; 3 * 19 = 1 mod 56
    ((5, 11), 5, 1),       # gcd(5, 11 - 1) = 5: no d exists
])
def test_private_key_primes_not_coprime_to_each_other_or_e_are_malformed(primes, e, d):
    # n is the product of the primes, so only the key's own checks can refuse
    with pytest.raises(MalformedKey):
        PrivateKeyInfo.from_der(_pki_der(math.prod(primes), e, primes, d))


def test_private_key_prime_of_one_is_malformed():
    # primes (1, 15) multiply to n = 15, and lcm(r_i - 1) would be zero
    with pytest.raises(MalformedKey, match="primes"):
        PrivateKeyInfo.from_der(_pki_der(15, 3, (1, 15)))


def test_key_body_and_triple_with_too_few_fields_are_malformed():
    _, private = rsa.key_from_primes((3, 5, 7), 5)

    def short_triple(fields):
        first, *rest = fields[4].children
        return fields[:4] + [asn1.sequence(asn1.sequence(*first.children[:2]), *rest)]

    for edit in (lambda fields: fields[:2], short_triple):
        with pytest.raises(MalformedKey, match="fields"):
            decode_private_key(_with_body_fields(private, edit))


def test_encrypted_private_key_info_with_a_third_field_is_malformed(key_512):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 2, seeded(b"3"))
    extra = asn1.sequence(*epki.to_der_value().children, asn1.null())
    with pytest.raises(MalformedKey, match="fields"):
        EncryptedPrivateKeyInfo.from_der(der_encode(extra))


def test_rsa_encryption_parameters_other_than_null_are_malformed():
    # RFC 3279 §2.3.1: the parameters are NULL; absent ones stay accepted
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    version_v, _, body_v = der_decode(encode_private_key(private)).children

    def pki(params):
        alg = AlgorithmIdentifier(oids.RSA_ENCRYPTION, params).to_der_value()
        return der_encode(asn1.sequence(version_v, alg, body_v))

    with pytest.raises(MalformedKey, match="NULL"):
        PrivateKeyInfo.from_der(pki(asn1.octet_string(b"")))
    assert PrivateKeyInfo.from_der(pki(None)).key == private
