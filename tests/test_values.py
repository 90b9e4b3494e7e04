"""The contract of the immutable value classes: an attribute can be neither
set nor deleted, equality covers each class's compared fields and nothing
else (the kept encodings and the function fields are left out), equal values
hash alike, and a decoded value equals the value it was built from."""

import hashlib
import math

import pytest

import pkcswb.cli  # noqa: F401  (imports every layer, so every value class exists)
from pkcswb import asn1, cms, csr, errors, keystore, oids, pfx, pkcs1, pkcs5, primitives, rsa
from pkcswb.asn1 import der_decode, der_encode

OTHER_HASH = primitives.HashAlg("sha256/20", lambda data: hashlib.sha256(data).digest()[:20])


def _twin(value):
    """The value of the same tree, decoded from its encoding."""
    return der_decode(der_encode(value))


@pytest.fixture(scope="module")
def values(key_512, key_1024):
    """Per value class: a factory of equal, distinct instances (keyword
    arguments override the defaults), and the overrides that each change
    the compared field(s) they name."""
    public, private = key_512
    other_public, other_private = key_1024
    chi = math.lcm(*(r - 1 for r in private.primes))
    name = csr.Name((("commonName", "Alice"),))
    attribute = keystore.attribute_make("friendlyName", "alice")
    info = keystore.PrivateKeyInfo(private)
    epki = keystore.EncryptedPrivateKeyInfo(pkcs5.pbes2_algorithm(b"salt", 2, bytes(16)),
                                            b"\x01" * 32)
    request_info = csr.CertificationRequestInfo(name, public)
    data = cms.make_data(b"payload")

    def make(cls, **defaults):
        return lambda **overrides: cls(**{**defaults, **overrides})

    return {
        asn1.Oid: (make(asn1.Oid, arcs=(1, 2, 840)), [{"arcs": (1, 2, 841)}]),
        asn1.DerValue: (
            make(asn1.DerValue, tag_class=asn1.TagClass.CONTEXT, tag_number=0, content=b"ab"),
            [{"tag_class": asn1.TagClass.APPLICATION}, {"tag_number": 1},
             {"content": b"ac"}, {"content": (asn1.null(),)}]),
        asn1.AlgorithmIdentifier: (
            make(asn1.AlgorithmIdentifier, oid=oids.RSA_ENCRYPTION, params=asn1.null()),
            [{"oid": oids.RSASSA_PSS}, {"params": None}]),
        primitives.HashAlg: (
            make(primitives.HashAlg, name="sha256", raw=primitives.SHA256.raw),
            [{"name": "sha-256"}, {"raw": lambda data: hashlib.sha256(data).digest()[:31]}]),
        rsa.RsaPublicKey: (make(rsa.RsaPublicKey, n=public.n, e=public.e),
                           [{"n": public.n + 2}, {"e": 3}]),
        rsa.RsaPrivateKey: (
            make(rsa.RsaPrivateKey, e=private.e, d=private.d, primes=private.primes),
            [{"d": private.d + chi},
             {"e": other_private.e, "d": other_private.d, "primes": other_private.primes}]),
        pkcs1.OaepParams: (make(pkcs1.OaepParams, k=128, hash_alg=primitives.SHA256, label=b""),
                           [{"k": 127}, {"hash_alg": OTHER_HASH}, {"label": b"x"}]),
        pkcs1.PssParams: (
            make(pkcs1.PssParams, modulus_bits=1024, hash_alg=primitives.SHA256, salt_len=32),
            [{"modulus_bits": 1016}, {"modulus_bits": 1023},
             {"hash_alg": OTHER_HASH}, {"salt_len": 20}]),
        pkcs5.Pbkdf2Params: (make(pkcs5.Pbkdf2Params, salt=b"salt", iterations=2, dk_len=16),
                             [{"salt": b"pepper"}, {"iterations": 3}, {"dk_len": 32}]),
        keystore.Attribute: (
            make(keystore.Attribute, attr_type=oids.AT_FRIENDLY_NAME,
                 values=(asn1.utf8_string("alice"),)),
            [{"attr_type": oids.AT_PSEUDONYM}, {"values": (asn1.utf8_string("bob"),)}]),
        keystore.PrivateKeyInfo: (
            make(keystore.PrivateKeyInfo, key=private, attributes=()),
            [{"key": other_private}, {"attributes": (attribute,)}]),
        keystore.EncryptedPrivateKeyInfo: (
            make(keystore.EncryptedPrivateKeyInfo, algorithm=epki.algorithm,
                 encrypted_data=epki.encrypted_data),
            [{"algorithm": pkcs5.pbes2_algorithm(b"salt", 3, bytes(16))},
             {"encrypted_data": b"\x02" * 32}]),
        csr.Name: (make(csr.Name, pairs=(("commonName", "Alice"),)),
                   [{"pairs": (("commonName", "Bob"),)}]),
        csr.CertificationRequestInfo: (
            make(csr.CertificationRequestInfo, subject=name, public_key=public, attributes=()),
            [{"subject": csr.Name((("commonName", "Bob"),))}, {"public_key": other_public},
             {"attributes": (attribute,)}]),
        csr.CertificationRequest: (
            make(csr.CertificationRequest, info=request_info,
                 signature_algorithm=asn1.AlgorithmIdentifier(oids.RSASSA_PSS),
                 signature=b"sig"),
            [{"info": csr.CertificationRequestInfo(name, other_public)},
             {"signature_algorithm": asn1.AlgorithmIdentifier(oids.RSA_ENCRYPTION)},
             {"signature": b"gis"}]),
        cms.ContentInfo: (
            make(cms.ContentInfo, content_type=oids.CT_DATA, content=asn1.octet_string(b"x")),
            [{"content_type": oids.CT_ENCRYPTED_DATA}, {"content": asn1.octet_string(b"y")}]),
        cms.SignerIdent: (make(cms.SignerIdent, name=name, key_id=b"id"),
                          [{"name": csr.Name((("commonName", "Bob"),))}, {"key_id": b"di"}]),
        pfx.SafeBag: (
            make(pfx.SafeBag, value=info, attributes=()),
            [{"value": keystore.PrivateKeyInfo(other_private)}, {"attributes": (attribute,)},
             {"value": epki}]),
        pfx.MacData: (make(pfx.MacData, tag=b"tag", salt=b"salt", iterations=2),
                      [{"tag": b"gat"}, {"salt": b"tlas"}, {"iterations": 3}]),
        pfx.PfxPdu: (make(pfx.PfxPdu, auth_safe=data, mac_data=None),
                     [{"auth_safe": cms.make_data(b"other")},
                      {"mac_data": pfx.MacData(b"tag", b"salt", 2)}]),
        pfx.PfxCredentials: (
            make(pfx.PfxCredentials, privacy_password=b"p", integrity_password=b"i",
                 destination_pub=public, destination_priv=private, source_sign_key=private,
                 source_verify_key=public, source_name=name),
            [{"privacy_password": b"q"}, {"integrity_password": b"j"},
             {"destination_pub": other_public}, {"destination_priv": other_private},
             {"source_sign_key": other_private}, {"source_verify_key": other_public},
             {"source_name": None}]),
    }


# the fields each class compares, the derived ones included
COMPARED = {
    "Oid": ("arcs",),
    "DerValue": ("tag_class", "constructed", "tag_number", "content"),
    "AlgorithmIdentifier": ("oid", "params"),
    "HashAlg": ("name", "output_len"),
    "RsaPublicKey": ("n", "e"),
    "RsaPrivateKey": ("e", "d", "primes", "n", "crt_exponents", "crt_coefficients"),
    "OaepParams": ("k", "hash_alg", "label"),
    "PssParams": ("k", "modulus_bits", "hash_alg", "salt_len"),
    "Pbkdf2Params": ("salt", "iterations", "dk_len"),
    "Attribute": ("attr_type", "values"),
    "PrivateKeyInfo": ("key", "attributes"),
    "EncryptedPrivateKeyInfo": ("algorithm", "encrypted_data"),
    "Name": ("pairs",),
    "CertificationRequestInfo": ("subject", "public_key", "attributes"),
    "CertificationRequest": ("info", "signature_algorithm", "signature"),
    "ContentInfo": ("content_type", "content"),
    "SignerIdent": ("name", "key_id"),
    "SafeBag": ("bag_type", "value", "attributes"),
    "MacData": ("tag", "salt", "iterations"),
    "PfxPdu": ("auth_safe", "mac_data"),
    "PfxCredentials": ("privacy_password", "integrity_password", "destination_pub",
                       "destination_priv", "source_sign_key", "source_verify_key",
                       "source_name"),
}


# the compared fields a class works out from the others, not taken from its caller
DERIVED = {
    "DerValue": {"constructed"},
    "RsaPrivateKey": {"n", "crt_exponents", "crt_coefficients"},
    "PssParams": {"k"},
    "SafeBag": {"bag_type"},
}


def test_every_value_class_is_covered(values):
    classes = set(errors.Frozen.__subclasses__())
    assert classes == set(values)
    assert {cls.__name__ for cls in classes} == set(COMPARED)


def test_no_attribute_can_be_set_or_deleted(values):
    for cls, (make, _) in values.items():
        value = make()
        for name in (*COMPARED[cls.__name__], "_value", "_der", "extra"):
            before = value.__dict__.get(name)
            with pytest.raises(AttributeError):
                setattr(value, name, "changed")
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert value.__dict__.get(name) == before, (cls.__name__, name)


def test_equality_covers_each_compared_field_and_equal_values_hash_alike(values):
    for cls, (make, changes) in values.items():
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b), cls.__name__
        for overrides in changes:
            changed = make(**overrides)
            assert changed != a and not changed == a, (cls.__name__, overrides)
        fields = COMPARED[cls.__name__]
        assert all(getattr(a, name) == getattr(b, name) for name in fields)
        # every compared field that a caller passes is varied by some change
        derived = DERIVED.get(cls.__name__, set())
        varied = {name for overrides in changes for name in overrides}
        if cls is primitives.HashAlg:  # output_len is measured from raw
            varied = varied - {"raw"} | {"output_len"}
        assert varied == set(fields) - derived, cls.__name__


def test_values_of_other_classes_are_never_equal(values):
    made = [make() for make, _ in values.values()]
    for i, a in enumerate(made):
        for b in made[i + 1:]:
            assert a != b


def test_kept_encodings_and_functions_do_not_affect_equality(values):
    built = asn1.sequence(asn1.integer(5), asn1.utf8_string("x"))
    fresh = asn1.sequence(asn1.integer(5), asn1.utf8_string("x"))
    der_encode(built)  # keeps its _der
    decoded = _twin(built)  # keeps a view of the octets received
    assert "_der" in built.__dict__ and "_der" not in fresh.__dict__
    assert built == fresh == decoded and hash(built) == hash(fresh) == hash(decoded)

    forms = asn1.DerForm.__subclasses__()
    assert len(forms) == 12 and set(forms) <= set(values)
    for cls in forms:
        make, _ = values[cls]
        kept, plain = make(), make()
        built = kept.to_der_value()
        assert kept.to_der_value() is built, cls.__name__  # built once, then kept
        assert "_value" in kept.__dict__ and "_value" not in plain.__dict__
        assert kept == plain and hash(kept) == hash(plain), cls.__name__
        received = der_decode(kept.to_der())
        decoded = cls.from_der_value(received)
        assert decoded.to_der_value() is received, cls.__name__
        assert decoded == kept and hash(decoded) == hash(kept), cls.__name__
        octets = kept.to_der()
        assert cls.from_der(octets).to_der() == octets, cls.__name__

    make, _ = values[primitives.HashAlg]
    assert make(raw=lambda data: bytes(32)) == make()
    assert hash(make(raw=lambda data: b"\x01" * 32)) == hash(make())


def test_a_decoded_value_equals_its_built_twin(key_1024):
    public, private = key_1024
    info = keystore.PrivateKeyInfo(private, (keystore.attribute_make("friendlyName", "k"),))
    epki = keystore.encrypt_private_key(info, b"pw", b"saltsalt", 2, primitives.SeededSource(b"v"))
    name = csr.Name((("commonName", "Alice"), ("country", "US")))
    request = csr.build_csr(name, (public, private),
                            (keystore.attribute_make("challengePassword", "pw"),),
                            primitives.SeededSource(b"csr"))
    bag = pfx.SafeBag(epki, (keystore.attribute_make("localKeyId", b"\x01"),))
    pdu = pfx.PfxPdu(cms.make_data(b"auth safe"), pfx.MacData(b"t" * 32, b"saltsalt", 2))
    algorithm = pkcs5.pbes2_algorithm(b"saltsalt", 2, bytes(16))
    attribute = keystore.attribute_make("signingTime", "260101120000Z")
    # rsaEncryption with absent parameters, not NULL: read alike (RFC 3279 §2.3.1)
    kids = list(der_decode(info.to_der()).children)
    kids[1] = asn1.AlgorithmIdentifier(oids.RSA_ENCRYPTION).to_der_value()
    absent = der_encode(asn1.sequence(*kids))
    absent_info = keystore.PrivateKeyInfo.from_der(absent)
    assert absent != info.to_der() and absent_info.to_der() == absent
    pairs = [
        (oids.RSASSA_PSS, _twin(asn1.oid_value(oids.RSASSA_PSS)).as_oid()),
        (asn1.sequence(asn1.integer(-1), asn1.set_value(asn1.null(), asn1.boolean(True))),
         _twin(asn1.sequence(asn1.integer(-1), asn1.set_value(asn1.null(),
                                                              asn1.boolean(True))))),
        (algorithm, asn1.AlgorithmIdentifier.from_der_value(_twin(algorithm.to_der_value()))),
        (attribute, keystore.Attribute.from_der_value(_twin(attribute.to_der_value()))),
        (public, pkcs1.decode_public_key_info(_twin(pkcs1.encode_public_key_info(public)))),
        (private, keystore.decode_private_key(keystore.encode_private_key(private))),
        (info, keystore.PrivateKeyInfo.from_der(info.to_der())),
        (info, absent_info),
        (epki, keystore.EncryptedPrivateKeyInfo.from_der(epki.to_der())),
        (name, csr.Name.from_der_value(_twin(name.to_der_value()))),
        (request.info, csr.CertificationRequestInfo.from_der_value(
            _twin(request.info.to_der_value()))),
        (request, csr.CertificationRequest.from_der(request.to_der())),
        (pdu.auth_safe, cms.ContentInfo.from_der(pdu.auth_safe.to_der())),
        (bag, pfx.SafeBag.from_der_value(_twin(bag.to_der_value()))),
        (pdu.mac_data, pfx.MacData.from_der_value(_twin(pdu.mac_data.to_der_value()))),
        (pdu, pfx.PfxPdu.from_der(pdu.to_der())),
    ]
    for built, decoded in pairs:
        assert built is not decoded
        assert decoded == built and hash(decoded) == hash(built), type(built).__name__


def test_reprs_name_the_shown_fields_and_hide_the_secret_ones(values, key_512):
    assert repr(asn1.Oid((1, 2, 840))) == "Oid(arcs=(1, 2, 840))"
    assert repr(asn1.AlgorithmIdentifier(oids.SHA256)) == \
        "AlgorithmIdentifier(oid=Oid(arcs=(2, 16, 840, 1, 101, 3, 4, 2, 1)), params=None)"
    assert repr(primitives.SHA256) == "HashAlg(name='sha256', output_len=32)"
    assert repr(pkcs1.PssParams(1024, salt_len=32)) == (
        "PssParams(k=128, modulus_bits=1024, hash_alg=HashAlg(name='sha256', output_len=32), "
        "salt_len=32)")
    assert repr(asn1.octet_string(b"ab")) == (
        "DerValue(tag_class=<TagClass.UNIVERSAL: 0>, constructed=False, tag_number=4, "
        "content=b'ab')")
    public, private = key_512
    make, _ = values[pfx.PfxCredentials]
    assert repr(make()) == (f"PfxCredentials(destination_pub={public!r}, "
                            f"source_verify_key={public!r}, "
                            "source_name=Name(pairs=(('commonName', 'Alice'),)))")
    assert repr(private) == "RsaPrivateKey(e=65537, n=<512 bits>, u=2)"
