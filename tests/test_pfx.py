import warnings

import pytest

from pkcswb import asn1, cms, oids, pfx, pkcs5
from pkcswb.csr import Name, build_csr
from pkcswb.errors import (DecryptionError, IntegrityFailure, MalformedKey, MissingCredential,
                           UnsupportedAlgorithm)
from pkcswb.keystore import (Attribute, PrivateKeyInfo, SyntaxViolation, attribute_make,
                             encrypt_private_key)
from pkcswb.pfx import MacData, PfxPdu, PfxSecurityWarning, SafeBag, pfx_create, pfx_open
from pkcswb.primitives import RandomSource
from conftest import pfx_credentials, seeded

PASSWORDS = PRIVACY_PW, INTEGRITY_PW = b"privacy-pw", b"integrity-pw"


@pytest.fixture(scope="module")
def material(request):
    key_1024 = request.getfixturevalue("key_1024")
    key_1024_b = request.getfixturevalue("key_1024_b")
    key_1024_c = request.getfixturevalue("key_1024_c")
    alice_public, alice_private = key_1024
    rng = seeded(b"pfx-material")
    name = Name((("commonName", "Alice"),))
    csr = build_csr(name, (alice_public, alice_private),
                    (attribute_make("challengePassword", "pw"),), rng)
    ca_public, ca_private = key_1024_b
    certificate = cms.toy_issue(csr, ca_private, Name((("commonName", "CA"),)), 1, rng)
    info = PrivateKeyInfo(alice_private)
    epki = encrypt_private_key(info, b"alice-pw", b"salt-key", 128, rng)
    key_id = attribute_make("localKeyId", b"\x01")
    bags = (
        SafeBag(epki, (key_id, attribute_make("friendlyName", "k"))),
        SafeBag(certificate, (key_id,)),
    )
    return bags, pfx_credentials(*PASSWORDS, key_1024_c, key_1024, name), info


@pytest.fixture()
def steps(monkeypatch):
    """(kind, mode) of each integrity and privacy step pfx_open runs, in order."""
    record = []
    for module, name, step in ((pfx, "pbmac1_verify", ("integrity", "password")),
                               (cms, "verify_signed", ("integrity", "public_key")),
                               (pfx, "pbes2_decrypt", ("privacy", "password")),
                               (cms, "open_envelope", ("privacy", "public_key"))):
        def recorder(*args, real=getattr(module, name), step=step):
            record.append(step)
            return real(*args)
        monkeypatch.setattr(module, name, recorder)
    return record


@pytest.mark.parametrize("privacy", ["password", "public_key"])
@pytest.mark.parametrize("integrity", ["password", "public_key"])
def test_all_four_mode_combinations_round_trip(material, steps, privacy, integrity):
    bags, (privacies, integrities), _ = material
    (seal, unseal), (sign, check) = privacies[privacy], integrities[integrity]
    built = pfx_create(bags, seal, sign, seeded(b"modes"))
    encoded = built.to_der()
    decoded = PfxPdu.from_der(encoded)
    assert decoded == built
    assert decoded.to_der() == encoded
    recovered = pfx_open(decoded, unseal, check)
    assert recovered == bags
    assert steps == [("integrity", integrity), ("privacy", privacy)]


def test_a_password_is_any_bytes_like_value(material):
    bags, _, _ = material
    built = pfx_create(bags, bytearray(PRIVACY_PW), memoryview(INTEGRITY_PW), seeded(b"bytes"))
    assert built.mac_data is not None
    assert pfx_open(PfxPdu.from_der(built.to_der()), memoryview(PRIVACY_PW),
                    bytearray(INTEGRITY_PW)) == bags


def test_mac_data_shape(material):
    bags, (_, integrities), _ = material
    built = pfx_create(bags, *PASSWORDS, seeded(b"mac"))
    assert built.version == 3
    assert isinstance(built.mac_data, MacData)
    assert len(built.mac_data.tag) == 32
    public_key_built = pfx_create(bags, PRIVACY_PW, integrities["public_key"][0],
                                  seeded(b"mac2"))
    assert public_key_built.mac_data is None


def test_integrity_checked_before_privacy_on_tamper(material, steps):
    bags, _, _ = material
    built = pfx_create(bags, *PASSWORDS, seeded(b"tamper"))
    encoded = bytearray(built.to_der())
    encoded[len(encoded) // 2] ^= 0x01
    with pytest.raises(IntegrityFailure):
        pfx_open(PfxPdu.from_der(bytes(encoded)), *PASSWORDS)
    assert ("integrity", "password") in steps
    assert all(kind != "privacy" for kind, _ in steps)


def test_signature_integrity_tamper(material, steps):
    bags, (_, integrities), _ = material
    sign, check = integrities["public_key"]
    built = pfx_create(bags, PRIVACY_PW, sign, seeded(b"t2"))
    encoded = bytearray(built.to_der())
    encoded[len(encoded) // 2] ^= 0x01
    with pytest.raises(IntegrityFailure):
        pfx_open(PfxPdu.from_der(bytes(encoded)), PRIVACY_PW, check)
    assert all(kind != "privacy" for kind, _ in steps)


def test_two_authenticated_safe_elements_open_to_both_bags(material):
    bags, _, _ = material
    rng = seeded(b"two-elements")
    elements = [pfx._privacy_wrap(pfx._safe_contents_der((bag,)), PRIVACY_PW,
                                  rng).to_der_value() for bag in bags]
    auth_safe = cms.make_data(asn1.der_encode(asn1.sequence(*elements)))
    salt = rng.read(8)
    tag = pkcs5.pbmac1_tag(auth_safe.to_der(), INTEGRITY_PW, salt, 2048)
    octets = PfxPdu(auth_safe, MacData(tag, salt, 2048)).to_der()
    assert pfx_open(PfxPdu.from_der(octets), *PASSWORDS) == bags


def _macced_pfx(element: cms.ContentInfo, rng) -> bytes:
    """A PFX MACed under INTEGRITY_PW whose one authenticated-safe element is ``element``."""
    auth_safe = cms.make_data(asn1.der_encode(asn1.sequence(element.to_der_value())))
    salt = rng.read(8)
    tag = pkcs5.pbmac1_tag(auth_safe.to_der(), INTEGRITY_PW, salt, 2048)
    return PfxPdu(auth_safe, MacData(tag, salt, 2048)).to_der()


@pytest.mark.parametrize("privacy", ["password", "public_key"])
def test_unmodelled_bag_type_is_unsupported_algorithm(material, privacy):
    # a secretBag (RFC 7292 §4.2.5) from another writer, correctly MACed and encrypted
    _, (privacies, _), _ = material
    seal, unseal = privacies[privacy]
    secret_bag = asn1.Oid.parse("1.2.840.113549.1.12.10.1.5")
    bag = asn1.sequence(asn1.oid_value(secret_bag), asn1.explicit(0, asn1.sequence(
        asn1.oid_value(oids.CT_DATA), asn1.explicit(0, asn1.octet_string(b"secret")))))
    rng = seeded(b"secret-bag")
    element = pfx._privacy_wrap(asn1.der_encode(asn1.sequence(bag)), seal, rng)
    octets = _macced_pfx(element, rng)
    with pytest.raises(UnsupportedAlgorithm) as raised:
        pfx_open(PfxPdu.from_der(octets), unseal, INTEGRITY_PW)
    assert type(raised.value) is UnsupportedAlgorithm  # a ValueError, declared
    assert str(secret_bag) in str(raised.value)
    for crl_or_contents in ("1.2.840.113549.1.12.10.1.4", "1.2.840.113549.1.12.10.1.6"):
        other = asn1.sequence(asn1.oid_value(crl_or_contents), asn1.explicit(0, asn1.null()))
        with pytest.raises(UnsupportedAlgorithm):
            SafeBag.from_der_value(other)


@pytest.mark.parametrize("attribute", [
    (oids.AT_FRIENDLY_NAME, asn1.integer(5)),
    (asn1.Oid.parse("1.2.3.4"), asn1.null()),
], ids=["friendlyName-integer", "unregistered"])
def test_a_bag_attribute_the_registry_refuses_is_not_read(material, attribute):
    # a bag whose attribute set pfx_create cannot write, correctly encrypted and
    # MACed: pfx_open refuses it as the Attribute constructor does
    bags, _, _ = material
    attr_type, value = attribute
    bag_v = bags[0].to_der_value()
    bag = asn1.sequence(*bag_v.children[:2], asn1.set_value(
        asn1.sequence(asn1.oid_value(attr_type), asn1.set_value(value))))
    rng = seeded(b"bag-attribute")
    element = pfx._privacy_wrap(asn1.der_encode(asn1.sequence(bag)), PRIVACY_PW, rng)
    octets = _macced_pfx(element, rng)
    with pytest.raises(SyntaxViolation) as raised:
        pfx_open(PfxPdu.from_der(octets), *PASSWORDS)
    assert type(raised.value) is SyntaxViolation
    with pytest.raises(SyntaxViolation):
        SafeBag(bags[0].value, (Attribute(attr_type, (value,)),))


def test_unmodelled_authenticated_safe_element_is_unsupported_algorithm(material):
    # plain data: SafeContents under no privacy (RFC 7292 §4.1), which pfx does not model
    element = cms.make_data(asn1.der_encode(asn1.sequence()))
    octets = _macced_pfx(element, seeded(b"data-element"))
    with pytest.raises(UnsupportedAlgorithm) as raised:
        pfx_open(PfxPdu.from_der(octets), *PASSWORDS)
    assert type(raised.value) is UnsupportedAlgorithm
    assert str(oids.CT_DATA) in str(raised.value)


def test_decoding_a_pfx_encodes_nothing(material, monkeypatch):
    bags, _, _ = material
    assert all(bag.attributes for bag in bags)
    octets = pfx_create(bags, *PASSWORDS, seeded(b"no-enc")).to_der()
    tags = []
    real_encode_tag = asn1._encode_tag
    monkeypatch.setattr(asn1, "_encode_tag", lambda v: tags.append(v) or real_encode_tag(v))
    assert pfx_open(PfxPdu.from_der(octets), *PASSWORDS) == bags
    assert tags == []


def test_wrong_privacy_password_after_valid_mac(material):
    bags, _, _ = material
    built = pfx_create(bags, *PASSWORDS, seeded(b"wp"))
    with pytest.raises(DecryptionError):
        pfx_open(built, b"not-the-password", INTEGRITY_PW)


def test_missing_credentials(material):
    bags, _, _ = material
    with pytest.raises(MissingCredential):
        pfx_create(bags, b"x", None, seeded(b"mc"))
    with pytest.raises(MissingCredential):
        pfx_create(bags, None, b"x", seeded(b"mc"))
    built = pfx_create(bags, *PASSWORDS, seeded(b"mc2"))
    with pytest.raises(MissingCredential):
        pfx_open(built, PRIVACY_PW, None)
    with pytest.raises(MissingCredential):
        pfx_open(built, None, INTEGRITY_PW)


def test_bag_attributes_preserved(material):
    bags, _, _ = material
    built = pfx_create(bags, *PASSWORDS, seeded(b"attrs"))
    recovered = pfx_open(built, *PASSWORDS)
    shrouded = [bag for bag in recovered if bag.bag_type == "shroudedKey"][0]
    names = {a.attr_type.dotted() for a in shrouded.attributes}
    assert names == {"1.2.840.113549.1.9.20", "1.2.840.113549.1.9.21"}


def test_plain_key_bag_warns_under_password_privacy(material):
    _, (privacies, _), info = material
    key_bag = SafeBag(info, ())
    with pytest.warns(PfxSecurityWarning):
        pfx_create((key_bag,), *PASSWORDS, seeded(b"w"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", PfxSecurityWarning)
        pfx_create((key_bag,), *PASSWORDS, seeded(b"w"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pfx_create((key_bag,), privacies["public_key"][0], INTEGRITY_PW, seeded(b"w"))


def test_unprotected_pfx_rejected(material):
    naked = PfxPdu(cms.make_data(b"whatever"), None)
    with pytest.raises(IntegrityFailure):
        pfx_open(naked, *PASSWORDS)


def test_bag_type_validation(material):
    bags, _, info = material
    assert [bag.bag_type for bag in (*bags, SafeBag(info))] == ["shroudedKey", "cert", "key"]
    with pytest.raises(ValueError):
        SafeBag(info.key, ())  # a value no bag type holds


def test_password_privacy_version_other_than_0_is_refused(material):
    bags, _, _ = material
    rng = seeded(b"privacy-version")
    element = pfx._privacy_wrap(pfx._safe_contents_der(bags), PRIVACY_PW, rng)
    _version, ecinfo = element.content.children
    for version in (9, 1):
        edited = cms.ContentInfo(oids.CT_ENCRYPTED_DATA,
                                 asn1.sequence(asn1.integer(version), ecinfo))
        with pytest.raises(DecryptionError):
            pfx._privacy_unwrap(edited, PRIVACY_PW)
        # MACed with the right password, so only the privacy layer can refuse it
        with pytest.raises(DecryptionError):
            pfx_open(PfxPdu.from_der(_macced_pfx(edited, rng)), *PASSWORDS)
    assert (asn1.der_encode(pfx._privacy_unwrap(element, PRIVACY_PW))
            == pfx._safe_contents_der(bags))


@pytest.mark.parametrize("declared", [oids.CT_SIGNED_DATA, oids.CT_ENCRYPTED_DATA])
def test_password_privacy_declaring_a_type_other_than_data_is_refused(material, declared):
    bags, _, _ = material
    rng = seeded(b"privacy-type")
    element = pfx._privacy_wrap(pfx._safe_contents_der(bags), PRIVACY_PW, rng)
    version, ecinfo = element.content.children
    _type, *rest = ecinfo.children
    edited = cms.ContentInfo(oids.CT_ENCRYPTED_DATA, asn1.sequence(
        version, asn1.sequence(asn1.oid_value(declared), *rest)))
    with pytest.raises(DecryptionError):
        pfx._privacy_unwrap(edited, PRIVACY_PW)
    # MACed with the right password, so only the privacy layer can refuse it
    with pytest.raises(DecryptionError):
        pfx_open(PfxPdu.from_der(_macced_pfx(edited, rng)), *PASSWORDS)


def test_pfx_version_other_than_three_is_unsupported(material):
    bags, (privacies, _), _ = material
    built = pfx_create(bags, privacies["public_key"][0], INTEGRITY_PW, seeded(b"version"))
    _, *rest = asn1.der_decode(built.to_der()).children
    # 10**5000 has more digits than CPython prints (4300)
    for version in (7, 2, 10**5000):
        edited = asn1.der_encode(asn1.sequence(asn1.integer(version), *rest))
        with pytest.raises(UnsupportedAlgorithm, match="version"):
            PfxPdu.from_der(edited)
    assert PfxPdu.from_der(built.to_der()).version == 3


def test_reprs_print_no_secret(key_1024):
    """d, the primes and the CRT values of a key appear in no repr; n's size, u and e do."""
    _, private = key_1024
    secrets = [private.d, *private.primes, *private.crt_exponents, *private.crt_coefficients[1:]]
    info = PrivateKeyInfo(private)
    texts = [repr(private), repr(info), repr(SafeBag(info))]
    for text in texts:
        assert not any(str(value) in text for value in secrets), text
    assert "1024 bits" in texts[0] and "u=2" in texts[0] and "e=65537" in texts[0]


def test_mac_iteration_count_above_cap_fails_before_pbkdf2(material, monkeypatch):
    bags, (privacies, _), _ = material
    seal, unseal = privacies["public_key"]
    built = pfx_create(bags, seal, INTEGRITY_PW, seeded(b"mac-cap"))
    edited = PfxPdu(built.auth_safe,
                    MacData(built.mac_data.tag, built.mac_data.salt, 2**40)).to_der()

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on an over-cap iteration count")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    with pytest.raises(pkcs5.TooManyIterations):
        pfx_open(PfxPdu.from_der(edited), unseal, INTEGRITY_PW)


@pytest.mark.parametrize("salt,count", [(b"saltsalt", 0), (b"saltsalt", -1), (b"", 2048)])
def test_mac_nonpositive_count_or_empty_salt_is_malformed(material, salt, count):
    bags, (privacies, _), _ = material
    built = pfx_create(bags, privacies["public_key"][0], INTEGRITY_PW, seeded(b"mac-low"))
    edited = PfxPdu(built.auth_safe, MacData(built.mac_data.tag, salt, count)).to_der()
    with pytest.raises(MalformedKey):
        PfxPdu.from_der(edited)


@pytest.mark.parametrize("salt,count", [(b"saltsalt", 0), (b"saltsalt", -1), (b"", 2048)])
def test_privacy_nonpositive_count_or_empty_salt_is_uniform(material, monkeypatch, salt, count):
    bags, _, _ = material
    real = pkcs5.pbes2_algorithm
    # the edited header is MACed, so only the privacy layer can refuse it
    monkeypatch.setattr(pkcs5, "pbes2_algorithm",
                        lambda _salt, _count, iv: real(salt, count, iv))
    built = pfx_create(bags, *PASSWORDS, seeded(b"priv-low"))
    with pytest.raises(DecryptionError):
        pfx_open(PfxPdu.from_der(built.to_der()), *PASSWORDS)


def test_mac_covers_the_auth_safe_octets_as_received(material, monkeypatch):
    bags, (privacies, _), _ = material
    seal, unseal = privacies["public_key"]
    octets = pfx_create(bags, seal, INTEGRITY_PW, seeded(b"mac-in")).to_der()
    received = asn1.der_encode(asn1.der_decode(octets).children[1])  # the authSafe slice
    decoded = PfxPdu.from_der(octets)
    tags, macced = [], []
    real_encode_tag, real_verify = asn1._encode_tag, pfx.pbmac1_verify
    monkeypatch.setattr(asn1, "_encode_tag", lambda v: tags.append(v) or real_encode_tag(v))
    monkeypatch.setattr(pfx, "pbmac1_verify",
                        lambda message, *args: macced.append((message, len(tags)))
                        or real_verify(message, *args))
    assert pfx_open(decoded, unseal, INTEGRITY_PW) == bags
    # the MAC ran over the received octets, and nothing was encoded to get them
    assert macced == [(received, 0)]


def _lacking(credentials, privacy: str, integrity: str, missing: str) -> tuple:
    """pfx_create's privacy and integrity credentials for the two modes, with
    the one named ``missing``, or that part of the source's pair, left out."""
    privacies, integrities = credentials
    seal, sign = privacies[privacy][0], integrities[integrity][0]
    if missing == "privacy":
        return None, sign
    if missing == "integrity":
        return seal, None
    return seal, tuple(None if part == missing else value
                       for part, value in zip(("source_sign_key", "source_name"), sign))


class _Untouched(RandomSource):
    def read(self, n: int) -> bytes:
        pytest.fail("pfx_create drew an octet before it refused")


def _unread_bags():
    pytest.fail("pfx_create read its bags before it refused")
    yield


PRIVACY_REFUSAL = "privacy needs a privacy password or the destination public key"
INTEGRITY_REFUSAL = ("integrity needs an integrity password or the source signing key and "
                     "source name")


@pytest.mark.parametrize("privacy,integrity,missing,message", [
    ("password", "public_key", "privacy", PRIVACY_REFUSAL),
    ("public_key", "password", "privacy", PRIVACY_REFUSAL),
    ("public_key", "password", "integrity", INTEGRITY_REFUSAL),
    ("password", "public_key", "source_sign_key", INTEGRITY_REFUSAL),
    ("password", "public_key", "source_name", INTEGRITY_REFUSAL),
], ids=["privacy_password", "destination_pub", "integrity_password", "source_sign_key",
        "source_name"])
def test_pfx_create_refuses_before_it_reads_a_bag_or_draws_an_octet(
        material, privacy, integrity, missing, message):
    _, credentials, _ = material
    with pytest.raises(MissingCredential) as raised:
        pfx_create(_unread_bags(), *_lacking(credentials, privacy, integrity, missing),
                   _Untouched())
    assert type(raised.value) is MissingCredential and str(raised.value) == message


@pytest.mark.parametrize("privacy,integrity,missing,message", [
    ("public_key", "password", "destination_priv", "destination private key"),
    ("password", "public_key", "source_sign_key", "source signing key"),
    ("password", "public_key", "source_verify_key", "source public key"),
], ids=["_privacy_unwrap", "pfx_create", "pfx_open"])
def test_public_key_modes_need_their_credentials(material, privacy, integrity, missing, message):
    bags, (privacies, integrities), _ = material
    (seal, unseal), (sign, check) = privacies[privacy], integrities[integrity]
    if missing == "source_sign_key":
        sign = (None, sign[1])
    with pytest.raises(MissingCredential, match=message):
        pfx_open(pfx_create(bags, seal, sign, seeded(b"lacking")),
                 None if missing == "destination_priv" else unseal,
                 None if missing == "source_verify_key" else check)
