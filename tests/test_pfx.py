import warnings

import pytest

from pkcswb import asn1, cms, oids, pfx, pkcs5, rsa
from pkcswb.csr import Name, build_csr
from pkcswb.errors import (DecryptionError, IntegrityFailure, MalformedKey, MissingCredential,
                           UnsupportedAlgorithm)
from pkcswb.keystore import PrivateKeyInfo, attribute_make, encrypt_private_key
from pkcswb.pfx import (MacData, PfxCredentials, PfxPdu, PfxSecurityWarning,
                        SafeBag, pfx_create, pfx_open)
from pkcswb.primitives import RandomSource
from conftest import seeded


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
        SafeBag("shroudedKey", epki, (key_id, attribute_make("friendlyName", "k"))),
        SafeBag("cert", certificate, (key_id,)),
    )
    dest_public, dest_private = key_1024_c
    credentials = PfxCredentials(
        privacy_password=b"privacy-pw", integrity_password=b"integrity-pw",
        destination_pub=dest_public, destination_priv=dest_private,
        source_sign_key=alice_private, source_verify_key=alice_public,
        source_name=name)
    return bags, credentials, info


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
    bags, credentials, _ = material
    built = pfx_create(bags, privacy, integrity, credentials, seeded(b"modes"))
    encoded = built.to_der()
    decoded = PfxPdu.from_der(encoded)
    assert decoded == built
    assert decoded.to_der() == encoded
    recovered = pfx_open(decoded, credentials)
    assert recovered == bags
    assert steps == [("integrity", integrity), ("privacy", privacy)]


def test_mac_data_shape(material):
    bags, credentials, _ = material
    built = pfx_create(bags, "password", "password", credentials, seeded(b"mac"))
    assert built.version == 3
    assert isinstance(built.mac_data, MacData)
    assert len(built.mac_data.tag) == 32
    public_key_built = pfx_create(bags, "password", "public_key", credentials,
                                  seeded(b"mac2"))
    assert public_key_built.mac_data is None


def test_integrity_checked_before_privacy_on_tamper(material, steps):
    bags, credentials, _ = material
    built = pfx_create(bags, "password", "password", credentials, seeded(b"tamper"))
    encoded = bytearray(built.to_der())
    encoded[len(encoded) // 2] ^= 0x01
    with pytest.raises(IntegrityFailure):
        pfx_open(PfxPdu.from_der(bytes(encoded)), credentials)
    assert ("integrity", "password") in steps
    assert all(kind != "privacy" for kind, _ in steps)


def test_signature_integrity_tamper(material, steps):
    bags, credentials, _ = material
    built = pfx_create(bags, "password", "public_key", credentials, seeded(b"t2"))
    encoded = bytearray(built.to_der())
    encoded[len(encoded) // 2] ^= 0x01
    with pytest.raises(IntegrityFailure):
        pfx_open(PfxPdu.from_der(bytes(encoded)), credentials)
    assert all(kind != "privacy" for kind, _ in steps)


def test_two_authenticated_safe_elements_open_to_both_bags(material):
    bags, credentials, _ = material
    rng = seeded(b"two-elements")
    elements = [pfx._privacy_wrap(pfx._safe_contents_der((bag,)), "password",
                                  credentials, rng).to_der_value() for bag in bags]
    auth_safe = cms.make_data(asn1.der_encode(asn1.sequence(*elements)))
    salt = rng.read(8)
    tag = pkcs5.pbmac1_tag(auth_safe.to_der(), credentials.integrity_password, salt, 2048)
    octets = PfxPdu(auth_safe, MacData(tag, salt, 2048)).to_der()
    assert pfx_open(PfxPdu.from_der(octets), credentials) == bags


def _macced_pfx(element: cms.ContentInfo, credentials, rng) -> bytes:
    """A password-MACed PFX whose one authenticated-safe element is ``element``."""
    auth_safe = cms.make_data(asn1.der_encode(asn1.sequence(element.to_der_value())))
    salt = rng.read(8)
    tag = pkcs5.pbmac1_tag(auth_safe.to_der(), credentials.integrity_password, salt, 2048)
    return PfxPdu(auth_safe, MacData(tag, salt, 2048)).to_der()


@pytest.mark.parametrize("privacy", ["password", "public_key"])
def test_unmodelled_bag_type_is_unsupported_algorithm(material, privacy):
    # a secretBag (RFC 7292 §4.2.5) from another writer, correctly MACed and encrypted
    _, credentials, _ = material
    secret_bag = asn1.Oid.parse("1.2.840.113549.1.12.10.1.5")
    bag = asn1.sequence(asn1.oid_value(secret_bag), asn1.explicit(0, asn1.sequence(
        asn1.oid_value(oids.CT_DATA), asn1.explicit(0, asn1.octet_string(b"secret")))))
    rng = seeded(b"secret-bag")
    element = pfx._privacy_wrap(asn1.der_encode(asn1.sequence(bag)), privacy, credentials, rng)
    octets = _macced_pfx(element, credentials, rng)
    with pytest.raises(UnsupportedAlgorithm) as raised:
        pfx_open(PfxPdu.from_der(octets), credentials)
    assert type(raised.value) is UnsupportedAlgorithm  # a ValueError, declared
    assert str(secret_bag) in str(raised.value)
    for crl_or_contents in ("1.2.840.113549.1.12.10.1.4", "1.2.840.113549.1.12.10.1.6"):
        other = asn1.sequence(asn1.oid_value(crl_or_contents), asn1.explicit(0, asn1.null()))
        with pytest.raises(UnsupportedAlgorithm):
            SafeBag.from_der_value(other)


def test_unmodelled_authenticated_safe_element_is_unsupported_algorithm(material):
    # plain data: SafeContents under no privacy (RFC 7292 §4.1), which pfx does not model
    _, credentials, _ = material
    element = cms.make_data(asn1.der_encode(asn1.sequence()))
    octets = _macced_pfx(element, credentials, seeded(b"data-element"))
    with pytest.raises(UnsupportedAlgorithm) as raised:
        pfx_open(PfxPdu.from_der(octets), credentials)
    assert type(raised.value) is UnsupportedAlgorithm
    assert str(oids.CT_DATA) in str(raised.value)


def test_decoding_a_pfx_encodes_nothing(material, monkeypatch):
    bags, credentials, _ = material
    assert all(bag.attributes for bag in bags)
    octets = pfx_create(bags, "password", "password", credentials, seeded(b"no-enc")).to_der()
    tags = []
    real_encode_tag = asn1._encode_tag
    monkeypatch.setattr(asn1, "_encode_tag", lambda v: tags.append(v) or real_encode_tag(v))
    assert pfx_open(PfxPdu.from_der(octets), credentials) == bags
    assert tags == []


def test_wrong_privacy_password_after_valid_mac(material):
    bags, credentials, _ = material
    built = pfx_create(bags, "password", "password", credentials, seeded(b"wp"))
    wrong = PfxCredentials(privacy_password=b"not-the-password",
                           integrity_password=b"integrity-pw")
    with pytest.raises(DecryptionError):
        pfx_open(built, wrong)


def test_missing_credentials(material):
    bags, credentials, _ = material
    with pytest.raises(MissingCredential):
        pfx_create(bags, "password", "password",
                   PfxCredentials(privacy_password=b"x"), seeded(b"mc"))
    with pytest.raises(MissingCredential):
        pfx_create(bags, "password", "password",
                   PfxCredentials(integrity_password=b"x"), seeded(b"mc"))
    with pytest.raises(MissingCredential):
        pfx_create(bags, "public_key", "password",
                   PfxCredentials(integrity_password=b"x"), seeded(b"mc"))
    built = pfx_create(bags, "password", "password", credentials, seeded(b"mc2"))
    with pytest.raises(MissingCredential):
        pfx_open(built, PfxCredentials(privacy_password=b"privacy-pw"))
    with pytest.raises(MissingCredential):
        pfx_open(built, PfxCredentials(integrity_password=b"integrity-pw"))


def test_bag_attributes_preserved(material):
    bags, credentials, _ = material
    built = pfx_create(bags, "password", "password", credentials, seeded(b"attrs"))
    recovered = pfx_open(built, credentials)
    shrouded = [bag for bag in recovered if bag.bag_type == "shroudedKey"][0]
    names = {a.attr_type.dotted() for a in shrouded.attributes}
    assert names == {"1.2.840.113549.1.9.20", "1.2.840.113549.1.9.21"}


def test_plain_key_bag_warns_under_password_privacy(material):
    bags, credentials, info = material
    key_bag = SafeBag("key", info, ())
    with pytest.warns(PfxSecurityWarning):
        pfx_create((key_bag,), "password", "password", credentials, seeded(b"w"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", PfxSecurityWarning)
        pfx_create((key_bag,), "password", "password", credentials, seeded(b"w"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pfx_create((key_bag,), "public_key", "password", credentials, seeded(b"w"))


def test_unprotected_pfx_rejected(material):
    bags, credentials, _ = material
    naked = PfxPdu(cms.make_data(b"whatever"), None)
    with pytest.raises(IntegrityFailure):
        pfx_open(naked, credentials)


def test_bag_type_validation(material):
    _, _, info = material
    with pytest.raises(ValueError):
        SafeBag("unknown", info, ())
    with pytest.raises(ValueError):
        SafeBag("cert", info, ())  # wrong value type for the bag


def test_password_privacy_version_other_than_0_is_refused(material):
    bags, credentials, _ = material
    rng = seeded(b"privacy-version")
    element = pfx._privacy_wrap(pfx._safe_contents_der(bags), "password", credentials, rng)
    _version, ecinfo = element.content.children
    for version in (9, 1):
        edited = cms.ContentInfo(oids.CT_ENCRYPTED_DATA,
                                 asn1.sequence(asn1.integer(version), ecinfo))
        with pytest.raises(DecryptionError):
            pfx._privacy_unwrap(edited, credentials)
        # MACed with the right password, so only the privacy layer can refuse it
        with pytest.raises(DecryptionError):
            pfx_open(PfxPdu.from_der(_macced_pfx(edited, credentials, rng)), credentials)
    assert (asn1.der_encode(pfx._privacy_unwrap(element, credentials))
            == pfx._safe_contents_der(bags))


@pytest.mark.parametrize("declared", [oids.CT_SIGNED_DATA, oids.CT_ENCRYPTED_DATA])
def test_password_privacy_declaring_a_type_other_than_data_is_refused(material, declared):
    bags, credentials, _ = material
    rng = seeded(b"privacy-type")
    element = pfx._privacy_wrap(pfx._safe_contents_der(bags), "password", credentials, rng)
    version, ecinfo = element.content.children
    _type, *rest = ecinfo.children
    edited = cms.ContentInfo(oids.CT_ENCRYPTED_DATA, asn1.sequence(
        version, asn1.sequence(asn1.oid_value(declared), *rest)))
    with pytest.raises(DecryptionError):
        pfx._privacy_unwrap(edited, credentials)
    # MACed with the right password, so only the privacy layer can refuse it
    with pytest.raises(DecryptionError):
        pfx_open(PfxPdu.from_der(_macced_pfx(edited, credentials, rng)), credentials)


def test_pfx_version_other_than_three_is_unsupported(material):
    bags, credentials, _ = material
    built = pfx_create(bags, "public_key", "password", credentials, seeded(b"version"))
    _, *rest = asn1.der_decode(built.to_der()).children
    # 10**5000 has more digits than CPython prints (4300)
    for version in (7, 2, 10**5000):
        edited = asn1.der_encode(asn1.sequence(asn1.integer(version), *rest))
        with pytest.raises(UnsupportedAlgorithm, match="version"):
            PfxPdu.from_der(edited)
    assert PfxPdu.from_der(built.to_der()).version == 3


def test_reprs_print_no_secret(key_1024, key_1024_b):
    """d, the primes and the CRT values of a key, and the passwords of PFX
    credentials, appear in no repr; n's size, u and e do."""
    public, private = key_1024
    secrets = [private.d, *private.primes, *private.crt_exponents, *private.crt_coefficients[1:]]
    info = PrivateKeyInfo(private)
    texts = [repr(private), repr(info), repr(SafeBag("key", info))]
    for text in texts:
        assert not any(str(value) in text for value in secrets), text
    assert "1024 bits" in texts[0] and "u=2" in texts[0] and "e=65537" in texts[0]
    passwords = (b"privacy-secret", b"integrity-secret")
    credentials = repr(PfxCredentials(*passwords, destination_pub=key_1024_b[0],
                                      destination_priv=key_1024_b[1],
                                      source_sign_key=private, source_verify_key=public))
    for password in passwords:
        assert password.decode() not in credentials and password.hex() not in credentials
    assert str(key_1024_b[1].d) not in credentials and str(private.d) not in credentials


def test_mac_iteration_count_above_cap_fails_before_pbkdf2(material, monkeypatch):
    bags, credentials, _ = material
    built = pfx_create(bags, "public_key", "password", credentials, seeded(b"mac-cap"))
    edited = PfxPdu(built.auth_safe,
                    MacData(built.mac_data.tag, built.mac_data.salt, 2**40)).to_der()

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on an over-cap iteration count")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    with pytest.raises(pkcs5.TooManyIterations):
        pfx_open(PfxPdu.from_der(edited), credentials)


@pytest.mark.parametrize("salt,count", [(b"saltsalt", 0), (b"saltsalt", -1), (b"", 2048)])
def test_mac_nonpositive_count_or_empty_salt_is_malformed(material, salt, count):
    bags, credentials, _ = material
    built = pfx_create(bags, "public_key", "password", credentials, seeded(b"mac-low"))
    edited = PfxPdu(built.auth_safe, MacData(built.mac_data.tag, salt, count)).to_der()
    with pytest.raises(MalformedKey):
        PfxPdu.from_der(edited)


@pytest.mark.parametrize("salt,count", [(b"saltsalt", 0), (b"saltsalt", -1), (b"", 2048)])
def test_privacy_nonpositive_count_or_empty_salt_is_uniform(material, monkeypatch, salt, count):
    bags, credentials, _ = material
    real = pkcs5.pbes2_algorithm
    # the edited header is MACed, so only the privacy layer can refuse it
    monkeypatch.setattr(pkcs5, "pbes2_algorithm",
                        lambda _salt, _count, iv: real(salt, count, iv))
    built = pfx_create(bags, "password", "password", credentials, seeded(b"priv-low"))
    with pytest.raises(DecryptionError):
        pfx_open(PfxPdu.from_der(built.to_der()), credentials)


def test_mac_covers_the_auth_safe_octets_as_received(material, monkeypatch):
    bags, credentials, _ = material
    octets = pfx_create(bags, "public_key", "password", credentials, seeded(b"mac-in")).to_der()
    received = asn1.der_encode(asn1.der_decode(octets).children[1])  # the authSafe slice
    decoded = PfxPdu.from_der(octets)
    tags, macced = [], []
    real_encode_tag, real_verify = asn1._encode_tag, pfx.pbmac1_verify
    monkeypatch.setattr(asn1, "_encode_tag", lambda v: tags.append(v) or real_encode_tag(v))
    monkeypatch.setattr(pfx, "pbmac1_verify",
                        lambda message, *args: macced.append((message, len(tags)))
                        or real_verify(message, *args))
    assert pfx_open(decoded, credentials) == bags
    # the MAC ran over the received octets, and nothing was encoded to get them
    assert macced == [(received, 0)]


def _lacking(credentials: PfxCredentials, missing: str | None) -> PfxCredentials:
    """``credentials`` without the one named ``missing``."""
    return PfxCredentials(**{
        name: None if name == missing else getattr(credentials, name)
        for name in ("privacy_password", "integrity_password", "destination_pub",
                     "destination_priv", "source_sign_key", "source_verify_key", "source_name")})


class _Untouched(RandomSource):
    def read(self, n: int) -> bytes:
        pytest.fail("pfx_create drew an octet before it refused")


def _unread_bags():
    pytest.fail("pfx_create read its bags before it refused")
    yield


@pytest.mark.parametrize("privacy,integrity,missing,refusal", [
    ("password", "public_key", "privacy_password",
     (MissingCredential, "password privacy needs a privacy password")),
    ("public_key", "password", "destination_pub",
     (MissingCredential, "public-key privacy needs the destination public key")),
    ("public_key", "password", "integrity_password",
     (MissingCredential, "password integrity needs an integrity password")),
    ("password", "public_key", "source_sign_key",
     (MissingCredential, "public-key integrity needs the source signing key and name")),
    ("password", "public_key", "source_name",
     (MissingCredential, "public-key integrity needs the source signing key and name")),
    ("shrouded", "password", None, (ValueError, "unknown mode: privacy 'shrouded'")),
    ("password", "signed", None, (ValueError, "unknown mode: privacy 'password', "
                                              "integrity 'signed'")),
], ids=["privacy_password", "destination_pub", "integrity_password", "source_sign_key",
        "source_name", "unknown-privacy", "unknown-integrity"])
def test_pfx_create_refuses_before_it_reads_a_bag_or_draws_an_octet(
        material, privacy, integrity, missing, refusal):
    _, credentials, _ = material
    error, message = refusal
    with pytest.raises(error) as raised:
        pfx_create(_unread_bags(), privacy, integrity, _lacking(credentials, missing),
                   _Untouched())
    assert type(raised.value) is error and str(raised.value).startswith(message)


@pytest.mark.parametrize("privacy,integrity,missing,message", [
    ("public_key", "password", "destination_priv", "destination private key"),
    ("password", "public_key", "source_sign_key", "source signing key"),
    ("password", "public_key", "source_verify_key", "source public key"),
], ids=["_privacy_unwrap", "pfx_create", "pfx_open"])
def test_public_key_modes_need_their_credentials(material, privacy, integrity, missing, message):
    bags, credentials, _ = material
    lacking = _lacking(credentials, missing)
    with pytest.raises(MissingCredential, match=message):
        pfx_open(pfx_create(bags, privacy, integrity, lacking, seeded(b"lacking")), lacking)


def test_credentials_repr_names_the_size_of_a_large_public_key():
    public = rsa.RsaPublicKey(2**16383 + 1, 65537)  # 4933 decimal digits
    assert "n=<16384 bits>" in repr(PfxCredentials(destination_pub=public))
