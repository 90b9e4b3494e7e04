"""Every CBC reader fails the same way: bad padding, good padding over octets
that are not DER, a ciphertext of the wrong length and a wrong key or
password each raise the one DecryptionError, with no cause attached."""

import pytest

from pkcswb import asn1, cms, oids
from pkcswb.asn1 import AlgorithmIdentifier, der_encode
from pkcswb.errors import DecryptionError
from pkcswb.keystore import EncryptedPrivateKeyInfo, PrivateKeyInfo, decrypt_private_key
from pkcswb.pfx import MacData, PfxCredentials, PfxPdu, pfx_open
from pkcswb.pkcs5 import AES128_KEY_LEN, Pbkdf2Params, pbes2_algorithm, pbkdf2, pbmac1_tag
from pkcswb.primitives import cbc_encrypt
from conftest import seeded

IV = b"i" * 16
AES_CBC = AlgorithmIdentifier(oids.AES128_CBC, asn1.octet_string(IV))
PBES2 = pbes2_algorithm(b"saltsalt", 16, IV)
PASSWORD = b"right-pw"
PASSWORD_KEY = pbkdf2(PASSWORD, Pbkdf2Params(b"saltsalt", 16, AES128_KEY_LEN))


def _decrypt_data(right, ciphertext):
    sealed = cms._encrypted_data(oids.CT_DATA, AES_CBC, ciphertext)
    return cms.decrypt_data(sealed, b"k" * 16 if right else b"j" * 16)


def _enveloped(public, ciphertext):
    """An enveloped-data whose encrypted content is ``ciphertext`` under the
    content key seeded(b"matrix") draws first."""
    version_v, recipient_v, _ = asn1._fields(
        cms.envelope(cms.make_data(b"m"), public, seeded(b"matrix")).content, 3)
    return cms.ContentInfo(oids.CT_ENVELOPED_DATA, asn1.sequence(
        version_v, recipient_v, cms._encrypted_content_value(oids.CT_DATA, AES_CBC, ciphertext)))


def _open_envelope(keys, right, ciphertext):
    (public, private), (_, wrong_private) = keys
    return cms.open_envelope(_enveloped(public, ciphertext), private if right else wrong_private)


def _decrypt_private_key(right, ciphertext):
    return decrypt_private_key(EncryptedPrivateKeyInfo(PBES2, ciphertext),
                               PASSWORD if right else b"wrong-pw")


def _pfx_open(element, credentials):
    """A PFX holding ``element`` whose MAC verifies, so decryption runs."""
    auth_safe = cms.make_data(der_encode(asn1.sequence(element.to_der_value())))
    tag = pbmac1_tag(auth_safe.to_der(), b"integrity-pw", b"mac-salt", 16)
    return pfx_open(PfxPdu(auth_safe, MacData(tag, b"mac-salt", 16)),
                    PfxCredentials(integrity_password=b"integrity-pw", **credentials))


def _pfx_open_password(right, ciphertext):
    return _pfx_open(cms._encrypted_data(oids.CT_DATA, PBES2, ciphertext),
                     {"privacy_password": PASSWORD if right else b"wrong-pw"})


def _pfx_open_public_key(keys, right, ciphertext):
    (public, private), (_, wrong_private) = keys
    return _pfx_open(_enveloped(public, ciphertext),
                     {"destination_priv": private if right else wrong_private})


@pytest.fixture(params=["decrypt_data", "open_envelope", "decrypt_private_key",
                        "pfx_open", "pfx_open public_key"])
def reader(request):
    """(content-encryption key, a plaintext the reader accepts, a plaintext
    with good padding it refuses, open(right, ciphertext))."""
    if request.param == "decrypt_data":
        return b"k" * 16, cms.make_data(b"m").to_der(), b"not DER", _decrypt_data
    if request.param == "decrypt_private_key":
        info = PrivateKeyInfo(request.getfixturevalue("key_512")[1])
        return PASSWORD_KEY, info.to_der(), b"not DER", _decrypt_private_key
    if request.param == "pfx_open":  # password privacy
        return PASSWORD_KEY, der_encode(asn1.sequence()), b"not DER", _pfx_open_password
    keys = request.getfixturevalue("key_1024"), request.getfixturevalue("key_1024_b")
    cek = seeded(b"matrix").read(16)  # envelope draws the content key first
    if request.param == "open_envelope":
        return (cek, cms.make_data(b"m").to_der(), b"not DER",
                lambda right, ciphertext: _open_envelope(keys, right, ciphertext))
    # the SafeContents inside the data ContentInfo is what is not DER
    return (cek, cms.make_data(der_encode(asn1.sequence())).to_der(),
            cms.make_data(b"not DER").to_der(),
            lambda right, ciphertext: _pfx_open_public_key(keys, right, ciphertext))


def test_each_reader_fails_one_way_on_every_malformation(reader):
    key, plaintext, refused, read = reader
    sealed = cbc_encrypt(key, IV, plaintext)
    read(True, sealed)  # the matrix builds a ciphertext the reader accepts
    cases = {
        "bad padding": (True, cbc_encrypt(key, IV, bytes(16))[:16]),
        "good padding, not DER": (True, cbc_encrypt(key, IV, refused)),
        "length not a multiple of 16": (True, sealed[:-1]),
        "wrong key or password": (False, sealed),
    }
    shapes = set()
    for right, ciphertext in cases.values():
        with pytest.raises(DecryptionError) as info:
            read(right, ciphertext)
        assert info.value.args == ("decryption failed",)
        assert info.value.__cause__ is None
        shapes.add((type(info.value), info.value.args, info.value.__cause__))
    assert len(shapes) == 1
