import hashlib
import random
import warnings

import pytest

from pkcswb import asn1, cms, oids, pfx, rsa
from pkcswb.asn1 import AlgorithmIdentifier, der_encode
from pkcswb.cms import ContentInfo
from pkcswb.csr import CertificationRequest, Name, build_csr, verify_csr
from pkcswb.keystore import (EncryptedPrivateKeyInfo, PrivateKeyInfo, attribute_make,
                             decrypt_private_key, encrypt_private_key)
from pkcswb.pfx import PfxCredentials, PfxPdu, SafeBag, pfx_create, pfx_open
from pkcswb.primitives import HashAlg, SeededSource

MUTANTS = 500


def seeded(tag: bytes) -> SeededSource:
    return SeededSource(tag)


def tiny_hash(out_len: int) -> HashAlg:
    """Truncated SHA-256, for exercising padding layouts at small moduli."""
    return HashAlg(f"sha256/{out_len}", raw=lambda data: hashlib.sha256(data).digest()[:out_len])


def count_sha256_constructions(monkeypatch) -> list[bytes]:
    """Initial data of every ``hashlib.sha256`` object made from now on; a
    copied state is not counted."""
    made = []
    construct = hashlib.sha256

    def counting(data=b"", **kwargs):
        made.append(bytes(data))
        return construct(data, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return made


def hmac_pads(key: bytes) -> list[bytes]:
    """The two blocks K xor ipad, K xor opad of a key of at most 64 octets."""
    key = key.ljust(64, b"\x00")
    return [bytes(b ^ 0x36 for b in key), bytes(b ^ 0x5C for b in key)]


@pytest.fixture(scope="session")
def key_1024():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024"))


@pytest.fixture(scope="session")
def key_1024_b():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024b"))


@pytest.fixture(scope="session")
def key_1024_c():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024c"))


@pytest.fixture(scope="session")
def key_512():
    return rsa.generate_key(512, 2, 65537, seeded(b"fixture/512"))


@pytest.fixture(scope="session")
def toy_keys():
    """u in {2, 3, 4} with primes of at most 24 bits."""
    return {
        u: rsa.generate_key(24 * u, u, 65537, seeded(b"fixture/toy%d" % u))
        for u in (2, 3, 4)
    }


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


# -- the seeded targets of the mutation nets ------------------------------------


def _mutants(octets: bytes, rng: random.Random):
    """MUTANTS one-edit mutants of ``octets``, none equal to it: a bit flip, a
    truncation, an octet inserted, deleted or replaced.  A replacement that
    draws the octet already there takes its complement instead."""
    for _ in range(MUTANTS):
        at = rng.randrange(len(octets))
        edit = rng.randrange(5)
        if edit == 0:
            yield octets[:at] + bytes([octets[at] ^ 1 << rng.randrange(8)]) + octets[at + 1:]
        elif edit == 1:
            yield octets[:at]
        elif edit == 2:
            yield octets[:at] + bytes([rng.randrange(256)]) + octets[at:]
        elif edit == 3:
            yield octets[:at] + octets[at + 1:]
        else:
            octet = rng.randrange(256)
            if octet == octets[at]:
                octet ^= 0xFF
            yield octets[:at] + bytes([octet]) + octets[at + 1:]


@pytest.fixture(scope="module")
def targets(key_1024, key_1024_b, toy_keys):
    """name -> (octets, opener): opener reads the octets as its reader would."""
    public, private = key_1024
    other_public, other_private = key_1024_b
    rng = seeded(b"mutation")
    name = Name((("commonName", "Alice"),))
    ident = cms.SignerIdent(name, b"k")
    attrs = (attribute_make("signingTime", "200101120000Z"),)
    key_id = attribute_make("localKeyId", b"\x01")
    info = PrivateKeyInfo(toy_keys[3][1], (key_id, attribute_make("friendlyName", "k")))
    epki = encrypt_private_key(info, b"pw", b"saltsalt", 2, rng)
    csr = build_csr(name, key_1024, (attribute_make("challengePassword", "pw"),), rng)
    inner = cms.make_data(b"mutated payload")
    credentials = PfxCredentials(
        privacy_password=b"privacy", integrity_password=b"integrity",
        destination_pub=other_public, destination_priv=other_private,
        source_sign_key=private, source_verify_key=public, source_name=name)
    bags = (SafeBag(epki, (key_id,)), SafeBag(info, (key_id,)))

    def ci(opener):
        return lambda octets: opener(ContentInfo.from_der(octets))

    out = {
        "PrivateKeyInfo": (info.to_der(), PrivateKeyInfo.from_der),
        "EncryptedPrivateKeyInfo": (epki.to_der(), lambda octets: decrypt_private_key(
            EncryptedPrivateKeyInfo.from_der(octets), b"pw")),
        "CertificationRequest": (csr.to_der(), lambda octets: verify_csr(
            CertificationRequest.from_der(octets))),
        "data": (inner.to_der(), ci(cms.data_payload)),
        "signed-data": (cms.sign_data(inner, private, ident, attrs, rng).to_der(),
                        ci(lambda value: cms.verify_signed(value, public))),
        "enveloped-data": (cms.envelope(inner, other_public, rng).to_der(),
                           ci(lambda value: cms.open_envelope(value, other_private))),
        "digested-data": (cms.digest_data(inner).to_der(), ci(cms.check_digest)),
        "encrypted-data": (cms.encrypt_data(inner, b"k" * 16, rng).to_der(),
                           ci(lambda value: cms.decrypt_data(value, b"k" * 16))),
        "authenticated-data": (cms.authenticate_data(inner, b"mac key", attrs).to_der(),
                               ci(lambda value: cms.check_auth(value, b"mac key"))),
    }
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(pfx, "_MAC_ITERATIONS", 2)
        patch.setattr(pfx, "_PRIVACY_ITERATIONS", 3)
        warnings.simplefilter("ignore", pfx.PfxSecurityWarning)
        for privacy in ("password", "public_key"):
            for integrity in ("password", "public_key"):
                built = pfx_create(bags, privacy, integrity, credentials, rng)
                out[f"pfx-{privacy}-{integrity}"] = (built.to_der(), lambda octets: pfx_open(
                    PfxPdu.from_der(octets), credentials))
    return out
