"""Every container reader is total: edited octets open or raise a declared error.

Each target is built once, then opened as 500 one-edit mutants drawn under a
fixed seed: a bit flip, a truncation, one octet inserted or deleted, or one
octet replaced.  Only declared errors (``PkcsError``) may escape; a bare
ValueError, IndexError, AttributeError or ZeroDivisionError fails the test.
PBKDF2 counts are set to 2 or 3 when the targets are built, so that a mutant
costs microseconds, not the milliseconds of a real count.  Each mutant's end
is recorded, and the lines are pinned in ``ledger.MUTANT_OUTCOMES``.
"""

import random

import pytest

from pkcswb import asn1, cms, pfx
from pkcswb.cms import ContentInfo
from pkcswb.csr import CertificationRequest, Name, build_csr, verify_csr
from pkcswb.errors import PkcsError
from pkcswb.keystore import (EncryptedPrivateKeyInfo, MalformedKey, PrivateKeyInfo,
                             attribute_make, decrypt_private_key, encrypt_private_key)
from pkcswb.pfx import PfxCredentials, PfxPdu, SafeBag, pfx_create, pfx_open
from conftest import seeded
from ledger import MUTANT_OUTCOMES, ledger

DECLARED = PkcsError
MUTANTS = 500


def _mutants(octets: bytes, rng: random.Random):
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
            yield octets[:at] + bytes([rng.randrange(256)]) + octets[at + 1:]


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
    bags = (SafeBag("shroudedKey", epki, (key_id,)), SafeBag("key", info, (key_id,)))

    def ci(opener):
        return lambda octets: opener(ContentInfo.from_der(octets))

    def digested(value):
        ok = cms.check_digest(value)
        cms.digested_content(value)
        return ok

    def authenticated(value):
        ok = cms.check_auth(value, b"mac key")
        cms.authenticated_content(value)
        return ok

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
        "digested-data": (cms.digest_data(inner).to_der(), ci(digested)),
        "encrypted-data": (cms.encrypt_data(inner, b"k" * 16, rng).to_der(),
                           ci(lambda value: cms.decrypt_data(value, b"k" * 16))),
        "authenticated-data": (cms.authenticate_data(inner, b"mac key", attrs).to_der(),
                               ci(authenticated)),
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pfx, "_MAC_ITERATIONS", 2)
        patch.setattr(pfx, "_PRIVACY_ITERATIONS", 3)
        for privacy in ("password", "public_key"):
            for integrity in ("password", "public_key"):
                built = pfx_create(bags, privacy, integrity, credentials, rng,
                                   allow_plain_keys=True)
                out[f"pfx-{privacy}-{integrity}"] = (built.to_der(), lambda octets: pfx_open(
                    PfxPdu.from_der(octets), credentials))
    return out


@pytest.mark.parametrize("name", [
    "PrivateKeyInfo", "EncryptedPrivateKeyInfo", "CertificationRequest",
    "data", "signed-data", "enveloped-data", "digested-data", "encrypted-data",
    "authenticated-data", "pfx-password-password", "pfx-password-public_key",
    "pfx-public_key-password", "pfx-public_key-public_key"])
def test_one_edit_mutants_raise_only_declared_errors(targets, name):
    octets, opener = targets[name]
    opener(octets)  # the target itself opens
    rng = random.Random(f"mutation/{name}")
    lines = []
    for mutant in _mutants(octets, rng):
        try:
            result = opener(mutant)
        except DECLARED as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped from {name} mutant "
                        f"{mutant.hex()}: {exc}")
        else:
            lines.append(f"value {result}" if isinstance(result, bool) else "value")
    assert ledger(lines) == MUTANT_OUTCOMES[name]


def _triples_edited(edit):
    """A key body edit that replaces the first triple's fields by ``edit(fields)``."""
    def body_edit(fields):
        first, *rest = fields[4].children
        return fields[:4] + [asn1.sequence(asn1.sequence(*edit(list(first.children))), *rest)]
    return body_edit


# a .p8 whose key body (version, n, e, d, triples) or first (r, d, t) triple
# has one field too few or too many
WRONG_FIELD_COUNTS = {
    "body with 4 fields": lambda fields: fields[:4],
    "body with 6 fields": lambda fields: fields + [asn1.integer(0)],
    "triple with 2 fields": _triples_edited(lambda fields: fields[:2]),
    "triple with 4 fields": _triples_edited(lambda fields: fields + [asn1.integer(1)]),
}


@pytest.mark.parametrize("case", list(WRONG_FIELD_COUNTS))
def test_key_body_or_triple_with_a_wrong_field_count_is_malformed_key(toy_keys, case):
    root = asn1.der_decode(PrivateKeyInfo(toy_keys[3][1]).to_der())
    version_v, algorithm_v, body_v = root.children
    fields = list(asn1.der_decode(body_v.as_octet_string()).children)
    body = asn1.sequence(*WRONG_FIELD_COUNTS[case](fields))
    octets = asn1.der_encode(asn1.sequence(version_v, algorithm_v,
                                           asn1.octet_string(asn1.der_encode(body))))
    with pytest.raises(PkcsError) as raised:
        PrivateKeyInfo.from_der(octets)
    assert raised.type is MalformedKey
