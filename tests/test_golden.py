"""One SHA-256 over the seeded outputs of every wire format.

The seeded outputs are a ``.p8`` of each toy key, a ``.p8e``, a ``.spki``
and a ``.csr``, the four PFX modes, the five CMS types and one scenario
report.  Each output is hashed with its name and length in front, so that
a change in any one of them changes the digest.  The same seeds must give
the same octets, so the digest changes only when a wire format changes on
purpose; such a change sets ``GOLDEN`` to the new value and says why.
"""

import hashlib

from pkcswb import asn1, cms, pfx
from pkcswb.cli import run_scenario
from pkcswb.csr import Name, build_csr, encode_public_key_info
from pkcswb.keystore import PrivateKeyInfo, attribute_make, encrypt_private_key
from conftest import seeded

GOLDEN = "974adc40e563fc4c4efc7704922302e564e7a158facff3678a090c52de12c4a1"


def seeded_outputs(key_512, key_1024, key_1024_b, toy_keys) -> dict[str, bytes]:
    """name -> octets of each seeded output."""
    rng = seeded(b"golden")
    public, private = key_1024
    other_public, other_private = key_1024_b
    name = Name((("commonName", "Alice"), ("organization", "Example"), ("country", "US")))
    key_id = attribute_make("localKeyId", b"\x01")
    out = {f"p8-u{u}": PrivateKeyInfo(toy_keys[u][1]).to_der() for u in sorted(toy_keys)}
    info = PrivateKeyInfo(key_512[1], (key_id, attribute_make("friendlyName", "alice")))
    out["p8"] = info.to_der()
    epki = encrypt_private_key(info, b"pw", b"saltsalt", 16, rng)
    out["p8e"] = epki.to_der()
    out["spki"] = asn1.der_encode(encode_public_key_info(key_512[0]))
    out["csr"] = build_csr(name, key_512, (attribute_make("challengePassword", "pw"),),
                           rng).to_der()
    inner = cms.make_data(b"golden payload")
    attrs = (attribute_make("signingTime", "200101120000Z"),)
    out["data"] = inner.to_der()
    out["signed-data"] = cms.sign_data(inner, private, cms.SignerIdent(name, b"k"),
                                       attrs, rng).to_der()
    out["enveloped-data"] = cms.envelope(inner, other_public, rng).to_der()
    out["digested-data"] = cms.digest_data(inner).to_der()
    out["encrypted-data"] = cms.encrypt_data(inner, b"k" * 16, rng).to_der()
    out["authenticated-data"] = cms.authenticate_data(inner, b"mac key", attrs).to_der()
    credentials = pfx.PfxCredentials(
        privacy_password=b"privacy", integrity_password=b"integrity",
        destination_pub=other_public, destination_priv=other_private,
        source_sign_key=private, source_verify_key=public, source_name=name)
    bags = (pfx.SafeBag("shroudedKey", epki, (key_id,)), pfx.SafeBag("key", info, (key_id,)))
    for privacy in (pfx.PRIVACY_PASSWORD, pfx.PRIVACY_PUBLIC_KEY):
        for integrity in (pfx.INTEGRITY_PASSWORD, pfx.INTEGRITY_PUBLIC_KEY):
            out[f"pfx-{privacy}-{integrity}"] = pfx.pfx_create(
                bags, privacy, integrity, credentials, rng, allow_plain_keys=True).to_der()
    report, ok = run_scenario(bytes(range(16)))
    assert ok
    out["scenario"] = report.encode()
    return out


def golden_digest(outputs: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name, octets in outputs.items():
        digest.update(b"%s %d\n" % (name.encode(), len(octets)) + octets)
    return digest.hexdigest()


def test_seeded_outputs_match_the_golden_digest(key_512, key_1024, key_1024_b, toy_keys):
    outputs = seeded_outputs(key_512, key_1024, key_1024_b, toy_keys)
    assert len(outputs) == 18
    assert golden_digest(outputs) == GOLDEN
