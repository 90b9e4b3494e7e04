"""One SHA-256 over the seeded outputs of every wire format, and one per output.

The seeded outputs are a ``.p8`` of each toy key, a ``.p8e``, a ``.spki``
and a ``.csr``, the four PFX modes, the five CMS types and one scenario
report.  Each output is hashed with its name and length in front, so that
a change in any one of them changes the digest.  The same seeds must give
the same octets, so the digest changes only when a wire format changes on
purpose; such a change sets ``GOLDEN`` to the new value and says why.
``OUTPUT_DIGESTS`` holds each output's own SHA-256, so that such a change
also shows which outputs moved and which did not.
"""

import hashlib
import warnings

import pytest

from pkcswb import asn1, cms, pfx
from pkcswb.cli import run_scenario
from pkcswb.csr import Name, build_csr
from pkcswb.keystore import PrivateKeyInfo, attribute_make, encrypt_private_key
from pkcswb.pkcs1 import encode_public_key_info
from conftest import pfx_credentials, seeded

GOLDEN = "974adc40e563fc4c4efc7704922302e564e7a158facff3678a090c52de12c4a1"
OUTPUT_DIGESTS = {
    "p8-u2": "ce19bdb50ec8a15dad321a1c52cdd1339356a69cd67fdbb1fb2b9f1de770f737",
    "p8-u3": "f1f6cbd0176c8903996012565c20ada1f9afc5f452ec81db72b139d7769a55d2",
    "p8-u4": "af5dc12e67e418caf59e72be4bd2a5e0216e07265dadcf230b77cbc12529085f",
    "p8": "3b8801f826d463001a2dd552e36c05a137db9023f0ccc7c5c688ca4d77aa04d4",
    "p8e": "01b82e045d25a077327d47893080259a405f9348ef920200ea548b6aaa42f805",
    "spki": "222d13b07df123cb2c0d403b22d325439ae3039dacf590588fae8a72b9fb9d67",
    "csr": "916265b06d81575c61f392b3f1db5562f7cb22f095beb69988d40a7bff396293",
    "data": "adcfd89d604ee31234a049036c2d9807fbb1bd6c04c7b6e70a2cf8bfae7befa2",
    "signed-data": "6765f45d06f7ab572832f7c00e6f79af0a9a05017343087b7cc378eb3225e874",
    "enveloped-data": "e705f8fc7fe7bcebc6ca37c9fcaf24bc13839b58e3870950df396dbb5370474c",
    "digested-data": "ce463e6c7f50f6beda4faa8ae50b20fec48110feb75c15a8edd82a3f59def4b6",
    "encrypted-data": "792f639a422a5ab036dc00c0626edcaad78373111fa239ce6c0e119feb85a06c",
    "authenticated-data": "06b6183b2df2035be73fea0156305bc2f5dd695bab12c88f34a67d4f051c9b66",
    "pfx-password-password": "652e6eb9cfb2c5fc1c2d992a5a134484d1b317a04e631173fdc2340540a2197d",
    "pfx-password-public_key": "781439852ef5de6c75ab7ed1a071b137d50187c5c99262844319b99748e2db96",
    "pfx-public_key-password": "2353718f66de89bcbd2f79dec0799cbe690423eb57f045998836979e715d4367",
    "pfx-public_key-public_key": "37935f439270af7b0609fdffba73f8a2851d05007e948c311afc4a43f06e6ac6",
    "scenario": "7429627a9c60e84a79d11d48130b4918ab6394adf0d499995d56ff43ca8df547",
}


def seeded_outputs(key_512, key_1024, key_1024_b, toy_keys) -> dict[str, bytes]:
    """name -> octets of each seeded output."""
    rng = seeded(b"golden")
    _, private = key_1024
    other_public, _ = key_1024_b
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
    privacies, integrities = pfx_credentials(b"privacy", b"integrity", key_1024_b, key_1024,
                                             name)
    bags = (pfx.SafeBag(epki, (key_id,)), pfx.SafeBag(info, (key_id,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pfx.PfxSecurityWarning)
        for privacy, (seal, _) in privacies.items():
            for integrity, (sign, _) in integrities.items():
                out[f"pfx-{privacy}-{integrity}"] = pfx.pfx_create(bags, seal, sign,
                                                                   rng).to_der()
    report, ok = run_scenario(bytes(range(16)))
    assert ok
    out["scenario"] = report.encode()
    return out


def golden_digest(outputs: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name, octets in outputs.items():
        digest.update(b"%s %d\n" % (name.encode(), len(octets)) + octets)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def outputs(key_512, key_1024, key_1024_b, toy_keys) -> dict[str, bytes]:
    return seeded_outputs(key_512, key_1024, key_1024_b, toy_keys)


def test_seeded_outputs_match_the_golden_digest(outputs):
    assert len(outputs) == 18
    assert golden_digest(outputs) == GOLDEN


def test_each_seeded_output_matches_its_own_digest(outputs):
    digests = {name: hashlib.sha256(octets).hexdigest() for name, octets in outputs.items()}
    moved = sorted(name for name in OUTPUT_DIGESTS if digests.get(name) != OUTPUT_DIGESTS[name])
    assert digests.keys() == OUTPUT_DIGESTS.keys()
    assert not moved, f"outputs that moved: {moved}"
