"""Secrets do not print.  With seeded keys, passwords, PINs and content
encryption keys, the scenario and every CLI subcommand run, succeeding and
failing; no secret appears, in decimal or in hex, in anything printed to
stdout or stderr, in the repr of any object the public API returns, or in
the text of any error raised.  Every private key generated, and every key
that AES-CBC or HMAC ran under, counts as a secret."""

import argparse
import warnings

import pytest

from pkcswb import (cli, cms, csr, keystore, pfx, pkcs1, pkcs5, primitives, rsa,
                    token as token_mod)
from pkcswb.cli import FAULT_POINTS, main, run_scenario
from pkcswb.errors import PkcsError

SEED = "000102030405060708090a0b0c0d0e0f"
OTHER_SEED = "ff" + SEED
PASSWORD = "wrap-password-3141592653"
PFX_PASSWORD = "transfer-password-2718281828"
# a challengePassword travels in the clear inside the request (PKCS #9
# §5.4.1), so the request's repr shows it as it shows any other content
CHALLENGE = "challenge-password-1618033988"
CEK = "5f1c9a3e77d2b4086ac3e91f20d4b6a8"  # a pre-shared content-encryption key
WRONG_CEK = "a8b6d4209fe1c36a08b4d2773e9a1c5f"
MISTYPED_CEK = CEK[:-1] + "g"  # not hex, and still most of a key
# token-demo's PINs spell the labels that every PKCS #15 directory gives the
# two PIN objects, so only their octets' hex and decimal forms are secret
PINS = ("so-factory-pin", cli._ALICE_PASSWORD.decode(), b"so-pin", b"user-pin")


def _forms(secret) -> set[str]:
    """The decimal and hex spellings of an integer or an octet string, and
    the text of a password or PIN."""
    if isinstance(secret, int):
        return {str(secret), f"{secret:x}", f"{secret:X}"}
    forms = set()
    if isinstance(secret, str):
        forms.add(secret)
        secret = secret.encode()
    return forms | {secret.hex(), secret.hex().upper(), str(int.from_bytes(secret, "big"))}


def _key_secrets(private: rsa.RsaPrivateKey) -> list[int]:
    # the first CRT coefficient is 1 for every key
    return [private.d, *private.primes, *private.crt_exponents, *private.crt_coefficients[1:]]


class Recorder:
    """Records the private keys generated and the keys AES-CBC and HMAC run
    under, by wrapping the functions where the layers import them."""

    def __init__(self, patch: pytest.MonkeyPatch):
        self.secrets: list = []
        for module in (rsa, token_mod):
            patch.setattr(module, "generate_key", self._keys(module.generate_key))
        for module, name in ((cms, "cbc_encrypt"), (cms, "cbc_decrypt"), (cms, "hmac_digest"),
                             (pkcs5, "cbc_encrypt"), (pkcs5, "cbc_decrypt"),
                             (pkcs5, "hmac_digest")):
            patch.setattr(module, name, self._first_argument(getattr(module, name)))

    def _keys(self, generate):
        def wrapper(*args, **kwargs):
            public, private = generate(*args, **kwargs)
            self.secrets += _key_secrets(private)
            return public, private
        return wrapper

    def _first_argument(self, function):
        def wrapper(key, *args, **kwargs):
            self.secrets.append(bytes(key))
            return function(key, *args, **kwargs)
        return wrapper

    def forms(self, *more) -> set[str]:
        return set().union(*(_forms(secret) for secret in (*self.secrets, *more)))


def _leaks(texts: dict[str, str], forms: set[str]) -> list[str]:
    return [f"{where}: {form[:16]}..." for where, text in texts.items()
            for form in forms if form in text]


def _subcommands() -> set[str]:
    actions = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(actions[0].choices)


# (label, argv, expected exit code); {dir} is a scratch directory.  The failing
# runs give a wrong password, key or tag.
RUNS = [
    ("keygen", ["keygen", "--bits", "1024", "--primes", "3", "--out", "{dir}/alice.p8",
                "--pub", "{dir}/alice.spki"], 0),
    ("keygen other", ["keygen", "--seed", OTHER_SEED, "--bits", "1024", "--out",
                      "{dir}/other.p8", "--pub", "{dir}/other.spki"], 0),
    ("rsa-encrypt", ["rsa-encrypt", "--key", "{dir}/alice.spki", "--in", "{dir}/message.bin",
                     "--out", "{dir}/ct.bin"], 0),
    ("rsa-decrypt", ["rsa-decrypt", "--key", "{dir}/alice.p8", "--in", "{dir}/ct.bin",
                     "--out", "{dir}/pt.bin"], 0),
    ("rsa-decrypt wrong key", ["rsa-decrypt", "--key", "{dir}/other.p8", "--in", "{dir}/ct.bin",
                               "--out", "{dir}/pt-other.bin"], 1),
    ("sign", ["sign", "--key", "{dir}/alice.p8", "--in", "{dir}/message.bin",
              "--out", "{dir}/sig.bin"], 0),
    ("verify", ["verify", "--key", "{dir}/alice.spki", "--in", "{dir}/message.bin",
                "--sig", "{dir}/sig.bin"], 0),
    ("verify wrong key", ["verify", "--key", "{dir}/other.spki", "--in", "{dir}/message.bin",
                          "--sig", "{dir}/sig.bin"], 1),
    ("kdf", ["kdf", "--password", PASSWORD, "--salt", "0x0102030405060708", "--iter", "2"], 0),
    ("p8-wrap", ["p8-wrap", "--in", "{dir}/alice.p8", "--password", PASSWORD, "--iter", "2",
                 "--out", "{dir}/alice.p8e"], 0),
    ("p8-unwrap", ["p8-unwrap", "--in", "{dir}/alice.p8e", "--password", PASSWORD,
                   "--out", "{dir}/unwrapped.p8"], 0),
    ("p8-unwrap wrong password", ["p8-unwrap", "--in", "{dir}/alice.p8e", "--password",
                                  PFX_PASSWORD, "--out", "{dir}/unwrapped-wrong.p8"], 1),
    ("csr-new", ["csr-new", "--key", "{dir}/alice.p8", "--cn", "Alice", "--challenge",
                 CHALLENGE, "--out", "{dir}/alice.csr"], 0),
    ("csr-verify", ["csr-verify", "--in", "{dir}/alice.csr"], 0),
    ("cms-sign", ["cms-sign", "--key", "{dir}/alice.p8", "--in", "{dir}/message.bin",
                  "--out", "{dir}/signed.cms"], 0),
    ("cms-verify", ["cms-verify", "--key", "{dir}/alice.spki", "--in", "{dir}/signed.cms",
                    "--out", "{dir}/verified.bin"], 0),
    ("cms-verify wrong key", ["cms-verify", "--key", "{dir}/other.spki", "--in",
                              "{dir}/signed.cms"], 1),
    ("cms-envelope", ["cms-envelope", "--key", "{dir}/alice.spki", "--in", "{dir}/message.bin",
                      "--out", "{dir}/sealed.cms"], 0),
    ("cms-open", ["cms-open", "--key", "{dir}/alice.p8", "--in", "{dir}/sealed.cms",
                  "--out", "{dir}/opened.bin"], 0),
    ("cms-open wrong key", ["cms-open", "--key", "{dir}/other.p8", "--in", "{dir}/sealed.cms",
                            "--out", "{dir}/opened-other.bin"], 1),
    ("cms-digest", ["cms-digest", "--in", "{dir}/message.bin", "--out", "{dir}/digested.cms"], 0),
    ("cms-digest --check", ["cms-digest", "--in", "{dir}/digested.cms", "--check"], 0),
    ("cms-encrypt", ["cms-encrypt", "--key-hex", CEK, "--in", "{dir}/message.bin",
                     "--out", "{dir}/encrypted.cms"], 0),
    ("cms-encrypt --decrypt", ["cms-encrypt", "--decrypt", "--key-hex", CEK, "--in",
                               "{dir}/encrypted.cms", "--out", "{dir}/decrypted.bin"], 0),
    ("cms-encrypt --decrypt wrong key", ["cms-encrypt", "--decrypt", "--key-hex", WRONG_CEK,
                                         "--in", "{dir}/encrypted.cms",
                                         "--out", "{dir}/decrypted-wrong.bin"], 1),
    ("cms-encrypt mistyped key", ["cms-encrypt", "--key-hex", MISTYPED_CEK, "--in",
                                  "{dir}/message.bin", "--out", "{dir}/mistyped.cms"], 2),
    ("cms-auth", ["cms-auth", "--key-hex", CEK, "--in", "{dir}/message.bin",
                  "--out", "{dir}/authenticated.cms"], 0),
    ("cms-auth --check", ["cms-auth", "--key-hex", CEK, "--in", "{dir}/authenticated.cms",
                          "--check"], 0),
    ("cms-auth --check wrong key", ["cms-auth", "--key-hex", WRONG_CEK, "--in",
                                    "{dir}/authenticated.cms", "--check"], 1),
    ("pfx-pack", ["pfx-pack", "--privacy", "password", "--integrity", "password", "--key",
                  "{dir}/alice.p8", "--cert", "{dir}/signed.cms", "--password", PFX_PASSWORD,
                  "--out", "{dir}/alice.pfxw"], 0),
    ("pfx-unpack", ["pfx-unpack", "--in", "{dir}/alice.pfxw", "--password", PFX_PASSWORD,
                    "--out-dir", "{dir}/bags"], 0),
    ("pfx-unpack wrong password", ["pfx-unpack", "--in", "{dir}/alice.pfxw", "--password",
                                   PASSWORD, "--out-dir", "{dir}/bags-wrong"], 1),
    ("pfx-pack public-key", ["pfx-pack", "--privacy", "public-key", "--integrity", "public-key",
                             "--key", "{dir}/alice.p8", "--dest-pub", "{dir}/other.spki",
                             "--sign-key", "{dir}/alice.p8", "--source-cn", "Alice",
                             "--out", "{dir}/public.pfxw"], 0),
    ("pfx-unpack public-key", ["pfx-unpack", "--in", "{dir}/public.pfxw", "--dest-key",
                               "{dir}/other.p8", "--source-pub", "{dir}/alice.spki",
                               "--out-dir", "{dir}/public-bags"], 0),
    ("pfx-unpack public-key wrong key", ["pfx-unpack", "--in", "{dir}/public.pfxw",
                                         "--dest-key", "{dir}/alice.p8", "--source-pub",
                                         "{dir}/alice.spki", "--out-dir", "{dir}/wrong-bags"], 1),
    ("token-demo", ["token-demo"], 0),
    ("strength", ["strength", "--bits", "1024", "--primes", "3"], 0),
    ("scenario", ["scenario"], 0),
    *((f"scenario --fault {fault}", ["scenario", "--fault", fault], 1) for fault in FAULT_POINTS),
]


def test_the_runs_cover_every_subcommand():
    assert {argv[0] for _, argv, _ in RUNS} == _subcommands()


def test_no_cli_output_holds_a_secret(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pfx, "_MAC_ITERATIONS", 2)
    monkeypatch.setattr(pfx, "_PRIVACY_ITERATIONS", 3)
    recorder = Recorder(monkeypatch)
    (tmp_path / "message.bin").write_bytes(b"the quick brown fox\n")
    printed = {}
    for label, argv, code in RUNS:
        assert main(["--seed", SEED, *(arg.format(dir=tmp_path) for arg in argv)]) == code, label
        out, err = capsys.readouterr()
        printed[label] = out + err
    forms = recorder.forms(PASSWORD, PFX_PASSWORD, bytes.fromhex(CEK),
                           bytes.fromhex(WRONG_CEK), MISTYPED_CEK, *PINS,
                           cli._TRANSFER_CREDENTIALS.privacy_password,
                           cli._TRANSFER_CREDENTIALS.integrity_password)
    # the scan finds a secret where one is: the plaintext key file holds the primes
    alice = keystore.decode_private_key((tmp_path / "alice.p8").read_bytes())
    assert all(f"{r:x}" in (tmp_path / "alice.p8").read_bytes().hex() for r in alice.primes)
    assert set(_key_secrets(alice)) <= set(recorder.secrets)
    assert bytes.fromhex(CEK) in recorder.secrets
    assert _leaks(printed, forms) == []


def test_no_scenario_report_holds_a_secret(monkeypatch):
    recorder = Recorder(monkeypatch)
    reports = {f"fault {fault}": run_scenario(bytes.fromhex(SEED), fault)[0]
               for fault in (None, *FAULT_POINTS)}
    assert len(recorder.secrets) > 4 * 3 * 5  # four runs, three keys each, CEKs and MAC keys
    forms = recorder.forms(*PINS, cli._TRANSFER_CREDENTIALS.privacy_password,
                           cli._TRANSFER_CREDENTIALS.integrity_password)
    assert _leaks(reports, forms) == []


def test_no_returned_repr_or_error_text_holds_a_secret(monkeypatch):
    recorder = Recorder(monkeypatch)
    rng = primitives.SeededSource(bytes.fromhex(SEED))
    public, private = rsa.generate_key(1024, 3, 65537, rng)
    other_public, other_private = rsa.generate_key(1024, 2, 65537, rng)
    password, cek = PASSWORD.encode(), bytes.fromhex(CEK)
    returned, raised = [public, private, other_public, other_private], []

    def refused(call, *args):
        with pytest.raises(PkcsError) as caught:
            call(*args)
        raised.append(caught.value)

    info = keystore.PrivateKeyInfo(private, keystore.natural_person_bundle(gender="F"))
    epki = keystore.encrypt_private_key(info, password, rng.read(8), 2, rng)
    returned += [info, epki, keystore.decrypt_private_key(epki, password),
                 pkcs5.Pbkdf2Params(b"salt", 2, 16), pkcs1.PssParams.for_key(private),
                 pkcs1.OaepParams(private.modulus_octets)]
    refused(keystore.decrypt_private_key, epki, PFX_PASSWORD.encode())
    refused(rsa.RsaPrivateKey, private.e, private.d + 2, private.primes)
    request = csr.build_csr(csr.Name((("commonName", "Alice"),)), (public, private),
                            (keystore.attribute_make("challengePassword", CHALLENGE),), rng)
    data = cms.make_data(b"payload")
    sealed = cms.envelope(data, public, rng)
    encrypted = cms.encrypt_data(data, cek, rng)
    returned += [request, data, sealed, cms.open_envelope(sealed, private), encrypted,
                 cms.decrypt_data(encrypted, cek), cms.authenticate_data(data, cek),
                 cms.sign_data(data, private, cms.SignerIdent(request.info.subject, b"k"), (),
                               rng)]
    refused(cms.open_envelope, sealed, other_private)
    refused(cms.decrypt_data, encrypted, bytes.fromhex(WRONG_CEK))
    refused(pkcs1.decrypt, pkcs1.encrypt(b"m", public, pkcs1.SCHEME_OAEP, rng), other_private,
            pkcs1.SCHEME_OAEP)

    monkeypatch.setattr(pfx, "_MAC_ITERATIONS", 2)
    monkeypatch.setattr(pfx, "_PRIVACY_ITERATIONS", 3)
    credentials = pfx.PfxCredentials(PFX_PASSWORD.encode(), PASSWORD.encode(), other_public,
                                     other_private, private, public, request.info.subject)
    bags = (pfx.SafeBag(info), pfx.SafeBag(epki))
    for privacy, integrity in (("password", "password"), ("public_key", "public_key")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pfx.PfxSecurityWarning)
            pdu = pfx.pfx_create(bags, privacy, integrity, credentials, rng)
        returned += [pdu, pfx.pfx_open(pdu, credentials)]
    returned.append(credentials)
    refused(pfx.pfx_open, pdu, pfx.PfxCredentials(b"x", b"y", other_public, private, private,
                                                  other_public))

    token = token_mod.Token("card", rng)
    token.initialize("so-factory-pin")
    session = token.open_session(rw=True)
    token.login(session, token_mod.USER_SO, "so-factory-pin")
    token.init_user_pin(session, "user-pin")
    token.logout(session)
    refused(token.login, session, token_mod.USER_NORMAL, "so-factory-pin")
    token.login(session, token_mod.USER_NORMAL, "user-pin")
    refused(token.login, session, token_mod.USER_NORMAL, "user-pin")
    pub_h, priv_h = token.generate_key_pair(session, 512, label="k")
    refused(token.get_attribute, session, priv_h, token_mod.CKA_VALUE)
    returned += [token, session, token.sign(session, priv_h, b"m"), token.object_handles()]

    texts = {f"repr {i} {type(value).__name__}": repr(value) for i, value in enumerate(returned)}
    texts |= {f"error {i} {type(exc).__name__}": f"{exc} {exc!r}"
              for i, exc in enumerate(raised)}
    forms = recorder.forms(*_key_secrets(private), *_key_secrets(other_private), password,
                           PFX_PASSWORD, cek, *PINS)
    assert len(raised) == 9
    assert _leaks(texts, forms) == []

