import os

import pytest

from pkcswb.cli import FAULT_POINTS, main, run_scenario

SEED = "000102030405060708090a0b0c0d0e0f"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(["--seed", SEED, *map(str, argv)])
    return code, capsys.readouterr().out


def test_strength_command(capsys):
    code, out = run(capsys, "strength", "--bits", 1024, "--primes", 2)
    assert code == 0 and out.strip() == "80"
    code, out = run(capsys, "strength", "--bits", 1024, "--primes", 7)
    assert code == 0 and out.strip() == "absent"


def test_kdf_single_iteration_reduction(capsys):
    import hashlib
    import hmac
    code, out = run(capsys, "kdf", "--password", "x",
                    "--salt", "0x0000000000000000", "--iter", 1, "--len", 32)
    expected = hmac.new(b"x", bytes(8) + b"\x00\x00\x00\x01", hashlib.sha256)
    assert code == 0 and out.strip() == expected.hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Pre-generated key material shared by the CLI round-trip tests."""
    path = tmp_path_factory.mktemp("cli")
    assert main(["--seed", SEED, "keygen", "--bits", "1024",
                 "--out", str(path / "alice.p8"), "--pub", str(path / "alice.spki")]) == 0
    assert main(["--seed", "ff" + SEED, "keygen", "--bits", "1024",
                 "--out", str(path / "other.p8"), "--pub", str(path / "other.spki")]) == 0
    (path / "message.bin").write_bytes(b"the quick brown fox\n")
    return path


def test_keygen_outputs_reload(workdir):
    from pkcswb import csr as csr_mod, keystore
    from pkcswb.asn1 import der_decode
    private = keystore.decode_private_key((workdir / "alice.p8").read_bytes())
    public = csr_mod.decode_public_key_info(der_decode((workdir / "alice.spki").read_bytes()))
    assert private.public_key == public


def test_rsa_encrypt_decrypt_round_trip(workdir, capsys):
    for scheme in ("oaep", "v1_5"):
        code, _ = run(capsys, "rsa-encrypt", "--key", workdir / "alice.spki",
                      "--in", workdir / "message.bin",
                      "--out", workdir / f"ct-{scheme}.bin", "--scheme", scheme)
        assert code == 0
        code, _ = run(capsys, "rsa-decrypt", "--key", workdir / "alice.p8",
                      "--in", workdir / f"ct-{scheme}.bin",
                      "--out", workdir / f"pt-{scheme}.bin", "--scheme", scheme)
        assert code == 0
        assert (workdir / f"pt-{scheme}.bin").read_bytes() == \
            (workdir / "message.bin").read_bytes()


def test_sign_verify_round_trip_and_rejection(workdir, capsys):
    code, _ = run(capsys, "sign", "--key", workdir / "alice.p8",
                  "--in", workdir / "message.bin", "--out", workdir / "sig.bin")
    assert code == 0
    code, _ = run(capsys, "verify", "--key", workdir / "alice.spki",
                  "--in", workdir / "message.bin", "--sig", workdir / "sig.bin")
    assert code == 0
    code, _ = run(capsys, "verify", "--key", workdir / "other.spki",
                  "--in", workdir / "message.bin", "--sig", workdir / "sig.bin")
    assert code == 1


def test_p8_wrap_unwrap(workdir, capsys):
    code, _ = run(capsys, "p8-wrap", "--in", workdir / "alice.p8",
                  "--password", "pw", "--iter", "64", "--out", workdir / "alice.p8e")
    assert code == 0
    code, _ = run(capsys, "p8-unwrap", "--in", workdir / "alice.p8e",
                  "--password", "pw", "--out", workdir / "alice2.p8")
    assert code == 0
    assert (workdir / "alice2.p8").read_bytes() == (workdir / "alice.p8").read_bytes()
    code, _ = run(capsys, "p8-unwrap", "--in", workdir / "alice.p8e",
                  "--password", "nope", "--out", workdir / "never.p8")
    assert code == 1


def test_csr_new_then_verify(workdir, capsys):
    code, _ = run(capsys, "csr-new", "--key", workdir / "alice.p8", "--cn", "Alice",
                  "--org", "Example", "--country", "US",
                  "--email", "alice@example.org", "--challenge", "pw",
                  "--out", workdir / "alice.csr")
    assert code == 0
    code, _ = run(capsys, "csr-verify", "--in", workdir / "alice.csr")
    assert code == 0


def test_cms_sign_verify(workdir, capsys):
    code, _ = run(capsys, "cms-sign", "--key", workdir / "alice.p8",
                  "--in", workdir / "message.bin", "--out", workdir / "signed.cms",
                  "--signing-time", "200101120000Z")
    assert code == 0
    code, _ = run(capsys, "cms-verify", "--key", workdir / "alice.spki",
                  "--in", workdir / "signed.cms", "--out", workdir / "verified.bin")
    assert code == 0
    assert (workdir / "verified.bin").read_bytes() == (workdir / "message.bin").read_bytes()
    code, _ = run(capsys, "cms-verify", "--key", workdir / "other.spki",
                  "--in", workdir / "signed.cms")
    assert code == 1


def test_cms_envelope_open(workdir, capsys):
    code, _ = run(capsys, "cms-envelope", "--key", workdir / "alice.spki",
                  "--in", workdir / "message.bin", "--out", workdir / "sealed.cms")
    assert code == 0
    code, _ = run(capsys, "cms-open", "--key", workdir / "alice.p8",
                  "--in", workdir / "sealed.cms", "--out", workdir / "opened.bin")
    assert code == 0
    assert (workdir / "opened.bin").read_bytes() == (workdir / "message.bin").read_bytes()


def test_cms_digest_make_and_check(workdir, capsys):
    code, _ = run(capsys, "cms-digest", "--in", workdir / "message.bin",
                  "--out", workdir / "digested.cms")
    assert code == 0
    code, _ = run(capsys, "cms-digest", "--check", "--in", workdir / "digested.cms")
    assert code == 0


def test_cms_encrypt_decrypt(workdir, capsys):
    key = "00112233445566778899aabbccddeeff"
    code, _ = run(capsys, "cms-encrypt", "--key-hex", key,
                  "--in", workdir / "message.bin", "--out", workdir / "enc.cms")
    assert code == 0
    code, _ = run(capsys, "cms-encrypt", "--decrypt", "--key-hex", key,
                  "--in", workdir / "enc.cms", "--out", workdir / "dec.bin")
    assert code == 0
    assert (workdir / "dec.bin").read_bytes() == (workdir / "message.bin").read_bytes()
    code, _ = run(capsys, "cms-encrypt", "--decrypt", "--key-hex", "00" * 16,
                  "--in", workdir / "enc.cms", "--out", workdir / "never.bin")
    assert code == 1


def test_cms_auth_make_and_check(workdir, capsys):
    code, _ = run(capsys, "cms-auth", "--key-hex", "aa" * 16,
                  "--in", workdir / "message.bin", "--out", workdir / "auth.cms")
    assert code == 0
    code, _ = run(capsys, "cms-auth", "--check", "--key-hex", "aa" * 16,
                  "--in", workdir / "auth.cms")
    assert code == 0
    code, _ = run(capsys, "cms-auth", "--check", "--key-hex", "bb" * 16,
                  "--in", workdir / "auth.cms")
    assert code == 1


def test_pfx_pack_unpack(workdir, capsys):
    code, _ = run(capsys, "cms-sign", "--key", workdir / "other.p8",
                  "--in", workdir / "message.bin", "--out", workdir / "cert.cms")
    assert code == 0
    code, _ = run(capsys, "pfx-pack", "--privacy", "password",
                  "--integrity", "password", "--key", workdir / "alice.p8",
                  "--cert", workdir / "cert.cms", "--password", "transfer",
                  "--out", workdir / "alice.pfxw")
    assert code == 0
    code, out = run(capsys, "pfx-unpack", "--in", workdir / "alice.pfxw",
                    "--password", "transfer", "--out-dir", workdir / "bags")
    assert code == 0 and "unpacked 2 bags" in out
    names = sorted(os.listdir(workdir / "bags"))
    assert names == ["bag0.p8e", "bag1.cms"]
    # the shrouded bag opens back into the original key
    from pkcswb import keystore
    epki = keystore.EncryptedPrivateKeyInfo.from_der(
        (workdir / "bags" / "bag0.p8e").read_bytes())
    info = keystore.decrypt_private_key(epki, b"transfer")
    assert info.to_der() == (workdir / "alice.p8").read_bytes()


def test_pfx_wrong_integrity_password(workdir, capsys):
    code, _ = run(capsys, "pfx-unpack", "--in", workdir / "alice.pfxw",
                  "--password", "transfer", "--integrity-password", "wrong",
                  "--out-dir", workdir / "bags2")
    assert code == 1


def test_token_demo_deterministic(capsys):
    code1, out1 = run(capsys, "token-demo")
    code2, out2 = run(capsys, "token-demo")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "signature ok: True" in out1
    assert "EF(PrKDF): 1" in out1
    assert "private key value: refused (sensitive)" in out1


def test_missing_file_is_usage_error(capsys, tmp_path):
    code = main(["csr-verify", "--in", str(tmp_path / "missing.csr")])
    assert code == 2


def test_scenario_command_all_pass(capsys):
    code, out = run(capsys, "scenario")
    assert code == 0
    assert out.count("PASS") == 9 and "result: 9/9 steps passed" in out


def test_scenario_byte_reproducible():
    a, ok_a = run_scenario(bytes.fromhex(SEED))
    b, ok_b = run_scenario(bytes.fromhex(SEED))
    assert ok_a and ok_b and a == b


def test_scenario_fault_points(capsys):
    expectations = {
        "transport": "enveloped-transport",
        "pfx": "token-provisioning",
        "challenge": "challenge-response",
    }
    assert set(expectations) == set(FAULT_POINTS)
    for fault, failing_step in expectations.items():
        code, out = run(capsys, "scenario", "--fault", fault)
        assert code == 1
        assert f"failed at {failing_step}" in out


def test_environment_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PKCSWB_SEED", SEED)
    code = main(["scenario"])
    out = capsys.readouterr().out
    assert code == 0 and f"seed={SEED}" in out


def test_key_with_a_prime_of_one_is_a_usage_error(workdir, capsys):
    from test_keystore import _pki_der
    bad = workdir / "prime-one.p8"
    bad.write_bytes(_pki_der(15, 3, (1, 15)))
    code, _ = run(capsys, "sign", "--key", bad, "--in", workdir / "message.bin",
                  "--out", workdir / "prime-one.sig")
    assert code == 2


def test_p8_wrap_refuses_a_count_the_reader_refuses(workdir, capsys, monkeypatch):
    from pkcswb import pkcs5

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on an over-cap iteration count")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    target = workdir / "over-cap.p8e"
    code, _ = run(capsys, "p8-wrap", "--in", workdir / "alice.p8",
                  "--password", "pw", "--iter", "2000000", "--out", target)
    assert code == 2
    assert not target.exists()
