import argparse
import hashlib
import os

import pytest

from pkcswb.cli import FAULT_POINTS, _build_parser, _fingerprint, main, run_scenario

SEED = "000102030405060708090a0b0c0d0e0f"
# SHA-256 of the scenario report for SEED, by fault point
SCENARIO_REPORTS = {
    None: "7429627a9c60e84a79d11d48130b4918ab6394adf0d499995d56ff43ca8df547",
    "transport": "1bd346e394776fb5a3ecc4700edf844fd919afdf5e8c490a24a47466008683ec",
    "pfx": "6848127446533b6be75442f5dce952731ebbf491095b8c953665aa49f84e8e6f",
    "challenge": "021c4c1e6ba075543e86ecef95d694715076b3125736d5de414cf2249d61ac8b",
}


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
    assert main(["--seed", SEED, "cms-encrypt", "--key-hex", "00" * 16,
                 "--in", str(path / "message.bin"), "--out", str(path / "message.p7e")]) == 0
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
    for fault, digest in SCENARIO_REPORTS.items():
        report, ok = (a, ok_a) if fault is None else run_scenario(bytes.fromhex(SEED), fault)
        assert ok == (fault is None)
        assert hashlib.sha256(report.encode()).hexdigest() == digest, fault


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


def test_written_files_are_echoed_by_fingerprint(workdir, readable, tmp_path, capsys,
                                                 monkeypatch):
    """stderr names each written file by path, length and fingerprint, and
    never gives its octets: here plaintext keys and messages."""
    from pkcswb import pfx
    monkeypatch.setattr(pfx, "_MAC_ITERATIONS", 2)
    monkeypatch.setattr(pfx, "_PRIVACY_ITERATIONS", 3)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for argv in (
            ["rsa-encrypt", "--key", "{dir}/alice.spki", "--in", "{dir}/message.bin",
             "--out", "{tmp}/ct.bin"],
            ["cms-envelope", "--key", "{dir}/alice.spki", "--in", "{dir}/message.bin",
             "--out", "{tmp}/sealed.cms"],
            ["pfx-pack", "--privacy", "password", "--integrity", "password",
             "--key", "{dir}/alice.p8", "--cert", "{readable}/signed.cms", "--password", "pw",
             "--out", "{tmp}/alice.pfxw"]):
        assert main(["--seed", SEED, *(arg.format(dir=workdir, readable=readable, tmp=inputs)
                                       for arg in argv)]) == 0
    writers = {
        "keygen": ["keygen", "--bits", "512", "--out", "{out}/key.p8"],
        "rsa-decrypt": ["rsa-decrypt", "--key", "{dir}/alice.p8", "--in", "{tmp}/ct.bin",
                        "--out", "{out}/message.bin"],
        "p8-unwrap": ["p8-unwrap", "--in", "{readable}/alice.p8e", "--password", "pw",
                      "--out", "{out}/key.p8"],
        "cms-open": ["cms-open", "--key", "{dir}/alice.p8", "--in", "{tmp}/sealed.cms",
                     "--out", "{out}/message.bin"],
        "cms-encrypt --decrypt": ["cms-encrypt", "--decrypt", "--key-hex", "00" * 16,
                                  "--in", "{dir}/message.p7e", "--out", "{out}/message.bin"],
        "pfx-unpack": ["pfx-unpack", "--in", "{tmp}/alice.pfxw", "--password", "pw",
                       "--out-dir", "{out}"],
    }
    capsys.readouterr()
    for command, argv in writers.items():
        out = tmp_path / command.replace(" ", "")
        out.mkdir()
        assert main(["--seed", SEED, *(arg.format(dir=workdir, readable=readable, tmp=inputs,
                                                  out=out) for arg in argv)]) == 0
        err = capsys.readouterr().err
        written = sorted(out.iterdir())
        assert written, command
        for path in written:
            octets = path.read_bytes()
            assert octets.hex() not in err, command
            assert f"{path} ({len(octets)} octets): {_fingerprint(octets)}" in err.splitlines()


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


def test_wrong_length_aes_key_is_a_usage_error(workdir, capsys):
    target = workdir / "short-key.cms"
    code = main(["--seed", SEED, "cms-encrypt", "--key-hex", "00",
                 "--in", str(workdir / "message.bin"), "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("command", ["cms-digest", "cms-auth"])
def test_out_and_check_are_exactly_one_of_two(workdir, capsys, command):
    key = ["--key-hex", "aa" * 16] if command == "cms-auth" else []
    for choice in ([], ["--check", "--out", str(workdir / "both.cms")]):
        with pytest.raises(SystemExit) as exit_info:
            main([command, *key, "--in", str(workdir / "message.bin"), *choice])
        assert exit_info.value.code == 2
    assert "one of the arguments --out --check is required" in capsys.readouterr().err
    assert not (workdir / "both.cms").exists()


# subcommand: (handler, {option: (dest, required, default, type, choices)})
OPTION_SURFACE = {
    "keygen": ("_cmd_keygen", {
        "--bits": ("bits", False, 1024, "int", None),
        "--primes": ("primes", False, 2, "int", None),
        "--e": ("e", False, 65537, "int", None),
        "--out": ("out", True, None, None, None),
        "--pub": ("pub", False, None, None, None)}),
    "rsa-encrypt": ("_cmd_rsa_encrypt", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", True, None, None, None),
        "--scheme": ("scheme", False, "oaep", None, ["v1_5", "oaep"])}),
    "rsa-decrypt": ("_cmd_rsa_decrypt", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", True, None, None, None),
        "--scheme": ("scheme", False, "oaep", None, ["v1_5", "oaep"])}),
    "sign": ("_cmd_sign", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", True, None, None, None)}),
    "verify": ("_cmd_verify", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--sig": ("sig", True, None, None, None)}),
    "kdf": ("_cmd_kdf", {
        "--password": ("password", True, None, None, None),
        "--salt": ("salt", True, None, None, None),
        "--iter": ("iterations", False, 10000, "int", None),
        "--len": ("length", False, 32, "int", None)}),
    "p8-wrap": ("_cmd_p8_wrap", {
        "--in": ("infile", True, None, None, None),
        "--password": ("password", True, None, None, None),
        "--iter": ("iterations", False, 10000, "int", None),
        "--salt-len": ("salt_len", False, 8, "int", None),
        "--out": ("out", True, None, None, None)}),
    "p8-unwrap": ("_cmd_p8_unwrap", {
        "--in": ("infile", True, None, None, None),
        "--password": ("password", True, None, None, None),
        "--out": ("out", True, None, None, None)}),
    "csr-new": ("_cmd_csr_new", {
        "--key": ("key", True, None, None, None),
        "--cn": ("cn", True, None, None, None),
        "--org": ("org", False, None, None, None),
        "--country": ("country", False, None, None, None),
        "--email": ("email", False, None, None, None),
        "--challenge": ("challenge", False, None, None, None),
        "--out": ("out", True, None, None, None)}),
    "csr-verify": ("_cmd_csr_verify", {
        "--in": ("infile", True, None, None, None)}),
    "cms-sign": ("_cmd_cms_sign", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", True, None, None, None),
        "--cn": ("cn", False, "CLI Signer", None, None),
        "--signing-time": ("signing_time", False, None, None, None)}),
    "cms-verify": ("_cmd_cms_verify", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", False, None, None, None)}),
    "cms-envelope": ("_cmd_cms_envelope", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", True, None, None, None)}),
    "cms-open": ("_cmd_cms_open", {
        "--key": ("key", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", True, None, None, None)}),
    "cms-digest": ("_cmd_cms_digest", {
        "--in": ("infile", True, None, None, None),
        "--out": ("out", False, None, None, None),
        "--check": ("check", False, False, None, None)}),
    "cms-encrypt": ("_cmd_cms_encrypt", {
        "--key-hex": ("key_hex", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", True, None, None, None),
        "--decrypt": ("decrypt", False, False, None, None)}),
    "cms-auth": ("_cmd_cms_auth", {
        "--key-hex": ("key_hex", True, None, None, None),
        "--in": ("infile", True, None, None, None),
        "--out": ("out", False, None, None, None),
        "--check": ("check", False, False, None, None)}),
    "pfx-pack": ("_cmd_pfx_pack", {
        "--privacy": ("privacy", True, None, None, ["password", "public-key"]),
        "--integrity": ("integrity", True, None, None, ["password", "public-key"]),
        "--key": ("key", False, None, None, None),
        "--cert": ("cert", False, None, None, None),
        "--password": ("password", False, None, None, None),
        "--integrity-password": ("integrity_password", False, None, None, None),
        "--dest-pub": ("dest_pub", False, None, None, None),
        "--sign-key": ("sign_key", False, None, None, None),
        "--source-cn": ("source_cn", False, None, None, None),
        "--allow-plain-keys": ("allow_plain_keys", False, False, None, None),
        "--out": ("out", True, None, None, None)}),
    "pfx-unpack": ("_cmd_pfx_unpack", {
        "--in": ("infile", True, None, None, None),
        "--password": ("password", False, None, None, None),
        "--integrity-password": ("integrity_password", False, None, None, None),
        "--dest-key": ("dest_key", False, None, None, None),
        "--source-pub": ("source_pub", False, None, None, None),
        "--out-dir": ("out_dir", True, None, None, None)}),
    "token-demo": ("_cmd_token_demo", {}),
    "strength": ("_cmd_strength", {
        "--bits": ("bits", True, None, "int", None),
        "--primes": ("primes", True, None, "int", None)}),
    "scenario": ("_cmd_scenario", {
        "--fault": ("fault", False, None, None, ["transport", "pfx", "challenge"])}),
}


def test_option_surface_is_pinned():
    """Every subcommand's options, as the parser defines them; --seed is also
    accepted after any subcommand, and --out/--check are one of two where
    --out is optional."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, parser in sub.choices.items():
        options = {a.option_strings[0]: (a.dest, a.required, a.default,
                                         a.type and a.type.__name__, a.choices)
                   for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert options.pop("--seed") == ("seed", False, argparse.SUPPRESS, None, None)
        surface[name] = (parser.get_default("func").__name__, options)
        groups = [(sorted(a.dest for a in g._group_actions), g.required)
                  for g in parser._mutually_exclusive_groups]
        assert groups == ([(["check", "out"], True)] if name in ("cms-digest", "cms-auth")
                          else [])
    assert surface == OPTION_SURFACE


# each bad value exits 2 with an "error:" line; "{dir}" is the workdir and
# "{out}" an output file that must not appear
USAGE_ERRORS = {
    "cms-encrypt --key-hex zz": ["cms-encrypt", "--key-hex", "zz",
                                 "--in", "{dir}/message.bin", "--out", "{out}"],
    # the key is the caller's: its length is named, not hidden in "decryption failed"
    "cms-encrypt --decrypt --key-hex 00": ["cms-encrypt", "--decrypt", "--key-hex", "00",
                                           "--in", "{dir}/message.p7e", "--out", "{out}"],
    "--seed zz": ["--seed", "zz", "scenario"],
    "PKCSWB_SEED=zz": ["scenario"],
    "keygen --bits 8": ["keygen", "--bits", "8", "--out", "{out}"],
    # a key the readers would refuse is never written
    "keygen --primes 17": ["keygen", "--bits", "1024", "--primes", "17", "--out", "{out}"],
    "keygen --e 2**300+1": ["keygen", "--bits", "512", "--e", str(2**300 + 1),
                            "--out", "{out}"],
    "kdf --len 0": ["kdf", "--password", "x", "--salt", "00", "--len", "0"],
    "kdf --iter 0": ["kdf", "--password", "x", "--salt", "00", "--iter", "0"],
    "kdf --salt ''": ["kdf", "--password", "x", "--salt", ""],
    "csr-new --country USA": ["csr-new", "--key", "{dir}/alice.p8", "--cn", "x",
                              "--country", "USA", "--out", "{out}"],
    "p8-wrap --password ''": ["p8-wrap", "--in", "{dir}/alice.p8", "--password", "",
                              "--out", "{out}"],
    "p8-wrap --iter 0": ["p8-wrap", "--in", "{dir}/alice.p8", "--password", "pw",
                         "--iter", "0", "--out", "{out}"],
    "cms-sign --signing-time bad": ["cms-sign", "--key", "{dir}/alice.p8",
                                    "--in", "{dir}/message.bin", "--signing-time", "bad",
                                    "--out", "{out}"],
    # values that reach an encoder or the system random source
    "csr-new --country ÜS": ["csr-new", "--key", "{dir}/alice.p8", "--cn", "x",
                             "--country", "ÜS", "--out", "{out}"],
    "csr-new --email é@x": ["csr-new", "--key", "{dir}/alice.p8", "--cn", "x",
                            "--email", "é@x", "--out", "{out}"],
    "cms-sign --signing-time in Arabic-Indic digits": [
        "cms-sign", "--key", "{dir}/alice.p8", "--in", "{dir}/message.bin",
        "--signing-time", "٢٠٠١٠١١٢٠٠٠٠Z", "--out", "{out}"],
    "p8-wrap --salt-len -1, no seed": ["p8-wrap", "--in", "{dir}/alice.p8", "--password", "pw",
                                       "--salt-len", "-1", "--out", "{out}"],
    "p8-wrap --salt-len 0": ["p8-wrap", "--in", "{dir}/alice.p8", "--password", "pw",
                             "--salt-len", "0", "--out", "{out}"],
    "p8-wrap --salt-len 0, no seed": ["p8-wrap", "--in", "{dir}/alice.p8", "--password", "pw",
                                      "--salt-len", "0", "--out", "{out}"],
    # text that is not UTF-8: argv octets that did not decode arrive as lone surrogates
    "kdf --password \\udcff": ["kdf", "--password", "\udcff", "--salt", "00"],
    "p8-wrap --password \\udcff": ["p8-wrap", "--in", "{dir}/alice.p8", "--password", "\udcff",
                                   "--out", "{out}"],
    "csr-new --cn \\udcff": ["csr-new", "--key", "{dir}/alice.p8", "--cn", "\udcff",
                             "--out", "{out}"],
    "csr-new --challenge \\udcff": ["csr-new", "--key", "{dir}/alice.p8", "--cn", "x",
                                    "--challenge", "\udcff", "--out", "{out}"],
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_bad_values_are_usage_errors(workdir, tmp_path, capsys, monkeypatch, case):
    monkeypatch.setenv("PKCSWB_SEED", "zz" if case == "PKCSWB_SEED=zz" else SEED)
    if case.endswith("no seed"):
        monkeypatch.delenv("PKCSWB_SEED")
    out = tmp_path / "out"
    code = main([arg.format(dir=workdir, out=out) for arg in USAGE_ERRORS[case]])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_kdf_refuses_a_count_the_reader_refuses(capsys, monkeypatch):
    from pkcswb import pkcs5

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on an over-cap iteration count")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    code, _ = run(capsys, "kdf", "--password", "pw", "--salt", "00", "--iter", "2000000")
    assert code == 2


def test_public_key_with_non_null_parameters_is_a_usage_error(workdir, capsys):
    from pkcswb import asn1, oids
    from pkcswb.asn1 import AlgorithmIdentifier
    _, key_v = asn1.der_decode((workdir / "alice.spki").read_bytes()).children
    alg = AlgorithmIdentifier(oids.RSA_ENCRYPTION, asn1.octet_string(b""))
    bad = workdir / "octet-params.spki"
    bad.write_bytes(asn1.der_encode(asn1.sequence(alg.to_der_value(), key_v)))
    run(capsys, "sign", "--key", workdir / "alice.p8", "--in", workdir / "message.bin",
        "--out", workdir / "null.sig")
    code, _ = run(capsys, "verify", "--key", bad, "--in", workdir / "message.bin",
                  "--sig", workdir / "null.sig")
    assert code == 2


# subcommand: (the file its mutants replace, its argv; "{in}" is the mutant,
# "{dir}" the totality fixture's directory, "{out}" an output path)
READERS = {
    "verify": ("alice.spki", ["verify", "--key", "{in}", "--in", "{dir}/message.bin",
                              "--sig", "{dir}/message.sig"]),
    "sign": ("alice.p8", ["sign", "--key", "{in}", "--in", "{dir}/message.bin",
                          "--out", "{out}"]),
    "p8-unwrap": ("alice.p8e", ["p8-unwrap", "--in", "{in}", "--password", "pw",
                                "--out", "{out}"]),
    "csr-verify": ("alice.csr", ["csr-verify", "--in", "{in}"]),
    "cms-verify": ("signed.cms", ["cms-verify", "--key", "{dir}/alice.spki", "--in", "{in}"]),
    "cms-open": ("sealed.cms", ["cms-open", "--key", "{dir}/alice.p8", "--in", "{in}",
                                "--out", "{out}"]),
    "cms-digest --check": ("digested.cms", ["cms-digest", "--check", "--in", "{in}"]),
    "cms-encrypt --decrypt": ("encrypted.cms", ["cms-encrypt", "--decrypt", "--key-hex",
                                                "aa" * 16, "--in", "{in}", "--out", "{out}"]),
    "cms-auth --check": ("authenticated.cms", ["cms-auth", "--check", "--key-hex", "aa" * 16,
                                               "--in", "{in}"]),
    "pfx-unpack": ("alice.pfxw", ["pfx-unpack", "--in", "{in}", "--password", "pw",
                                  "--out-dir", "{out}"]),
}
CLI_MUTANTS = 200


@pytest.fixture(scope="module")
def readable(workdir, tmp_path_factory):
    """A directory holding one valid input of each reading subcommand; PBKDF2
    counts are 2 or 3, so that a mutant costs microseconds."""
    from pkcswb import pfx
    path = tmp_path_factory.mktemp("readable")
    for name in ("alice.p8", "alice.spki", "message.bin"):
        (path / name).write_bytes((workdir / name).read_bytes())

    def make(*argv):
        assert main(["--seed", SEED, *(arg.format(dir=path) for arg in argv)]) == 0

    make("sign", "--key", "{dir}/alice.p8", "--in", "{dir}/message.bin",
         "--out", "{dir}/message.sig")
    make("p8-wrap", "--in", "{dir}/alice.p8", "--password", "pw", "--iter", "2",
         "--out", "{dir}/alice.p8e")
    make("csr-new", "--key", "{dir}/alice.p8", "--cn", "Alice", "--challenge", "pw",
         "--out", "{dir}/alice.csr")
    make("cms-sign", "--key", "{dir}/alice.p8", "--in", "{dir}/message.bin",
         "--signing-time", "200101120000Z", "--out", "{dir}/signed.cms")
    make("cms-envelope", "--key", "{dir}/alice.spki", "--in", "{dir}/message.bin",
         "--out", "{dir}/sealed.cms")
    make("cms-digest", "--in", "{dir}/message.bin", "--out", "{dir}/digested.cms")
    make("cms-encrypt", "--key-hex", "aa" * 16, "--in", "{dir}/message.bin",
         "--out", "{dir}/encrypted.cms")
    make("cms-auth", "--key-hex", "aa" * 16, "--in", "{dir}/message.bin",
         "--out", "{dir}/authenticated.cms")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pfx, "_MAC_ITERATIONS", 2)
        patch.setattr(pfx, "_PRIVACY_ITERATIONS", 3)
        make("pfx-pack", "--privacy", "password", "--integrity", "password",
             "--cert", "{dir}/signed.cms", "--password", "pw", "--out", "{dir}/alice.pfxw")
    return path


# the path of child indices to a wire INTEGER in a reading subcommand's
# input: the PBKDF2 count, the PFX version and the request version
INTEGER_AT = {"p8-unwrap": (0, 1, 0, 1, 1), "pfx-unpack": (0,), "csr-verify": (0, 0)}


@pytest.mark.parametrize("command", list(INTEGER_AT))
def test_an_integer_too_long_for_decimal_is_a_usage_error(readable, tmp_path, capsys, command):
    """CPython prints at most 4300 digits of an int; a wire INTEGER of 5001
    digits is refused with an error line, not a raw ValueError."""
    from pkcswb import asn1

    def with_huge_integer(value, path):
        if not path:
            return asn1.integer(10**5000)
        kids = list(value.children)
        kids[path[0]] = with_huge_integer(kids[path[0]], path[1:])
        return asn1.sequence(*kids)

    source, argv = READERS[command]
    edited = tmp_path / "edited"
    original = asn1.der_decode((readable / source).read_bytes())
    edited.write_bytes(asn1.der_encode(with_huge_integer(original, INTEGER_AT[command])))
    argv = [arg.format(dir=readable, **{"in": edited, "out": tmp_path / "out"}) for arg in argv]
    code = main(["--seed", SEED, *argv])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", list(READERS))
def test_reading_subcommands_are_total(readable, tmp_path, capsys, monkeypatch, command):
    """Seeded one-edit mutants of each reading subcommand's input, run through
    main, exit 0, 1 or 2 and raise nothing.  The parser is built once."""
    import itertools
    import random
    from pkcswb import cli
    from test_mutation import _mutants

    parser = _build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    source, argv = READERS[command]
    mutant = tmp_path / "mutant"
    argv = [arg.format(dir=readable, **{"in": mutant, "out": tmp_path / "out"})
            for arg in argv]
    octets = (readable / source).read_bytes()
    mutant.write_bytes(octets)
    assert main(["--seed", SEED, *argv]) == 0  # the input itself reads
    rng = random.Random(f"cli/{command}")
    for edited in itertools.islice(_mutants(octets, rng), CLI_MUTANTS):
        mutant.write_bytes(edited)
        try:
            code = main(["--seed", SEED, *argv])
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped from {command} on {edited.hex()}: {exc}")
        assert code in (0, 1, 2), edited.hex()
        capsys.readouterr()
