"""Command-line front end for the toolkit.

Every module is reachable through a subcommand, plus ``scenario`` replays the
smart-card enrollment story end to end: key generation, personal attributes,
certification request, enveloped transport to the CA, toy issuance, PBES2
key wrapping, PFX transfer, token provisioning with a PKCS#15 directory
export, and a final challenge-response against the provisioned token.

Exit codes: 0 success; otherwise the raised ``PkcsError.exit_code``, 1 for a
cryptographic or verification failure (a wrong password, key or tag, a
tampered file) and 2 for bad input (a malformed file or option value), or 2
for an I/O error.
Options that several subcommands take (``--in``, ``--out``, ``--key``, ...)
are each defined once, as an argparse parent parser.  ``cms-digest`` and
``cms-auth`` take exactly one of ``--out`` (make) and ``--check`` (check).
Binary outputs are raw DER files; each written file is echoed to stderr as
its path, its length and a short SHA-256 fingerprint, never its octets.
Set --seed or PKCSWB_SEED for fully deterministic runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cms, csr as csr_mod, keystore, pfx as pfx_mod, pkcs1, pkcs5, rsa, \
    token as token_mod
from .asn1 import der_decode, der_encode, text_octets
from .errors import BadParameter, IntegrityFailure, PkcsError
from .primitives import SHA256, RandomSource, SeededSource, SystemRandomSource
from .token import Token, export_pkcs15_layout

__all__ = ["main", "run_scenario", "ScenarioStepFailed", "SCENARIO_STEPS", "FAULT_POINTS"]


class ScenarioStepFailed(PkcsError):
    """A scenario step's own check failed; the message is the reported reason."""

    exit_code = 1


def _seed(args) -> bytes | None:
    """The octets of --seed, else of PKCSWB_SEED; None when neither is set.
    An empty PKCSWB_SEED is not set, but a seed of no octets is refused."""
    text = args.seed if args.seed is not None else os.environ.get("PKCSWB_SEED") or None
    if text is None:
        return None
    seed = _hex_arg(text)
    if not seed:
        raise BadParameter("the seed is empty")
    return seed


def _build_rng(args) -> RandomSource:
    seed = _seed(args)
    return SystemRandomSource() if seed is None else SeededSource(seed)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _fingerprint(data: bytes) -> str:
    return SHA256.digest(data)[:8].hex()


def _write(path: str, data: bytes) -> None:
    """Write ``data``; stderr names it by fingerprint, never by its octets,
    which may be a plaintext key."""
    with open(path, "wb") as handle:
        handle.write(data)
    print(f"{path} ({len(data)} octets): {_fingerprint(data)}", file=sys.stderr)


def _hex_arg(text: str) -> bytes:
    try:
        return bytes.fromhex(text.removeprefix("0x"))
    except ValueError:
        # the text may be a key or a seed with a typo: name its length only
        raise BadParameter(f"not a hex string ({len(text)} characters)") from None


def _load_private(path: str) -> rsa.RsaPrivateKey:
    return keystore.decode_private_key(_read(path))


def _load_public(path: str) -> rsa.RsaPublicKey:
    return pkcs1.decode_public_key_info(der_decode(_read(path)))


# ---------------------------------------------------------------------------
# simple commands


def _cmd_keygen(args) -> int:
    rng = _build_rng(args)
    public, private = rsa.generate_key(args.bits, args.primes, args.e, rng)
    _write(args.out, keystore.encode_private_key(private))
    if args.pub:
        _write(args.pub, der_encode(pkcs1.encode_public_key_info(public)))
    return 0


def _cmd_rsa_encrypt(args) -> int:
    rng = _build_rng(args)
    ciphertext = pkcs1.encrypt(_read(args.infile), _load_public(args.key),
                               args.scheme, rng)
    _write(args.out, ciphertext)
    return 0


def _cmd_rsa_decrypt(args) -> int:
    plaintext = pkcs1.decrypt(_read(args.infile), _load_private(args.key), args.scheme)
    _write(args.out, plaintext)
    return 0


def _cmd_sign(args) -> int:
    rng = _build_rng(args)
    _write(args.out, pkcs1.sign(_read(args.infile), _load_private(args.key), rng))
    return 0


def _verdict(ok: bool, passed: str, failed: str) -> int:
    """Print a check's verdict; exit code 0 when it passed, 1 when it failed."""
    print(passed if ok else failed)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    ok = pkcs1.verify(_read(args.infile), _read(args.sig), _load_public(args.key))
    return _verdict(ok, "verified", "verification failed")


def _cmd_kdf(args) -> int:
    params = pkcs5.Pbkdf2Params(_hex_arg(args.salt), args.iterations, args.length)
    print(pkcs5.pbkdf2(text_octets(args.password), params).hex())
    return 0


def _cmd_p8_wrap(args) -> int:
    if args.salt_len > pkcs5.MAX_SALT_LEN:
        raise BadParameter(f"salt length exceeds {pkcs5.MAX_SALT_LEN} octets")
    rng = _build_rng(args)
    info = keystore.PrivateKeyInfo.from_der(_read(args.infile))
    epki = keystore.encrypt_private_key(info, text_octets(args.password),
                                        rng.read(args.salt_len), args.iterations, rng)
    _write(args.out, epki.to_der())
    return 0


def _cmd_p8_unwrap(args) -> int:
    epki = keystore.EncryptedPrivateKeyInfo.from_der(_read(args.infile))
    info = keystore.decrypt_private_key(epki, text_octets(args.password))
    _write(args.out, info.to_der())
    return 0


def _cmd_csr_new(args) -> int:
    rng = _build_rng(args)
    private = _load_private(args.key)
    pairs = [("commonName", args.cn)]
    if args.org is not None:
        pairs.append(("organization", args.org))
    if args.country is not None:
        pairs.append(("country", args.country))
    if args.email is not None:
        pairs.append(("emailAddress", args.email))
    attrs = ()
    if args.challenge is not None:
        attrs = (keystore.attribute_make("challengePassword", args.challenge),)
    request = csr_mod.build_csr(csr_mod.Name(tuple(pairs)),
                                (private.public_key, private), attrs, rng)
    _write(args.out, request.to_der())
    return 0


def _cmd_csr_verify(args) -> int:
    ok = csr_mod.verify_csr(csr_mod.CertificationRequest.from_der(_read(args.infile)))
    return _verdict(ok, "verified", "verification failed")


# ---------------------------------------------------------------------------
# CMS commands


def _cmd_cms_sign(args) -> int:
    rng = _build_rng(args)
    attrs = ()
    if args.signing_time is not None:
        attrs = (keystore.attribute_make("signingTime", args.signing_time),)
    ident = cms.SignerIdent(csr_mod.Name((("commonName", args.cn),)), b"cli")
    signed = cms.sign_data(cms.make_data(_read(args.infile)), _load_private(args.key),
                           ident, attrs, rng)
    _write(args.out, signed.to_der())
    return 0


def _cmd_cms_verify(args) -> int:
    ci = cms.ContentInfo.from_der(_read(args.infile))
    inner, _ = cms.verify_signed(ci, _load_public(args.key))
    if args.out:
        _write(args.out, cms.data_payload(inner))
    print("verified")
    return 0


def _cmd_cms_envelope(args) -> int:
    rng = _build_rng(args)
    enveloped = cms.envelope(cms.make_data(_read(args.infile)),
                             _load_public(args.key), rng)
    _write(args.out, enveloped.to_der())
    return 0


def _cmd_cms_open(args) -> int:
    inner = cms.open_envelope(cms.ContentInfo.from_der(_read(args.infile)),
                              _load_private(args.key))
    _write(args.out, cms.data_payload(inner))
    return 0


def _cmd_cms_digest(args) -> int:
    if args.check:
        cms.check_digest(cms.ContentInfo.from_der(_read(args.infile)))
        print("digest ok")
        return 0
    _write(args.out, cms.digest_data(cms.make_data(_read(args.infile))).to_der())
    return 0


def _cmd_cms_encrypt(args) -> int:
    key = _hex_arg(args.key_hex)
    if args.decrypt:
        inner = cms.decrypt_data(cms.ContentInfo.from_der(_read(args.infile)), key)
        _write(args.out, cms.data_payload(inner))
        return 0
    rng = _build_rng(args)
    _write(args.out, cms.encrypt_data(cms.make_data(_read(args.infile)), key, rng).to_der())
    return 0


def _cmd_cms_auth(args) -> int:
    key = _hex_arg(args.key_hex)
    if args.check:
        cms.check_auth(cms.ContentInfo.from_der(_read(args.infile)), key)
        print("tag ok")
        return 0
    _write(args.out, cms.authenticate_data(cms.make_data(_read(args.infile)), key).to_der())
    return 0


# ---------------------------------------------------------------------------
# PFX commands


def _pfx_credentials(args) -> pfx_mod.PfxCredentials:
    integrity = args.password if args.integrity_password is None else args.integrity_password
    return pfx_mod.PfxCredentials(
        privacy_password=text_octets(args.password) if args.password else None,
        integrity_password=text_octets(integrity) if integrity else None,
        destination_pub=_load_public(args.dest_pub) if getattr(args, "dest_pub", None) else None,
        destination_priv=_load_private(args.dest_key) if getattr(args, "dest_key", None) else None,
        source_sign_key=_load_private(args.sign_key) if getattr(args, "sign_key", None) else None,
        source_verify_key=_load_public(args.source_pub) if getattr(args, "source_pub", None) else None,
        source_name=csr_mod.Name((("commonName", args.source_cn),))
        if getattr(args, "source_cn", None) else None,
    )


def _cmd_pfx_pack(args) -> int:
    rng = _build_rng(args)
    key_id = keystore.attribute_make("localKeyId", b"\x01")

    def bags():  # read by pfx_create after its guard, so a refused pack shrouds nothing
        if args.key:
            info = keystore.PrivateKeyInfo.from_der(_read(args.key))
            if args.password:
                epki = keystore.encrypt_private_key(info, text_octets(args.password),
                                                    rng.read(pkcs5.DEFAULT_SALT_LEN),
                                                    pkcs5.DEFAULT_ITERATIONS, rng)
                yield pfx_mod.SafeBag(epki, (key_id,))
            else:
                yield pfx_mod.SafeBag(info, (key_id,))
        if args.cert:
            yield pfx_mod.SafeBag(cms.ContentInfo.from_der(_read(args.cert)), (key_id,))
    pdu = pfx_mod.pfx_create(bags(), args.privacy.replace("-", "_"),
                             args.integrity.replace("-", "_"),
                             _pfx_credentials(args), rng)
    _write(args.out, pdu.to_der())
    return 0


_BAG_SUFFIXES = {"cert": "cms", "key": "p8", "shroudedKey": "p8e"}


def _cmd_pfx_unpack(args) -> int:
    pdu = pfx_mod.PfxPdu.from_der(_read(args.infile))
    bags = pfx_mod.pfx_open(pdu, _pfx_credentials(args))
    os.makedirs(args.out_dir, exist_ok=True)
    for index, bag in enumerate(bags):
        suffix = _BAG_SUFFIXES[bag.bag_type]
        _write(os.path.join(args.out_dir, f"bag{index}.{suffix}"), bag.value.to_der())
    print(f"unpacked {len(bags)} bags")
    return 0


# ---------------------------------------------------------------------------
# token demo


def _personal_token(label: str, rng: RandomSource, so_pin: str,
                    user_pin: str) -> tuple[Token, token_mod.Session]:
    """A fresh token, initialized under ``so_pin``, whose SO has set the user
    PIN and handed over: the user is logged in on the returned R/W session."""
    token = Token(label, rng)
    token.initialize(so_pin)
    session = token.open_session(rw=True)
    token.login(session, token_mod.USER_SO, so_pin)
    token.init_user_pin(session, user_pin)
    token.logout(session)
    token.login(session, token_mod.USER_NORMAL, user_pin)
    return token, session


def _cmd_token_demo(args) -> int:
    token, session = _personal_token("demo-token", _build_rng(args), "so-pin", "user-pin")
    pub_h, priv_h = token.generate_key_pair(session, 1024, label="demo")
    challenge = token.random(session, 16)
    signature = token.sign(session, priv_h, challenge)
    print(f"challenge={challenge.hex()}")
    print(f"signature ok: {token.verify(session, pub_h, challenge, signature)}")
    try:
        token.get_attribute(session, priv_h, token_mod.CKA_VALUE)
    except token_mod.AttributeSensitive:
        print("private key value: refused (sensitive)")
    print(export_pkcs15_layout(token), end="")
    return 0


def _cmd_strength(args) -> int:
    value = rsa.strength_lookup(args.bits, args.primes)
    print("absent" if value is None else value)
    return 0


# ---------------------------------------------------------------------------
# the end-to-end scenario

SCENARIO_STEPS = (
    "keypair-generation",
    "natural-person-attributes",
    "certification-request",
    "enveloped-transport",
    "certificate-issuance",
    "private-key-wrapping",
    "pfx-transfer",
    "token-provisioning",
    "challenge-response",
)
FAULT_POINTS = ("transport", "pfx", "challenge")

_ALICE_PASSWORD = b"alice-card-pin"
_TRANSFER_CREDENTIALS = pfx_mod.PfxCredentials(privacy_password=b"transfer-privacy",
                                               integrity_password=b"transfer-integrity")


def run_scenario(seed: bytes, fault: str | None = None) -> tuple[str, bool]:
    """Replay the enrollment flow; returns (report, all_steps_passed).  A step's
    declared failure (PkcsError) is its FAIL line; a programming error escapes."""
    if fault is not None and fault not in FAULT_POINTS:
        raise ValueError(f"unknown fault point {fault!r}")
    lines = [
        "smart-card enrollment scenario",
        f"seed={seed.hex()}",
        f"fault={fault or 'none'}",
    ]
    directory: list[str] = []
    steps = _scenario(SeededSource(seed), fault, directory)
    passed = 0
    failed_at = None
    for index, name in enumerate(SCENARIO_STEPS, start=1):
        try:
            detail = next(steps)
        except PkcsError as exc:
            reason = exc if isinstance(exc, ScenarioStepFailed) else f"{type(exc).__name__}: {exc}"
            lines.append(f"step {index}/9 {name:<26} FAIL  {reason}")
            failed_at = name
            break
        lines.append(f"step {index}/9 {name:<26} PASS  {detail}")
        passed += 1
    if failed_at is None:
        lines.append(f"result: {passed}/9 steps passed")
    else:
        lines.append(f"result: {passed}/9 steps passed, failed at {failed_at}")
    if directory:
        lines.append("token directory:")
        lines.append(directory[0].rstrip("\n"))
    return "\n".join(lines) + "\n", failed_at is None


def _scenario(rng: RandomSource, fault: str | None, directory: list[str]):
    """The steps of SCENARIO_STEPS in order: yields each one's report detail,
    raises where one fails, and appends the provisioned token's PKCS #15
    directory to ``directory``."""
    # keypair-generation
    alice_pub, alice_priv = rsa.generate_key(1024, 2, 65537, rng)
    probe = 0x1234567890ABCDEF
    if rsa.rsa_private_op(rsa.rsa_public_op(probe, alice_pub), alice_priv) != probe:
        raise ScenarioStepFailed("operation identity failed")
    ca_pub, ca_priv = rsa.generate_key(1024, 2, 65537, rng)
    yield f"|n|={alice_pub.n.bit_length()} bits, u={alice_priv.u}, e={alice_pub.e}"

    # natural-person-attributes
    bundle = keystore.natural_person_bundle(
        email_address="alice@example.org",
        country_of_citizenship="US",
        place_of_birth="Springfield",
        date_of_birth="19800101000000Z",
        gender="F",
    )
    for attribute in bundle:
        recoded = keystore.Attribute.from_der(attribute.to_der())
        if recoded != attribute:
            raise ScenarioStepFailed("attribute round-trip failed")
    yield f"{len(bundle)} attributes"

    # certification-request
    subject = csr_mod.Name((
        ("commonName", "Alice Example"),
        ("organization", "Example Credit Union"),
        ("country", "US"),
        ("emailAddress", "alice@example.org"),
    ))
    request = csr_mod.build_csr(
        subject, (alice_pub, alice_priv),
        (keystore.attribute_make("challengePassword", "revoke-me-not"),), rng)
    if not csr_mod.verify_csr(request):
        raise ScenarioStepFailed("self-signature failed")
    request_der = request.to_der()
    yield f"csr={_fingerprint(request_der)}"

    # enveloped-transport
    wire = bytearray(cms.envelope(cms.make_data(request_der), ca_pub, rng).to_der())
    if fault == "transport":
        wire[len(wire) // 2] ^= 0x01
    try:
        received = cms.open_envelope(cms.ContentInfo.from_der(bytes(wire)), ca_priv)
        ca_request = csr_mod.CertificationRequest.from_der(cms.data_payload(received))
        ok = csr_mod.verify_csr(ca_request)
    except PkcsError as exc:
        raise ScenarioStepFailed(f"CA could not open: {type(exc).__name__}")
    if not ok:
        raise ScenarioStepFailed("request invalid after transport")
    yield f"envelope={_fingerprint(bytes(wire))}"

    # certificate-issuance
    ca_name = csr_mod.Name((("commonName", "Toy Issuing CA"), ("country", "US")))
    certificate = cms.toy_issue(ca_request, ca_priv, ca_name, 1001, rng)
    cert_subject, cert_public, serial, _issuer = cms.cert_fields(
        cms.verify_signed(certificate, ca_pub)[0])
    if cert_subject != subject or cert_public != alice_pub:
        raise ScenarioStepFailed("certificate binds the wrong identity")
    yield f"serial={serial} cert={_fingerprint(certificate.to_der())}"

    # private-key-wrapping
    info = keystore.PrivateKeyInfo(alice_priv, bundle)
    epki = keystore.encrypt_private_key(info, _ALICE_PASSWORD, rng.read(pkcs5.DEFAULT_SALT_LEN),
                                        2048, rng)
    if keystore.decrypt_private_key(epki, _ALICE_PASSWORD) != info:
        raise ScenarioStepFailed("wrap/unwrap mismatch")
    yield f"epki={_fingerprint(epki.to_der())}"

    # pfx-transfer
    key_id = keystore.attribute_make("localKeyId", b"\x01")
    bags = (
        pfx_mod.SafeBag(epki, (key_id, keystore.attribute_make("friendlyName", "alice-key"))),
        pfx_mod.SafeBag(certificate,
                        (key_id, keystore.attribute_make("friendlyName", "alice-cert"))),
    )
    pfx_der = pfx_mod.pfx_create(bags, pfx_mod.PRIVACY_PASSWORD, pfx_mod.INTEGRITY_PASSWORD,
                                 _TRANSFER_CREDENTIALS, rng).to_der()
    yield f"pfx={_fingerprint(pfx_der)} bags={len(bags)}"

    # token-provisioning
    wire = bytearray(pfx_der)
    if fault == "pfx":
        wire[len(wire) // 2] ^= 0x01
    try:
        arrived = pfx_mod.pfx_open(pfx_mod.PfxPdu.from_der(bytes(wire)), _TRANSFER_CREDENTIALS)
    except IntegrityFailure:
        raise ScenarioStepFailed("PFX integrity check failed")
    except PkcsError as exc:
        raise ScenarioStepFailed(f"PFX unusable: {type(exc).__name__}")
    if arrived != bags:
        raise ScenarioStepFailed("bags arrived altered")
    shrouded = next(b for b in arrived if b.bag_type == "shroudedKey")
    cert_bag = next(b for b in arrived if b.bag_type == "cert")
    unwrapped = keystore.decrypt_private_key(shrouded.value, _ALICE_PASSWORD)
    token, session = _personal_token("alice-card", rng, "so-factory-pin",
                                     _ALICE_PASSWORD.decode())
    key_handle = token.create_object(session, token_mod.CLASS_KEY, {
        token_mod.CKA_VALUE: keystore.encode_private_key(unwrapped.key),
        token_mod.CKA_KEY_TYPE: "rsa", token_mod.CKA_KEY_KIND: "private",
        token_mod.CKA_ID: b"\x01", token_mod.CKA_LABEL: "alice-key",
        token_mod.CKA_PRIVATE: True, token_mod.CKA_SENSITIVE: True,
        token_mod.CKA_EXTRACTABLE: False, token_mod.CKA_SIGN: True,
    })
    token.create_object(session, token_mod.CLASS_CERTIFICATE, {
        token_mod.CKA_VALUE: cert_bag.value.to_der(),
        token_mod.CKA_SUBJECT: "CN=Alice Example", token_mod.CKA_ID: b"\x01",
        token_mod.CKA_LABEL: "alice-cert",
    })
    token.create_object(session, token_mod.CLASS_DATA, {
        token_mod.CKA_VALUE: shrouded.value.to_der(),
        token_mod.CKA_LABEL: "alice-epki",
    })
    manifest = export_pkcs15_layout(token)
    for required in ("EF(PrKDF): 1", "EF(CDF): 1", "EF(DODF): 1"):
        if required not in manifest.splitlines():
            raise ScenarioStepFailed("directory export incomplete")
    directory.append(manifest)
    yield "card initialized, 3 objects stored"

    # challenge-response
    challenge = rng.read(32)
    signature = bytearray(token.sign(session, key_handle, challenge))
    if fault == "challenge":
        signature[0] ^= 0x01
    if not pkcs1.verify(challenge, bytes(signature), cert_public):
        raise ScenarioStepFailed("signature rejected by verifier")
    yield f"challenge={challenge[:8].hex()} sig={_fingerprint(bytes(signature))}"


def _cmd_scenario(args) -> int:
    seed = _seed(args)
    report, ok = run_scenario(bytes(range(16)) if seed is None else seed, args.fault)
    print(report, end="")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkcswb",
        description="Desk-scale PKCS workbench: keys, paddings, containers, token.")
    parser.add_argument("--seed", default=None,
                        help="hex seed for a deterministic random source "
                        "(or set PKCSWB_SEED; an empty PKCSWB_SEED counts as not set)")
    # each option that several subcommands take is defined once, in a parent
    # parser; --seed is accepted on either side of the subcommand, and
    # SUPPRESS keeps the subcommand-level flag from clobbering a top-level value
    seed, infile, out, key, password, iterations, pfx_passwords, out_or_check = (
        argparse.ArgumentParser(add_help=False) for _ in range(8))
    seed.add_argument("--seed", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    infile.add_argument("--in", dest="infile", required=True)
    out.add_argument("--out", required=True)
    key.add_argument("--key", required=True)
    password.add_argument("--password", required=True)
    iterations.add_argument("--iter", dest="iterations", type=int,
                            default=pkcs5.DEFAULT_ITERATIONS)
    pfx_passwords.add_argument("--password")
    pfx_passwords.add_argument("--integrity-password")
    make_or_check = out_or_check.add_mutually_exclusive_group(required=True)
    make_or_check.add_argument("--out")
    make_or_check.add_argument("--check", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[seed, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("keygen", _cmd_keygen, "generate a multiprime RSA key", out)
    p.add_argument("--bits", type=int, default=1024)
    p.add_argument("--primes", type=int, default=2)
    p.add_argument("--e", type=int, default=65537)
    p.add_argument("--pub")

    for name, func in (("rsa-encrypt", _cmd_rsa_encrypt), ("rsa-decrypt", _cmd_rsa_decrypt)):
        p = command(name, func, f"{name.split('-')[1]} with v1_5 or OAEP padding",
                    key, infile, out)
        p.add_argument("--scheme", choices=[pkcs1.SCHEME_V15, pkcs1.SCHEME_OAEP],
                       default=pkcs1.SCHEME_OAEP)

    command("sign", _cmd_sign, "RSASSA-PSS signature", key, infile, out)
    p = command("verify", _cmd_verify, "verify an RSASSA-PSS signature", key, infile)
    p.add_argument("--sig", required=True)

    p = command("kdf", _cmd_kdf, "PBKDF2 key derivation", password, iterations)
    p.add_argument("--salt", required=True, help="hex, 0x prefix allowed")
    p.add_argument("--len", dest="length", type=int, default=32)

    p = command("p8-wrap", _cmd_p8_wrap, "encrypt a private key (PBES2)",
                infile, password, iterations, out)
    p.add_argument("--salt-len", type=int, default=pkcs5.DEFAULT_SALT_LEN)
    command("p8-unwrap", _cmd_p8_unwrap, "decrypt an encrypted private key",
            infile, password, out)

    p = command("csr-new", _cmd_csr_new, "build a self-signed certification request",
                key, out)
    p.add_argument("--cn", required=True)
    p.add_argument("--org")
    p.add_argument("--country")
    p.add_argument("--email")
    p.add_argument("--challenge")
    command("csr-verify", _cmd_csr_verify, "verify a certification request", infile)

    p = command("cms-sign", _cmd_cms_sign, "wrap a file in signed-data", key, infile, out)
    p.add_argument("--cn", default="CLI Signer")
    p.add_argument("--signing-time", help="YYMMDDHHMMSSZ attribute value")
    p = command("cms-verify", _cmd_cms_verify, "verify signed-data", key, infile)
    p.add_argument("--out")
    command("cms-envelope", _cmd_cms_envelope, "wrap a file in enveloped-data",
            key, infile, out)
    command("cms-open", _cmd_cms_open, "open enveloped-data", key, infile, out)
    command("cms-digest", _cmd_cms_digest, "make or check digested-data",
            infile, out_or_check)
    p = command("cms-encrypt", _cmd_cms_encrypt, "encrypted-data under a pre-shared key",
                infile, out)
    p.add_argument("--key-hex", required=True, help="16-octet AES key, hex")
    p.add_argument("--decrypt", action="store_true")
    p = command("cms-auth", _cmd_cms_auth, "authenticated-data under a pre-shared key",
                infile, out_or_check)
    p.add_argument("--key-hex", required=True)

    p = command("pfx-pack", _cmd_pfx_pack, "pack key/cert bags into a PFX", pfx_passwords, out)
    p.add_argument("--privacy", choices=["password", "public-key"], required=True)
    p.add_argument("--integrity", choices=["password", "public-key"], required=True)
    p.add_argument("--key", help="private key to shroud and carry")
    p.add_argument("--cert", help="toy certificate (CMS signed-data file)")
    p.add_argument("--dest-pub")
    p.add_argument("--sign-key")
    p.add_argument("--source-cn")
    p = command("pfx-unpack", _cmd_pfx_unpack, "open a PFX and write its bags out",
                infile, pfx_passwords)
    p.add_argument("--dest-key")
    p.add_argument("--source-pub")
    p.add_argument("--out-dir", required=True)

    command("token-demo", _cmd_token_demo, "exercise the software token")
    p = command("strength", _cmd_strength, "symmetric-equivalent strength lookup")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--primes", type=int, required=True)
    p = command("scenario", _cmd_scenario, "replay the enrollment scenario")
    p.add_argument("--fault", choices=list(FAULT_POINTS))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PkcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

