"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Budgets and tolerances are pinned in
the decorators and assertions, not configurable.
"""

import functools
import random
import time

import pytest

from oracles import naive_pbkdf2
from pkcswb import asn1, cms, csr as csr_mod, keystore, pfx as pfx_mod, pkcs1, \
    pkcs5, rsa, token as tk
from pkcswb.cli import run_scenario
from pkcswb.errors import DecryptionError
from pkcswb.primitives import ConstantSource
from conftest import pfx_credentials, seeded, tiny_hash
from test_asn1 import random_value
from test_token import _attempt, _login_as, _matrix_token, expected_outcome


def criterion(number: int, name: str, budget: float | None = None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(
                        f"ran {elapsed:.2f}s, budget {budget:.0f}s")
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({name}): "
                  f"PASS in {elapsed:.2f}s")
        return wrapper
    return decorate


# -- 1: strength table fidelity ------------------------------------------------


@criterion(1, "strength-table-fidelity", budget=1.0)
def test_criterion_1_strength_table():
    rows = [
        (80, 1024, 2), (73, 1024, 3),
        (112, 2335, 3), (100, 2335, 4), (88, 2335, 5),
        (128, 3072, 3), (117, 3072, 4), (103, 3072, 5), (93, 3072, 6),
        (192, 7680, 4), (175, 7680, 5), (158, 7680, 6), (144, 7680, 7),
        (125, 7680, 9),
        (256, 15360, 5), (235, 15360, 6), (215, 15360, 7), (199, 15360, 8),
    ]
    assert len(rows) == 18 and len(rsa.STRENGTH_TABLE) == 18
    for strength, bits, u in rows:
        assert rsa.strength_lookup(bits, u) == strength


# -- 2: multiprime correctness ----------------------------------------------------


@criterion(2, "multiprime-correctness", budget=30.0)
def test_criterion_2_multiprime(toy_keys):
    samples = 10_000
    for u, (public, private) in toy_keys.items():
        assert private.u == u
        assert max(r.bit_length() for r in private.primes) <= 24
        stream = seeded(b"sweep-%d" % u)
        width = (public.n.bit_length() + 7) // 8 + 2
        for _ in range(samples):
            m = int.from_bytes(stream.read(width), "big") % public.n
            c = rsa.rsa_public_op(m, public)
            via_crt = rsa.rsa_private_op(c, private)
            assert via_crt == pow(c, private.d, private.n)   # CRT == naive
            assert via_crt == m                               # decrypt identity
            s = rsa.rsa_private_op(m, private)
            assert rsa.rsa_public_op(s, public) == m          # verify identity


# -- 3: padding layout conformance --------------------------------------------------


@criterion(3, "padding-layout-conformance")
def test_criterion_3_padding_layouts():
    for k in (32, 64, 128):
        message = b"\xab\xcd"
        em = pkcs1.eme_v15_pad(message, k, ConstantSource(0xFF))
        assert em == b"\x00\x02" + b"\xff" * (k - 3 - len(message)) + b"\x00" + message

        # OAEP: real SHA-256 where it fits, a truncated hash where k is small
        hash_alg = pkcs1.SHA256 if k > 2 * 32 + 2 else tiny_hash(8)
        params = pkcs1.OaepParams(k, hash_alg)
        em = pkcs1.oaep_encode(b"m", params, seeded(b"oaep%d" % k))
        assert len(em) == k and em[0] == 0x00
        assert pkcs1.oaep_decode(em, params) == b"m"

        # PSS: trailer octet and cleared top bits, both |n| = 8k and 8k - 7
        for modulus_bits, lead_mask in ((8 * k, 0x7F), (8 * k - 7, 0x00)):
            pss_hash = pkcs1.SHA256 if k - 32 - 2 >= 8 else tiny_hash(8)
            pss = pkcs1.PssParams(modulus_bits, pss_hash, salt_len=8)
            em = pkcs1.pss_encode(b"m", pss, seeded(b"pss%d" % k))
            assert len(em) == k
            assert em[-1] == 0xBC
            assert em[0] | lead_mask == lead_mask or em[0] & ~lead_mask == 0
            assert em[0] & ~lead_mask & 0xFF == 0
            assert pkcs1.pss_verify_encoding(b"m", em, pss)


# -- 4: uniform-error discipline ------------------------------------------------------


@criterion(4, "uniform-error-discipline")
def test_criterion_4_uniform_errors(key_1024):
    public, private = key_1024
    k = public.modulus_octets
    raw = lambda em: pkcs1.i2osp(rsa.rsa_public_op(pkcs1.os2ip(em), public), k)

    v15_malformed = [
        raw(b"\x01\x02" + b"\xff" * (k - 4) + b"\x00m"),      # wrong leading octet
        raw(b"\x00\x01" + b"\xff" * (k - 4) + b"\x00m"),      # wrong type octet
        raw(b"\x00\x02" + b"\xff" * 5 + b"\x00" + b"m" * (k - 9)),  # short PS
        raw(b"\x00\x02" + b"\xff" * (k - 2)),                  # no delimiter
        pkcs1.i2osp(private.n, k),                             # representative >= n
        b"\x00" * (k - 1),                                     # wrong length
    ]
    shapes = set()
    for ciphertext in v15_malformed:
        with pytest.raises(DecryptionError) as info:
            pkcs1.decrypt(ciphertext, private, pkcs1.SCHEME_V15)
        shapes.add((type(info.value), info.value.args))
    assert len(shapes) == 1

    good = pkcs1.oaep_encode(b"m", pkcs1.OaepParams(k), seeded(b"u"))
    flip = lambda index: raw(bytes(
        b ^ (0x01 if i == index else 0) for i, b in enumerate(good)))
    oaep_malformed = [
        flip(0),                     # leading octet nonzero
        flip(5),                     # inside the masked seed
        flip(40),                    # inside the masked data block
        flip(k - 1),                 # last octet
        pkcs1.i2osp(private.n, k),   # representative >= n
        b"\x00" * (k + 1),           # wrong length
    ]
    shapes = set()
    for ciphertext in oaep_malformed:
        with pytest.raises(DecryptionError) as info:
            pkcs1.decrypt(ciphertext, private, pkcs1.SCHEME_OAEP)
        shapes.add((type(info.value), info.value.args))
    # wrong-label decode of a valid ciphertext fails identically too
    with pytest.raises(DecryptionError) as info:
        pkcs1.decrypt(raw(good), private, pkcs1.SCHEME_OAEP, label=b"other")
    shapes.add((type(info.value), info.value.args))
    assert len(shapes) == 1


# -- 5: PBKDF2 oracle equivalence -------------------------------------------------------


@criterion(5, "pbkdf2-oracle-equivalence")
def test_criterion_5_pbkdf2():
    password, salt = b"acceptance", b"\x5a" * 8
    for iterations in (1, 2, 1000):
        for dk_len in (31, 32, 69):
            ours = pkcs5.pbkdf2(password,
                                pkcs5.Pbkdf2Params(salt, iterations, dk_len))
            assert ours == naive_pbkdf2(password, salt, iterations, dk_len)

    def median_time(iterations: int) -> float:
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            pkcs5.pbkdf2(password, pkcs5.Pbkdf2Params(salt, iterations, 32))
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]

    ratio = median_time(4000) / median_time(1000)
    assert 3.0 <= ratio <= 5.0, f"iteration scaling ratio {ratio:.2f} outside [3, 5]"


# -- 6: container round-trips --------------------------------------------------------------


@criterion(6, "container-round-trips", budget=60.0)
def test_criterion_6_containers(key_1024, key_1024_b, key_1024_c):
    def stable(encoded: bytes, decode, encode) -> object:
        value = decode(encoded)
        assert encode(value) == encoded
        return value

    alice_public, alice_private = key_1024
    rng = seeded(b"containers")

    # PKCS#8 plain
    info = keystore.PrivateKeyInfo(
        alice_private, (keystore.attribute_make("friendlyName", "alice"),))
    decoded_info = stable(info.to_der(), keystore.PrivateKeyInfo.from_der,
                          lambda v: v.to_der())
    assert decoded_info == info

    # PKCS#8 encrypted
    epki = keystore.encrypt_private_key(info, b"pw", b"salt-p8e", 256, rng)
    decoded_epki = stable(epki.to_der(), keystore.EncryptedPrivateKeyInfo.from_der,
                          lambda v: v.to_der())
    assert keystore.decrypt_private_key(decoded_epki, b"pw") == info

    # PKCS#10
    subject = csr_mod.Name((("commonName", "Alice"), ("country", "US")))
    request = csr_mod.build_csr(subject, (alice_public, alice_private),
                                (keystore.attribute_make("challengePassword", "x"),),
                                rng)
    decoded_request = stable(request.to_der(), csr_mod.CertificationRequest.from_der,
                             lambda v: v.to_der())
    assert decoded_request == request and csr_mod.verify_csr(decoded_request)

    # all six CMS content types
    recip_public, recip_private = key_1024_b
    ident = cms.SignerIdent(subject, b"acc")
    signing_time = keystore.attribute_make("signingTime", "200101120000Z")
    inner = cms.make_data(b"acceptance payload")
    produced = {
        "data": inner,
        "signed": cms.sign_data(inner, alice_private, ident, (signing_time,), rng),
        "enveloped": cms.envelope(inner, recip_public, rng),
        "digested": cms.digest_data(inner),
        "encrypted": cms.encrypt_data(inner, b"k" * 16, rng),
        "authenticated": cms.authenticate_data(inner, b"mac", (signing_time,)),
    }
    for name, ci in produced.items():
        decoded = stable(ci.to_der(), cms.ContentInfo.from_der, lambda v: v.to_der())
        assert decoded == ci, name
    recovered, ok = cms.verify_signed(produced["signed"], alice_public)
    assert ok and recovered == inner
    assert cms.open_envelope(produced["enveloped"], recip_private) == inner
    assert cms.check_digest(produced["digested"])
    assert cms.decrypt_data(produced["encrypted"], b"k" * 16) == inner
    assert cms.check_auth(produced["authenticated"], b"mac")

    # all four PFX privacy x integrity combinations
    cert = cms.toy_issue(request, key_1024_b[1], csr_mod.Name((("commonName", "CA"),)),
                         1, rng)
    key_id = keystore.attribute_make("localKeyId", b"\x01")
    bags = (pfx_mod.SafeBag(epki, (key_id,)), pfx_mod.SafeBag(cert, (key_id,)))
    privacies, integrities = pfx_credentials(b"priv", b"integ", key_1024_c, key_1024, subject)
    for seal, unseal in privacies.values():
        for sign, check in integrities.values():
            pdu = pfx_mod.pfx_create(bags, seal, sign, rng)
            decoded_pdu = stable(pdu.to_der(), pfx_mod.PfxPdu.from_der,
                                 lambda v: v.to_der())
            assert decoded_pdu == pdu
            assert pfx_mod.pfx_open(decoded_pdu, unseal, check) == bags


# -- 7: token access-control matrix -----------------------------------------------------------


@criterion(7, "token-access-control-matrix")
def test_criterion_7_token_matrix(key_512):
    # exhaustive (class x privacy x login x session-mode) x operation sweep
    token, anchor, handles = _matrix_token()
    combos = 0
    for obj_class in (tk.CLASS_DATA, tk.CLASS_CERTIFICATE, tk.CLASS_KEY):
        for private in (False, True):
            for login in (None, tk.USER_SO, tk.USER_NORMAL):
                for rw in (False, True):
                    _login_as(token, anchor, login)
                    session = token.open_session(rw=rw)
                    for operation in ("read", "create", "write", "destroy"):
                        expected = expected_outcome(operation, private, login, rw)
                        actual = _attempt(token, session, obj_class, private,
                                          handles, operation)
                        assert actual is expected
                    token.close_session(session)
                    combos += 1
    assert combos == 3 * 2 * 3 * 2

    # sensitive / unextractable non-disclosure sweep
    sweep_token = tk.Token("acceptance", seeded(b"acc-token"))
    sweep_token.initialize("so")
    session = sweep_token.open_session(rw=True)
    sweep_token.login(session, tk.USER_SO, "so")
    sweep_token.init_user_pin(session, "user")
    sweep_token.logout(session)
    sweep_token.login(session, tk.USER_NORMAL, "user")
    _, small = key_512
    value = keystore.encode_private_key(small)
    handle = sweep_token.create_object(session, tk.CLASS_KEY, {
        tk.CKA_VALUE: value, tk.CKA_KEY_TYPE: "rsa", tk.CKA_KEY_KIND: "private",
        tk.CKA_ID: b"\x01", tk.CKA_PRIVATE: True, tk.CKA_SENSITIVE: True,
        tk.CKA_EXTRACTABLE: False, tk.CKA_SIGN: True})
    wrap_pub, _ = sweep_token.generate_key_pair(session, 1024)
    with pytest.raises(tk.AttributeSensitive):
        sweep_token.get_attribute(session, handle, tk.CKA_VALUE)
    with pytest.raises(tk.KeyUnextractable):
        sweep_token.wrap_key(session, wrap_pub, handle)
    with pytest.raises(tk.AttributeReadOnly):
        sweep_token.copy_object(session, handle, {tk.CKA_SENSITIVE: False})
    with pytest.raises(tk.AttributeReadOnly):
        sweep_token.copy_object(session, handle, {tk.CKA_EXTRACTABLE: True})
    outputs = [sweep_token.sign(session, handle, b"m"),
               sweep_token.digest(session, b"m"),
               sweep_token.random(session, 64)]
    for blob in outputs:
        assert value not in blob

    # session events table
    events_token = tk.Token("events", seeded(b"acc-events"))
    events_token.initialize("so")
    session = events_token.open_session(rw=True)
    with pytest.raises(tk.UserPinNotInitialized):
        events_token.login(session, tk.USER_NORMAL, "user")
    events_token.login(session, tk.USER_SO, "so")        # Log In SO
    with pytest.raises(tk.AlreadyLoggedIn):
        events_token.login(session, tk.USER_SO, "so")
    events_token.init_user_pin(session, "user")
    events_token.logout(session)                          # Log Out
    with pytest.raises(tk.NotLoggedIn):
        events_token.logout(session)
    with pytest.raises(tk.PinIncorrect):
        events_token.login(session, tk.USER_NORMAL, "wrong")
    assert events_token.login_state is None
    events_token.login(session, tk.USER_NORMAL, "user")   # Log In User
    events_token.close_session(session)                   # Close Session
    assert events_token.login_state is None
    with pytest.raises(tk.SessionClosed):
        events_token.close_session(session)
    survivor = events_token.open_session(rw=False)
    events_token.device_removed()                         # Device Removed
    with pytest.raises(tk.SessionClosed):
        events_token.digest(survivor, b"x")


# -- 8: scenario ----------------------------------------------------------------------------


@criterion(8, "scenario-end-to-end")
def test_criterion_8_scenario():
    seed = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    first, ok = run_scenario(seed)
    assert ok and first.count(" PASS ") == 9
    second, ok_again = run_scenario(seed)
    assert ok_again and second == first

    expectations = {
        "transport": "enveloped-transport",
        "pfx": "token-provisioning",
        "challenge": "challenge-response",
    }
    for fault, failing_step in expectations.items():
        report, ok = run_scenario(seed, fault)
        assert not ok
        assert f"failed at {failing_step}" in report
        assert report.count(" FAIL ") == 1


# -- 9: DER fuzz stability --------------------------------------------------------------------


@criterion(9, "der-fuzz-stability")
def test_criterion_9_der_fuzz():
    rng = random.Random(0xACCE97)
    for _ in range(10_000):
        value = random_value(rng, 1)
        encoded = asn1.der_encode(value)
        decoded = asn1.der_decode(encoded)
        assert decoded == value
        assert asn1.der_encode(decoded) == encoded

    # malformed corpus: truncation, non-minimal lengths, indefinite form
    for _ in range(300):
        encoded = asn1.der_encode(random_value(rng, 2))
        for cut in sorted({1, len(encoded) // 2, len(encoded) - 1}):
            if 0 < cut < len(encoded):
                with pytest.raises(asn1.DerError):
                    asn1.der_decode(encoded[:cut])
        low_tag_form = encoded[0] & 0x1F != 0x1F  # octet 1 is then the length
        if low_tag_form and encoded[1] < 0x80:
            widened = encoded[:1] + bytes([0x81, encoded[1]]) + encoded[2:]
            with pytest.raises(asn1.NonMinimalLength):
                asn1.der_decode(widened)
        if low_tag_form:
            indefinite = encoded[:1] + b"\x80" + encoded[2:] + b"\x00\x00"
            with pytest.raises(asn1.DerError):
                asn1.der_decode(indefinite)
