import inspect

import pytest

from pkcswb import keystore, rsa, token as tk
from pkcswb.errors import BadParameter
from pkcswb.token import (CKA_DECRYPT, CKA_EXTRACTABLE, CKA_ID, CKA_KEY_KIND,
                          CKA_KEY_TYPE, CKA_LABEL, CKA_LOCAL, CKA_PRIVATE,
                          CKA_SENSITIVE, CKA_SIGN, CKA_SUBJECT, CKA_TOKEN,
                          CKA_VALUE, CLASS_CERTIFICATE, CLASS_DATA, CLASS_KEY,
                          Token, export_pkcs15_layout)
from conftest import seeded


def fresh_token(tag: bytes = b"token") -> Token:
    token = Token("unit-token", seeded(tag))
    token.initialize("so-pin")
    return token


def user_session(token: Token, rw: bool = True):
    session = token.open_session(rw=True)
    token.login(session, tk.USER_SO, "so-pin")
    token.init_user_pin(session, "user-pin")
    token.logout(session)
    token.login(session, tk.USER_NORMAL, "user-pin")
    if rw:
        return session
    token.close_session(session)
    return token.open_session(rw=False)


# -- lifecycle ------------------------------------------------------------------


def test_double_initialize():
    token = fresh_token()
    with pytest.raises(tk.AlreadyInitialized):
        token.initialize("again")


def test_init_user_pin_requires_so():
    token = fresh_token()
    session = token.open_session(rw=True)
    with pytest.raises(tk.NotLoggedInAsSO):
        token.init_user_pin(session, "user-pin")
    token.login(session, tk.USER_NORMAL, "x") if False else None
    token.login(session, tk.USER_SO, "so-pin")
    token.init_user_pin(session, "user-pin")


@pytest.mark.parametrize("close", ["close_session", "close_all", "device_removed"])
def test_session_objects_go_with_their_session(close):
    token = fresh_token(b"session-objects")
    session = token.open_session(rw=True)
    other = token.open_session(rw=False)
    kept = token.create_object(session, CLASS_DATA, {CKA_VALUE: b"token"})
    mine = token.create_object(session, CLASS_DATA, {CKA_VALUE: b"mine", CKA_TOKEN: False})
    theirs = token.create_object(other, CLASS_DATA, {CKA_VALUE: b"theirs", CKA_TOKEN: False})
    assert token.object_handles() == (kept, mine, theirs)
    if close == "close_session":
        token.close_session(session)
        assert token.object_handles() == (kept, theirs)
    else:
        getattr(token, close)()
        assert token.object_handles() == (kept,)


def test_initialize_wipes_objects():
    token = Token("wipe", seeded(b"wipe"))
    token.initialize("so")
    session = token.open_session(rw=True)
    token.create_object(session, CLASS_DATA, {CKA_VALUE: b"x"})
    assert len(token.object_handles()) == 1
    token.finalize()
    # a fresh token starts empty after (re)initialization
    other = Token("wipe2", seeded(b"wipe2"))
    other.initialize("so")
    assert other.object_handles() == ()


def test_finalize_closes_all_sessions():
    token = fresh_token()
    sessions = [token.open_session(rw=True) for _ in range(3)]
    assert token.open_session_count == 3
    token.finalize()
    assert token.open_session_count == 0
    for session in sessions:
        with pytest.raises(tk.SessionClosed):
            token.digest(session, b"x")


# -- sessions ----------------------------------------------------------------------


def test_open_session_before_initialize():
    token = Token("blank", seeded(b"blank"))
    with pytest.raises(tk.NotInitialized):
        token.open_session(rw=True)
    token.initialize("so-pin")
    assert token.open_session(rw=True).handle == 1


_SESSION_METHODS = sorted(
    name for name, member in vars(Token).items()
    if not name.startswith("_") and inspect.isfunction(member)
    and list(inspect.signature(member).parameters)[1:2] == ["session"])


def test_every_session_call_is_found():
    assert set(_SESSION_METHODS) >= {
        "init_user_pin", "close_session", "login", "logout", "create_object",
        "destroy_object", "copy_object", "get_attribute", "set_attribute",
        "generate_key_pair", "sign", "verify", "encrypt", "decrypt", "wrap_key",
        "digest", "random"}


def _guarded_token():
    """A token with the normal user logged in, two objects, and a closed session."""
    token = fresh_token(b"guard")
    session = user_session(token)
    token.create_object(session, CLASS_DATA, {CKA_VALUE: b"public"})
    token.create_object(session, CLASS_DATA, {CKA_VALUE: b"private", CKA_PRIVATE: True})
    closed = token.open_session(rw=True)
    token.close_session(closed)
    return token, session, closed


@pytest.mark.parametrize("stranger", ["closed", "other token"])
@pytest.mark.parametrize("name", _SESSION_METHODS)
def test_every_session_call_refuses_a_session_not_open_here(name, stranger):
    token, session, closed = _guarded_token()
    twin, twin_session, _ = _guarded_token()
    if stranger == "closed":
        refused = closed
    else:
        refused = fresh_token(b"elsewhere").open_session(rw=True)
        assert refused.handle == session.handle
    method = getattr(token, name)
    # the guard runs before any argument after the session is read
    rest = [None for p in list(inspect.signature(method).parameters.values())[1:]
            if p.default is inspect.Parameter.empty]
    with pytest.raises(tk.SessionClosed):
        method(refused, *rest)
    assert token.object_handles() == twin.object_handles()
    assert token.login_state == twin.login_state == tk.USER_NORMAL
    assert token.random(session, 16) == twin.random(twin_session, 16)


def test_session_handles_unique():
    token = fresh_token()
    a = token.open_session(rw=True)
    b = token.open_session(rw=False)
    assert a.handle != b.handle


def test_second_close_fails():
    token = fresh_token()
    session = token.open_session(rw=True)
    token.close_session(session)
    with pytest.raises(tk.SessionClosed):
        token.close_session(session)


def test_close_all_then_any_operation_fails():
    token = fresh_token()
    session = token.open_session(rw=True)
    token.close_all()
    with pytest.raises(tk.SessionClosed):
        token.random(session, 4)


# -- session events table ------------------------------------------------------------


def test_login_so_event():
    token = fresh_token()
    session = token.open_session(rw=True)
    token.login(session, tk.USER_SO, "so-pin")
    assert token.login_state == tk.USER_SO


def test_login_user_event_requires_initialized_pin():
    token = fresh_token()
    session = token.open_session(rw=True)
    with pytest.raises(tk.UserPinNotInitialized):
        token.login(session, tk.USER_NORMAL, "user-pin")


def test_login_when_already_logged_in_rejected():
    token = fresh_token()
    session = token.open_session(rw=True)
    token.login(session, tk.USER_SO, "so-pin")
    for user_type in (tk.USER_SO, tk.USER_NORMAL):
        with pytest.raises(tk.AlreadyLoggedIn):
            token.login(session, user_type, "anything")
    assert token.login_state == tk.USER_SO


def test_wrong_pin_leaves_state_unchanged():
    token = fresh_token()
    session = token.open_session(rw=True)
    with pytest.raises(tk.PinIncorrect):
        token.login(session, tk.USER_SO, "wrong")
    assert token.login_state is None


def test_a_pin_utf8_cannot_hold_is_refused_and_leaves_state_unchanged():
    unencodable = "\udcff"
    rng = seeded(b"refused-pin")
    token = Token("unit-token", rng)
    with pytest.raises(BadParameter):
        token.initialize(unencodable)
    with pytest.raises(tk.NotInitialized):
        token.open_session(rw=True)
    token.initialize("so-pin")
    session = token.open_session(rw=True)
    with pytest.raises(BadParameter):
        token.login(session, tk.USER_SO, unencodable)
    assert token.login_state is None
    token.login(session, tk.USER_SO, "so-pin")
    with pytest.raises(BadParameter):
        token.init_user_pin(session, unencodable)
    token.logout(session)
    with pytest.raises(tk.UserPinNotInitialized):
        token.login(session, tk.USER_NORMAL, unencodable)
    # the refused PINs drew no salt: only the SO PIN's 8 octets are gone
    expected = seeded(b"refused-pin")
    expected.read(8)
    assert rng.read(16) == expected.read(16)


def test_logout_event():
    token = fresh_token()
    session = token.open_session(rw=True)
    token.login(session, tk.USER_SO, "so-pin")
    token.logout(session)
    assert token.login_state is None
    with pytest.raises(tk.NotLoggedIn):
        token.logout(session)


def test_close_session_event_resets_login_when_last():
    token = fresh_token()
    a = token.open_session(rw=True)
    b = token.open_session(rw=True)
    token.login(a, tk.USER_SO, "so-pin")
    token.close_session(a)
    assert token.login_state == tk.USER_SO  # b still open
    token.close_session(b)
    assert token.login_state is None


def test_device_removed_event():
    token = fresh_token()
    session = token.open_session(rw=True)
    token.login(session, tk.USER_SO, "so-pin")
    token.device_removed()
    assert token.login_state is None
    with pytest.raises(tk.SessionClosed):
        token.logout(session)


# -- access-control matrix -------------------------------------------------------------
#
# Expected outcomes are derived independently from the token-interface rules:
#   1. private objects are reachable only by the logged-in normal user;
#   2. creating/modifying/destroying token objects needs a R/W session;
#   3. everything else is allowed.
# Privacy is checked before session writability.


def expected_outcome(operation: str, private: bool, login: str | None, rw: bool):
    if private and login != tk.USER_NORMAL:
        return tk.NotLoggedIn
    if operation in ("create", "write", "destroy") and not rw:
        return tk.ReadOnlySession
    return None


_TEMPLATES = {
    CLASS_DATA: {CKA_VALUE: b"blob"},
    CLASS_CERTIFICATE: {CKA_VALUE: b"cert", CKA_SUBJECT: "CN=x", CKA_ID: b"\x01"},
    CLASS_KEY: {CKA_VALUE: b"\x00" * 8, CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "public",
                CKA_ID: b"\x02"},
}


def _matrix_token():
    token = Token("matrix", seeded(b"matrix"))
    token.initialize("so-pin")
    bootstrap = token.open_session(rw=True)
    token.login(bootstrap, tk.USER_SO, "so-pin")
    token.init_user_pin(bootstrap, "user-pin")
    token.logout(bootstrap)
    token.login(bootstrap, tk.USER_NORMAL, "user-pin")
    handles = {}
    for obj_class, template in _TEMPLATES.items():
        for private in (False, True):
            attrs = dict(template)
            attrs[CKA_PRIVATE] = private
            handles[(obj_class, private)] = token.create_object(
                bootstrap, obj_class, attrs)
    token.logout(bootstrap)
    # keep one session open so that login state survives later transitions
    return token, bootstrap, handles


def _login_as(token, session, login):
    if token.login_state is not None:
        token.logout(session)
    if login == tk.USER_SO:
        token.login(session, tk.USER_SO, "so-pin")
    elif login == tk.USER_NORMAL:
        token.login(session, tk.USER_NORMAL, "user-pin")


def test_access_control_matrix_exhaustive():
    token, anchor, handles = _matrix_token()
    operations = ("read", "create", "write", "destroy")
    cases = checked = 0
    for obj_class in (CLASS_DATA, CLASS_CERTIFICATE, CLASS_KEY):
        for private in (False, True):
            for login in (None, tk.USER_SO, tk.USER_NORMAL):
                for rw in (False, True):
                    _login_as(token, anchor, login)
                    session = token.open_session(rw=rw)
                    for operation in operations:
                        cases += 1
                        expected = expected_outcome(operation, private, login, rw)
                        outcome = _attempt(token, session, obj_class, private,
                                           handles, operation)
                        assert outcome is expected, (
                            obj_class, private, login, rw, operation,
                            outcome, expected)
                        checked += 1
                    token.close_session(session)
    assert cases == 3 * 2 * 3 * 2 * 4 and checked == cases


def _attempt(token, session, obj_class, private, handles, operation):
    """Run one probe; returns the error class raised, or None on success."""
    handle = handles[(obj_class, private)]
    try:
        if operation == "read":
            token.get_attribute(session, handle, CKA_LABEL)
        elif operation == "create":
            attrs = dict(_TEMPLATES[obj_class])
            attrs[CKA_PRIVATE] = private
            new = token.create_object(session, obj_class, attrs)
            token.destroy_object(session, new)
        elif operation == "write":
            token.set_attribute(session, handle, CKA_LABEL, "probe")
        elif operation == "destroy":
            copy = token.copy_object(session, handle)
            token.destroy_object(session, copy)
    except tk.TokenError as exc:
        return type(exc)
    return None


# -- object semantics --------------------------------------------------------------------


def test_absent_attribute_is_a_token_error():
    token = fresh_token(b"absent")
    session = token.open_session(rw=True)
    handle = token.create_object(session, CLASS_DATA, {CKA_VALUE: b"v"})
    with pytest.raises(tk.AttributeTypeInvalid) as raised:
        token.get_attribute(session, handle, CKA_SUBJECT)
    assert isinstance(raised.value, tk.TokenError)
    assert "AttributeTypeInvalid" in tk.__all__


def test_objects_always_well_formed():
    token = fresh_token(b"wf")
    session = token.open_session(rw=True)
    with pytest.raises(tk.TemplateIncomplete):
        token.create_object(session, CLASS_KEY, {CKA_VALUE: b"x"})
    with pytest.raises(tk.TemplateIncomplete):
        token.create_object(session, CLASS_CERTIFICATE, {CKA_VALUE: b"x"})


def test_sensitive_value_never_readable():
    token = fresh_token(b"sens")
    session = user_session(token)
    _pub, priv = token.generate_key_pair(session, 512, label="k")
    with pytest.raises(tk.AttributeSensitive):
        token.get_attribute(session, priv, CKA_VALUE)


def test_sensitive_and_extractable_flags_one_way():
    token = fresh_token(b"oneway")
    session = user_session(token)
    handle = token.create_object(session, CLASS_KEY, {
        CKA_VALUE: b"v", CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "public",
        CKA_ID: b"\x01", CKA_SENSITIVE: True, CKA_EXTRACTABLE: False})
    with pytest.raises(tk.AttributeReadOnly):
        token.set_attribute(session, handle, CKA_SENSITIVE, False)
    with pytest.raises(tk.AttributeReadOnly):
        token.set_attribute(session, handle, CKA_EXTRACTABLE, True)
    # flags may be tightened on a non-sensitive object, never loosened again
    loose = token.create_object(session, CLASS_KEY, {
        CKA_VALUE: b"v", CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "public",
        CKA_ID: b"\x02"})
    token.set_attribute(session, loose, CKA_SENSITIVE, True)
    with pytest.raises(tk.AttributeReadOnly):
        token.set_attribute(session, loose, CKA_SENSITIVE, False)


def test_copies_inherit_protections():
    token = fresh_token(b"copies")
    session = user_session(token)
    _pub, priv = token.generate_key_pair(session, 512)
    with pytest.raises(tk.AttributeReadOnly):
        token.copy_object(session, priv, {CKA_SENSITIVE: False})
    with pytest.raises(tk.AttributeReadOnly):
        token.copy_object(session, priv, {CKA_EXTRACTABLE: True})
    copy = token.copy_object(session, priv, {CKA_LABEL: "copy"})
    with pytest.raises(tk.AttributeSensitive):
        token.get_attribute(session, copy, CKA_VALUE)


def test_usage_flags_enforced(key_1024):
    token = fresh_token(b"usage")
    session = user_session(token)
    _, private = key_1024
    no_sign = token.create_object(session, CLASS_KEY, {
        CKA_VALUE: keystore.encode_private_key(private), CKA_KEY_TYPE: "rsa",
        CKA_KEY_KIND: "private", CKA_ID: b"\x09", CKA_PRIVATE: True,
        CKA_SIGN: False, CKA_DECRYPT: False})
    with pytest.raises(tk.KeyUsageViolation):
        token.sign(session, no_sign, b"m")
    with pytest.raises(tk.KeyUsageViolation):
        token.decrypt(session, no_sign, b"\x00" * 128)


def test_sign_verify_with_exported_public_key():
    token = fresh_token(b"sv")
    session = user_session(token)
    pub, priv = token.generate_key_pair(session, 1024, label="pair")
    message = b"challenge"
    signature = token.sign(session, priv, message)
    assert token.verify(session, pub, message, signature)
    # verify outside the token with the exported public key value
    from pkcswb import csr as csr_mod, pkcs1
    from pkcswb.asn1 import der_decode
    spki = token.get_attribute(session, pub, CKA_VALUE)
    public = csr_mod.decode_public_key_info(der_decode(spki))
    assert pkcs1.verify(message, signature, public)


def test_encrypt_decrypt_on_token():
    token = fresh_token(b"ed")
    session = user_session(token)
    pub, priv = token.generate_key_pair(session, 1024)
    ciphertext = token.encrypt(session, pub, b"secret")
    assert token.decrypt(session, priv, ciphertext) == b"secret"
    token.logout(session)
    with pytest.raises(tk.NotLoggedIn):
        token.decrypt(session, priv, ciphertext)


def test_wrap_refused_for_unextractable():
    token = fresh_token(b"wrap")
    session = user_session(token)
    pub, priv = token.generate_key_pair(session, 1024)
    with pytest.raises(tk.KeyUnextractable):
        token.wrap_key(session, pub, priv)


def test_wrap_allowed_for_extractable_sensitive_key(key_512):
    token = fresh_token(b"wrap2")
    session = user_session(token)
    pub, _ = token.generate_key_pair(session, 1024)
    _, small = key_512
    handle = token.create_object(session, CLASS_KEY, {
        CKA_VALUE: keystore.encode_private_key(small), CKA_KEY_TYPE: "rsa",
        CKA_KEY_KIND: "private", CKA_ID: b"\x07", CKA_PRIVATE: True,
        CKA_SENSITIVE: True, CKA_EXTRACTABLE: True})
    wrapped = token.wrap_key(session, pub, handle)
    assert keystore.encode_private_key(small) not in wrapped


def test_no_code_path_discloses_sensitive_key_octets(key_512):
    token = fresh_token(b"sweep")
    session = user_session(token)
    _, small = key_512
    value = keystore.encode_private_key(small)
    handle = token.create_object(session, CLASS_KEY, {
        CKA_VALUE: value, CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "private",
        CKA_ID: b"\x07", CKA_PRIVATE: True, CKA_SENSITIVE: True,
        CKA_EXTRACTABLE: False, CKA_SIGN: True, CKA_DECRYPT: True})
    pub, _priv = token.generate_key_pair(session, 1024)
    outputs: list[bytes] = []
    outputs.append(token.sign(session, handle, b"m"))
    outputs.append(token.digest(session, value))
    outputs.append(token.random(session, 64))
    outputs.append(token.encrypt(session, pub, b"m"))
    for name in (CKA_LABEL, CKA_ID, CKA_KEY_TYPE, CKA_KEY_KIND, CKA_TOKEN,
                 CKA_PRIVATE, CKA_SENSITIVE, CKA_EXTRACTABLE, CKA_SIGN, CKA_LOCAL):
        got = token.get_attribute(session, handle, name)
        if isinstance(got, bytes):
            outputs.append(got)
    with pytest.raises(tk.AttributeSensitive):
        token.get_attribute(session, handle, CKA_VALUE)
    with pytest.raises(tk.KeyUnextractable):
        token.wrap_key(session, pub, handle)
    d_octets = small.d.to_bytes((small.d.bit_length() + 7) // 8, "big")
    for blob in outputs:
        assert value not in blob
        assert d_octets not in blob


# -- directory export ------------------------------------------------------------------


def test_empty_token_manifest():
    token = Token("blank", seeded(b"blank"))
    manifest = export_pkcs15_layout(token)
    assert "EF(TokenInfo): 2" in manifest
    assert "EF(UnusedSpace): 0" in manifest
    assert "EF(ODF): 0" in manifest
    for absent in ("PrKDF", "PuKDF", "CDF", "DODF", "AODF"):
        assert absent not in manifest


def test_manifest_directory_counts():
    token = fresh_token(b"manifest")
    session = user_session(token)
    token.generate_key_pair(session, 512, label="alice")
    token.create_object(session, CLASS_CERTIFICATE, {
        CKA_VALUE: b"c", CKA_SUBJECT: "CN=a", CKA_ID: b"\x01", CKA_LABEL: "cert"})
    manifest = export_pkcs15_layout(token)
    assert "EF(PrKDF): 1" in manifest
    assert "EF(PuKDF): 1" in manifest
    assert "EF(CDF): 1" in manifest
    assert "-> EF(PrKDF)" in manifest and "-> EF(CDF)" in manifest
    assert "EF(AODF): 2" in manifest  # both PINs are set
    assert "DODF" not in manifest


def test_manifest_deterministic():
    token = fresh_token(b"det")
    session = user_session(token)
    token.generate_key_pair(session, 512, label="k")
    assert export_pkcs15_layout(token) == export_pkcs15_layout(token)


def test_manifest_golden():
    token = Token("golden-card", seeded(b"golden"))
    token.initialize("so")
    session = token.open_session(rw=True)
    token.login(session, tk.USER_SO, "so")
    token.init_user_pin(session, "user")
    token.logout(session)
    token.login(session, tk.USER_NORMAL, "user")
    token.create_object(session, CLASS_KEY, {
        CKA_VALUE: b"\x00", CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "private",
        CKA_ID: b"\x01", CKA_LABEL: "golden-key", CKA_PRIVATE: True})
    token.create_object(session, CLASS_CERTIFICATE, {
        CKA_VALUE: b"\x00", CKA_SUBJECT: "CN=g", CKA_ID: b"\x02",
        CKA_LABEL: "golden-cert"})
    assert export_pkcs15_layout(token) == (
        "MF\n"
        "DF(PKCS15)\n"
        "AID: a000000063504b43532d3135 (placeholder, non-normative)\n"
        "EF(TokenInfo): 2\n"
        "  label=golden-card\n"
        "  algorithms=aes-128-cbc,hmac-sha256,rsa-multiprime,rsa-oaep,rsa-pss,sha-256\n"
        "EF(ODF): 3\n"
        "  -> EF(AODF)\n"
        "  -> EF(PrKDF)\n"
        "  -> EF(CDF)\n"
        "EF(AODF): 2\n"
        "  handle=0 id=00 label=so-pin\n"
        "  handle=0 id=01 label=user-pin\n"
        "EF(PrKDF): 1\n"
        "  handle=1 id=01 label=golden-key\n"
        "EF(CDF): 1\n"
        "  handle=2 id=02 label=golden-cert\n"
        "EF(UnusedSpace): 0\n")


def test_manifest_lists_label_and_id():
    token = fresh_token(b"label")
    session = user_session(token)
    token.create_object(session, CLASS_DATA, {
        CKA_VALUE: b"v", CKA_LABEL: "wallet", CKA_ID: b"\xab"})
    manifest = export_pkcs15_layout(token)
    assert "id=ab label=wallet" in manifest


@pytest.mark.parametrize("call,refused,message", [
    (lambda t, s, pub, data: t.get_attribute(s, 10**6, CKA_LABEL), tk.UnknownObject,
     "no object"),
    (lambda t, s, pub, data: t.set_attribute(s, data, CKA_VALUE, b"e"), tk.AttributeReadOnly,
     "fixed at creation"),
    (lambda t, s, pub, data: t.sign(s, pub, b"m"), tk.KeyUsageViolation, "not a private key"),
    (lambda t, s, pub, data: t.wrap_key(s, pub, data), tk.KeyUsageViolation, "only keys"),
    (lambda t, s, pub, data: (t.logout(s), t.generate_key_pair(s, 512)), tk.NotLoggedIn,
     "key generation"),
], ids=["unknown-handle", "set-value", "sign-with-a-public-key", "wrap-a-non-key",
        "generate-without-the-user"])
def test_refused_calls_raise_their_declared_errors(call, refused, message):
    token = fresh_token(b"refused")
    session = user_session(token)
    pub, _priv = token.generate_key_pair(session, 512)
    data = token.create_object(session, CLASS_DATA, {CKA_VALUE: b"d"})
    with pytest.raises(refused, match=message):
        call(token, session, pub, data)
