import inspect
import itertools

import pytest

from pkcswb import keystore, token as tk
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


def user_session(token: Token):
    session = token.open_session(rw=True)
    token.login(session, tk.USER_SO, "so-pin")
    token.init_user_pin(session, "user-pin")
    token.logout(session)
    token.login(session, tk.USER_NORMAL, "user-pin")
    return session


# -- lifecycle ------------------------------------------------------------------


def test_double_initialize():
    token = fresh_token()
    with pytest.raises(tk.AlreadyInitialized):
        token.initialize("again")


def test_init_user_pin_requires_so():
    rng = seeded(b"init-pin")
    token = Token("unit-token", rng)
    token.initialize("so-pin")
    session = token.open_session(rw=True)
    with pytest.raises(tk.NotLoggedInAsSO):
        token.init_user_pin(session, "user-pin")
    # C_InitPIN runs only in the R/W SO Functions state, so an R/O session under the SO is refused
    token.login(session, tk.USER_SO, "so-pin")
    read_only = token.open_session(rw=False)
    with pytest.raises(tk.NotLoggedInAsSO):
        token.init_user_pin(read_only, "user-pin")
    token.logout(session)
    with pytest.raises(tk.UserPinNotInitialized):
        token.login(read_only, tk.USER_NORMAL, "user-pin")
    # the refusals drew no salt: only the SO PIN's 8 octets are gone
    expected = seeded(b"init-pin")
    expected.read(8)
    assert rng.read(16) == expected.read(16)
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


# -- call sequences against PKCS #11's session and login rules -------------------------
#
# A model of PKCS #11 v2.40's sessions and users (§5.4-5.5), written from the
# standard: a session is R/O or R/W, the token's login is public, the SO or the
# normal user, and a session's state is the pair.  Object access follows
# expected_outcome.  A call on a session that is not open fails before any other
# rule; closing the last session, or all of them, ends the login.

_CALLS = ("open R/O", "open R/W", "close", "close all", "login SO", "login user",
          "logout", "init PIN", "create public", "create private", "read private")

# PKCS #11 refuses these; pkcswb accepts both while criterion 7 opens an R/O session under the SO
_ACCEPTED_REFUSALS = {
    "CKR_SESSION_READ_ONLY_EXISTS",      # C_Login as SO while an R/O session is open
    "CKR_SESSION_READ_WRITE_SO_EXISTS",  # C_OpenSession R/O while the SO is logged in
}


class _SessionModel:
    """The expected outcome of each call, and the login and session count after it."""

    def __init__(self):
        self.opened = []      # the rw flag of each session, in the order opened
        self.open = set()     # indexes into opened
        self.last = None      # the session calls use; None is the closed set-up session
        self.login = None

    def step(self, call: str):
        if call in ("open R/O", "open R/W"):
            rw, code = call == "open R/W", "CKR_SESSION_READ_WRITE_SO_EXISTS"
            if not rw and self.login == tk.USER_SO and code not in _ACCEPTED_REFUSALS:
                return code
            self.last = len(self.opened)
            self.opened.append(rw)
            self.open.add(self.last)
            return "session"
        if call == "close all":
            self.open.clear()
            self.login = None
            return None
        if self.last not in self.open:
            return tk.SessionClosed                    # CKR_SESSION_HANDLE_INVALID
        rw = self.opened[self.last]
        if call == "close":
            self.open.remove(self.last)
            if not self.open:
                self.login = None
            return None
        if call in ("login SO", "login user"):
            if self.login is not None:
                return tk.AlreadyLoggedIn              # CKR_USER_ALREADY_LOGGED_IN
            so, code = call == "login SO", "CKR_SESSION_READ_ONLY_EXISTS"
            read_only = not all(self.opened[h] for h in self.open)
            if so and read_only and code not in _ACCEPTED_REFUSALS:
                return code
            self.login = tk.USER_SO if so else tk.USER_NORMAL
            return None
        if call == "logout":
            if self.login is None:
                return tk.NotLoggedIn                  # CKR_USER_NOT_LOGGED_IN
            self.login = None
            return None
        if call == "init PIN":                         # only in R/W SO Functions
            return None if (self.login, rw) == (tk.USER_SO, True) else tk.NotLoggedInAsSO
        if call == "read private":
            return expected_outcome("read", True, self.login, rw) or b"private"
        return expected_outcome("create", call == "create private", self.login, rw) or "handle"


_ACTIONS = {
    "open R/O": lambda token, session, handle: token.open_session(rw=False),
    "open R/W": lambda token, session, handle: token.open_session(rw=True),
    "close": lambda token, session, handle: token.close_session(session),
    "close all": lambda token, session, handle: token.close_all(),
    "login SO": lambda token, session, handle: token.login(session, tk.USER_SO, "so-pin"),
    "login user": lambda token, session, handle: token.login(
        session, tk.USER_NORMAL, "user-pin"),
    "logout": lambda token, session, handle: token.logout(session),
    "init PIN": lambda token, session, handle: token.init_user_pin(session, "user-pin"),
    "create public": lambda token, session, handle: token.create_object(
        session, CLASS_DATA, {CKA_VALUE: b"public"}),
    "create private": lambda token, session, handle: token.create_object(
        session, CLASS_DATA, {CKA_VALUE: b"mine", CKA_PRIVATE: True}),
    "read private": lambda token, session, handle: token.get_attribute(
        session, handle, CKA_VALUE),
}

# every outcome the rules allow each call, each of which some sequence reaches
_REACHABLE = {
    "open R/O": {"session"},
    "open R/W": {"session"},
    "close": {None, tk.SessionClosed},
    "close all": {None},
    "login SO": {None, tk.AlreadyLoggedIn, tk.SessionClosed},
    "login user": {None, tk.AlreadyLoggedIn, tk.SessionClosed},
    "logout": {None, tk.NotLoggedIn, tk.SessionClosed},
    "init PIN": {None, tk.NotLoggedInAsSO, tk.SessionClosed},
    "create public": {"handle", tk.ReadOnlySession, tk.SessionClosed},
    "create private": {"handle", tk.NotLoggedIn, tk.ReadOnlySession, tk.SessionClosed},
    "read private": {b"private", tk.NotLoggedIn, tk.SessionClosed},
}


def _sequence_start():
    """An initialized token with the user PIN set, one private token object and
    no session open; the closed set-up session is returned too."""
    token = fresh_token(b"sequences")
    setup = user_session(token)
    handle = token.create_object(setup, CLASS_DATA, {CKA_VALUE: b"private", CKA_PRIVATE: True})
    token.close_session(setup)
    return token, setup, handle


def _outcome(token, session, handle, call):
    """(what the call gave, the session later calls use)"""
    try:
        result = _ACTIONS[call](token, session, handle)
    except tk.TokenError as exc:
        return type(exc), session
    if isinstance(result, tk.Session):
        return "session", result
    return ("handle" if isinstance(result, int) else result), session


def test_every_sequence_of_up_to_four_calls_follows_the_session_rules():
    sequences, reached = 0, {call: set() for call in _CALLS}
    for length in range(1, 5):
        for sequence in itertools.product(_CALLS, repeat=length):
            sequences += 1
            token, session, handle = _sequence_start()
            model = _SessionModel()
            for step, call in enumerate(sequence, 1):
                outcome, session = _outcome(token, session, handle, call)
                reached[call].add(outcome)
                expected = model.step(call)
                assert (outcome, token.login_state, token.open_session_count) == (
                    expected, model.login, len(model.open)), sequence[:step]
    assert sequences == 11 + 11**2 + 11**3 + 11**4 == 16_104
    assert reached == _REACHABLE


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


# -- attribute writes: one rule for create, copy and set ----------------------------

_WRITE_VALUES = (True, False, 0, 1, None, "")
_ATTRIBUTES = (CKA_ID, CKA_LABEL, CKA_VALUE, CKA_KEY_TYPE, CKA_KEY_KIND, CKA_SUBJECT,
               CKA_TOKEN, CKA_PRIVATE, CKA_SENSITIVE, CKA_EXTRACTABLE, CKA_LOCAL,
               tk.CKA_ENCRYPT, CKA_DECRYPT, CKA_SIGN, tk.CKA_VERIFY, tk.CKA_WRAP)
# the attributes each writer refuses; a copy may change storage and privacy
# (PKCS #11 v2.40 §5.7), and only the token sets CKA_LOCAL
_FIXED = {
    "create": {CKA_LOCAL},
    "copy": {CKA_VALUE, CKA_KEY_TYPE, CKA_KEY_KIND, CKA_LOCAL},
    "set": {CKA_VALUE, CKA_KEY_TYPE, CKA_KEY_KIND, CKA_LOCAL, CKA_TOKEN, CKA_PRIVATE},
}
# (CKA_SENSITIVE, CKA_EXTRACTABLE) of the object written; creation starts open
_STARTS = {"open": (False, True), "closed": (True, False), "closed-by-int": (1, 0)}
# (writer, start) -> how many of its 16 x 6 writes are refused: with the 11
# values that are not octets for CKA_ID (6) or not text for CKA_LABEL (5)
_REFUSED_WRITES = {
    ("create", "open"): 17,
    ("copy", "open"): 35, ("copy", "closed"): 45, ("copy", "closed-by-int"): 45,
    ("set", "open"): 47, ("set", "closed"): 57, ("set", "closed-by-int"): 57,
}
_KEY_TEMPLATE = {CKA_VALUE: b"v", CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "public",
                 CKA_ID: b"\x01"}


def _write_refusal(writer, start, name, value):
    """The (class, message) a write must be refused with, or None where it must land."""
    sensitive, extractable = _STARTS[start]
    if name in _FIXED[writer]:
        return tk.AttributeReadOnly, f"{name} is fixed at creation"
    if name == CKA_SENSITIVE and sensitive and value is not True:
        return tk.AttributeReadOnly, "CKA_SENSITIVE is one-way"
    if name == CKA_EXTRACTABLE and not extractable and value is not False:
        return tk.AttributeReadOnly, "CKA_EXTRACTABLE is one-way"
    if name == CKA_ID:  # none of the written values is octets
        return tk.AttributeValueInvalid, "CKA_ID must be octets"
    if name == CKA_LABEL and value != "":
        return tk.AttributeValueInvalid, "CKA_LABEL must be text on one line"
    return None


def _write(token, session, writer, start, name, value) -> int:
    """The handle of the object ``writer`` wrote ``name = value`` into."""
    if writer == "create":
        return token.create_object(session, CLASS_KEY, {**_KEY_TEMPLATE, name: value})
    sensitive, extractable = _STARTS[start]
    source = token.create_object(session, CLASS_KEY, {
        **_KEY_TEMPLATE, CKA_SENSITIVE: sensitive, CKA_EXTRACTABLE: extractable})
    if writer == "copy":
        return token.copy_object(session, source, {name: value})
    token.set_attribute(session, source, name, value)
    return source


@pytest.mark.parametrize("writer,start", list(_REFUSED_WRITES),
                         ids=[f"{writer}-{start}" for writer, start in _REFUSED_WRITES])
def test_create_copy_and_set_keep_one_write_rule(writer, start):
    token = fresh_token(b"writes")
    session = user_session(token)
    refused = 0
    for name in _ATTRIBUTES:
        for value in _WRITE_VALUES:
            case = (writer, start, name, value)
            expected = _write_refusal(*case)
            try:
                handle = _write(token, session, *case)
            except (tk.AttributeReadOnly, tk.AttributeValueInvalid) as exc:
                assert (type(exc), str(exc)) == expected, case
                refused += 1
            else:
                assert expected is None, case
                assert token.get_attribute(session, handle, name) is value, case
    assert refused == _REFUSED_WRITES[(writer, start)]


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
    from pkcswb import pkcs1
    from pkcswb.asn1 import der_decode
    spki = token.get_attribute(session, pub, CKA_VALUE)
    public = pkcs1.decode_public_key_info(der_decode(spki))
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
    # a copy is refused, or keeps both protections whatever the flags' values
    landed = 0
    for overrides in ({CKA_SENSITIVE: 0}, {CKA_SENSITIVE: None}, {CKA_SENSITIVE: ""},
                      {CKA_EXTRACTABLE: 1}, {CKA_EXTRACTABLE: 1, CKA_SENSITIVE: 0},
                      {CKA_TOKEN: False, CKA_PRIVATE: False},
                      {CKA_SENSITIVE: True, CKA_EXTRACTABLE: False}):
        try:
            copy = token.copy_object(session, handle, overrides)
        except tk.AttributeReadOnly:
            continue
        landed += 1
        with pytest.raises(tk.AttributeSensitive):
            token.get_attribute(session, copy, CKA_VALUE)
        with pytest.raises(tk.KeyUnextractable):
            token.wrap_key(session, pub, copy)
    assert landed == 2
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


def test_manifest_reads_the_token_state_under_its_lock():
    # another thread may create or destroy objects meanwhile: the export
    # must take the token's lock before it reads the PINs or the objects
    token = fresh_token(b"export-lock")
    session = user_session(token)
    token.create_object(session, CLASS_DATA, {CKA_VALUE: b"v"})
    held, reads = [], []

    class RecordingLock:
        def __enter__(self):
            held.append(True)

        def __exit__(self, *exc_info):
            held.pop()

    class RecordingObjects(dict):
        def __iter__(self):
            reads.append(bool(held))
            return super().__iter__()

        def __getitem__(self, handle):
            reads.append(bool(held))
            return super().__getitem__(handle)

    token._lock = RecordingLock()
    token._objects = RecordingObjects(token._objects)
    assert "EF(DODF): 1" in export_pkcs15_layout(token)
    assert reads and all(reads)


def test_manifest_lists_label_and_id():
    token = fresh_token(b"label")
    session = user_session(token)
    token.create_object(session, CLASS_DATA, {
        CKA_VALUE: b"v", CKA_LABEL: "wallet", CKA_ID: b"\xab"})
    manifest = export_pkcs15_layout(token)
    assert "id=ab label=wallet" in manifest


# writes of an ID that is not octets, or of a label that is not text on one
# line: the manifest would print 3 as id=000000, fail on "ab", or list a line
# that the label forged
_INVALID_VALUES = {
    "create id 3": lambda t, s, data: t.create_object(
        s, CLASS_DATA, {CKA_VALUE: b"v", CKA_ID: 3}),
    "create id text": lambda t, s, data: t.create_object(
        s, CLASS_DATA, {CKA_VALUE: b"v", CKA_ID: "ab"}),
    "create forged line": lambda t, s, data: t.create_object(
        s, CLASS_DATA, {CKA_VALUE: b"v", CKA_LABEL: "x\nEF(PrKDF): 1"}),
    "copy carriage return": lambda t, s, data: t.copy_object(s, data, {CKA_LABEL: "x\r"}),
    "set octets label": lambda t, s, data: t.set_attribute(s, data, CKA_LABEL, b"x"),
    "set id None": lambda t, s, data: t.set_attribute(s, data, CKA_ID, None),
    "key pair line separator": lambda t, s, data: t.generate_key_pair(s, 512, label="a\u2028b"),
    "token forged line": lambda t, s, data: Token("card\nEF(PrKDF): 1", seeded(b"label")),
    "token label 7": lambda t, s, data: Token(7, seeded(b"label")),
}


@pytest.mark.parametrize("write", _INVALID_VALUES)
def test_ids_and_labels_are_checked_where_they_are_written(write):
    token = fresh_token(b"values")
    session = user_session(token)
    data = token.create_object(session, CLASS_DATA, {
        CKA_VALUE: b"v", CKA_LABEL: "kept", CKA_ID: bytearray(b"\xab\xcd")})
    token.create_object(session, CLASS_DATA, {CKA_VALUE: b"w", CKA_ID: memoryview(b"\x01")})
    before = export_pkcs15_layout(token)
    assert "id=abcd label=kept\n" in before and "id=01 label=\n" in before
    with pytest.raises(tk.AttributeValueInvalid):
        _INVALID_VALUES[write](token, session, data)
    assert export_pkcs15_layout(token) == before


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
