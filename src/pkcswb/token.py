"""Cryptoki-lite software token: slots out, sessions/users/objects in.

One token, one slot.  The security officer initializes the token and sets
the normal user's PIN; only the normal user can touch private objects.
Objects are always well formed: creation validates the full required
attribute set for the class, so no partially initialized object ever exists.

Sensitive keys never leave the token in plaintext (their value attribute is
unreadable) and unextractable keys cannot leave it at all, wrapped or not.
Once set, neither flag can be observed false again on the object or any copy:
creation, copy and set write attributes through one check, which also
refuses a CKA_ID that is not octets and a label that is not text on one
line, so every object prints as one manifest line.  A copy may change
CKA_TOKEN and CKA_PRIVATE besides what a set may, and only the token sets
CKA_LOCAL, on the pairs it generates.

All operations are serialized behind one lock; the token behaves as a single
logical actor, so callers on any number of threads observe a linear history.
Each call that takes a session takes the lock and checks that the session is
open on this token in one place.  Closing the last session ends the login;
C_Finalize, C_CloseAllSessions and the removal of the device are one operation.

One guard, ``Token._require``, refuses each access by the session's PKCS #11
state (v2.40 §5.4-5.5): R/O or R/W Public, R/O or R/W User Functions, or R/W
SO Functions.  Two sequences PKCS #11 refuses stay accepted, an SO login beside
an R/O session and an R/O session opened under the SO, because the acceptance
matrix opens the second.
"""

from __future__ import annotations

import functools
import threading

from . import cms, keystore, pkcs1
from .asn1 import der_decode, der_encode, text_octets
from .errors import PkcsError
from .primitives import SHA256, RandomSource, ct_equal
from .rsa import generate_key

__all__ = [
    "Token",
    "Session",
    "TokenObject",
    "TokenError",
    "NotInitialized",
    "AlreadyInitialized",
    "NotLoggedInAsSO",
    "SessionClosed",
    "PinIncorrect",
    "AlreadyLoggedIn",
    "UserPinNotInitialized",
    "NotLoggedIn",
    "ReadOnlySession",
    "AttributeSensitive",
    "AttributeReadOnly",
    "KeyUsageViolation",
    "KeyUnextractable",
    "TemplateIncomplete",
    "UnknownObject",
    "AttributeTypeInvalid",
    "AttributeValueInvalid",
    "CLASS_DATA",
    "CLASS_CERTIFICATE",
    "CLASS_KEY",
    "USER_SO",
    "USER_NORMAL",
    "export_pkcs15_layout",
]

CLASS_DATA = "data"
CLASS_CERTIFICATE = "certificate"
CLASS_KEY = "key"

USER_SO = "so"
USER_NORMAL = "user"

# attribute names, CK-style
CKA_ID = "CKA_ID"
CKA_LABEL = "CKA_LABEL"
CKA_VALUE = "CKA_VALUE"
CKA_KEY_TYPE = "CKA_KEY_TYPE"
CKA_KEY_KIND = "CKA_KEY_KIND"          # public | private (key-class objects)
CKA_SUBJECT = "CKA_SUBJECT"
CKA_TOKEN = "CKA_TOKEN"
CKA_PRIVATE = "CKA_PRIVATE"
CKA_SENSITIVE = "CKA_SENSITIVE"
CKA_EXTRACTABLE = "CKA_EXTRACTABLE"
CKA_ENCRYPT = "CKA_ENCRYPT"
CKA_DECRYPT = "CKA_DECRYPT"
CKA_SIGN = "CKA_SIGN"
CKA_VERIFY = "CKA_VERIFY"
CKA_WRAP = "CKA_WRAP"
CKA_LOCAL = "CKA_LOCAL"

_DEFAULTS = {
    CKA_TOKEN: True,
    CKA_PRIVATE: False,
    CKA_SENSITIVE: False,
    CKA_EXTRACTABLE: True,
    CKA_LABEL: "",
    CKA_LOCAL: False,
    CKA_ENCRYPT: False,
    CKA_DECRYPT: False,
    CKA_SIGN: False,
    CKA_VERIFY: False,
    CKA_WRAP: False,
}

_REQUIRED = {
    CLASS_DATA: {CKA_VALUE},
    CLASS_CERTIFICATE: {CKA_VALUE, CKA_SUBJECT, CKA_ID},
    CLASS_KEY: {CKA_VALUE, CKA_KEY_TYPE, CKA_KEY_KIND, CKA_ID},
}

# fixed at creation time; a copy may still change CKA_TOKEN and CKA_PRIVATE
# (PKCS #11 v2.40 §5.7)
_IMMUTABLE = frozenset({CKA_VALUE, CKA_KEY_TYPE, CKA_KEY_KIND, CKA_LOCAL, CKA_TOKEN, CKA_PRIVATE})
_FIXED_ON_COPY = _IMMUTABLE - {CKA_TOKEN, CKA_PRIVATE}
_FIXED_ON_CREATE = frozenset({CKA_LOCAL})


class TokenError(PkcsError):
    exit_code = 1


class NotInitialized(TokenError):
    pass


class AlreadyInitialized(TokenError):
    pass


class NotLoggedInAsSO(TokenError):
    pass


class SessionClosed(TokenError):
    pass


class PinIncorrect(TokenError):
    pass


class AlreadyLoggedIn(TokenError):
    pass


class UserPinNotInitialized(TokenError):
    pass


class NotLoggedIn(TokenError):
    pass


class ReadOnlySession(TokenError):
    pass


class AttributeSensitive(TokenError):
    pass


class AttributeReadOnly(TokenError):
    pass


class KeyUsageViolation(TokenError):
    pass


class KeyUnextractable(TokenError):
    pass


class TemplateIncomplete(TokenError):
    pass


class UnknownObject(TokenError):
    pass


class AttributeTypeInvalid(TokenError):
    """The object has no attribute of the requested type."""


class AttributeValueInvalid(TokenError):
    """CKR_ATTRIBUTE_VALUE_INVALID: a CKA_ID that is not octets, or a label
    that is not text on one line, which the manifest could not print as one."""


def _label(text) -> str:
    """``text`` as a label: str, with no line break of its own."""
    if not isinstance(text, str) or text.splitlines() not in ([], [text]):
        raise AttributeValueInvalid("CKA_LABEL must be text on one line")
    return text


class Session:
    def __init__(self, handle: int, rw: bool):
        self.handle = handle
        self.rw = rw


class TokenObject:
    def __init__(self, handle: int, obj_class: str, attrs: dict,
                 owning_session: int | None = None):  # set for session objects only
        self.handle = handle
        self.obj_class = obj_class
        self.attrs = attrs
        self.owning_session = owning_session


def _written(attrs: dict, changes: dict, fixed: frozenset) -> dict:
    """``attrs`` with ``changes`` applied: the one check of every attribute write.
    A name in ``fixed`` is refused, and so is a one-way flag moved off its value."""
    for name, value in changes.items():
        if name in fixed:
            raise AttributeReadOnly(f"{name} is fixed at creation")
        if name == CKA_SENSITIVE and attrs[CKA_SENSITIVE] and value is not True:
            raise AttributeReadOnly("CKA_SENSITIVE is one-way")
        if name == CKA_EXTRACTABLE and not attrs[CKA_EXTRACTABLE] and value is not False:
            raise AttributeReadOnly("CKA_EXTRACTABLE is one-way")
        if name == CKA_ID and not isinstance(value, (bytes, bytearray, memoryview)):
            raise AttributeValueInvalid("CKA_ID must be octets")
        if name == CKA_LABEL:
            _label(value)
    return {**attrs, **changes}


def _serialized(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return wrapper


def _in_session(method):
    """Serialize the method and refuse a session not open on this token."""
    @functools.wraps(method)
    def wrapper(self, session: Session, *args, **kwargs):
        with self._lock:
            if self._sessions.get(session.handle) is not session:
                raise SessionClosed("session is not open on this token")
            return method(self, session, *args, **kwargs)
    return wrapper


class Token:
    """In-memory cryptographic token with PKCS#11-style access semantics."""

    SUPPORTED_ALGORITHMS = (
        "aes-128-cbc", "hmac-sha256", "rsa-multiprime", "rsa-oaep", "rsa-pss", "sha-256",
    )

    def __init__(self, label: str, rng: RandomSource):
        self.label = _label(label)
        self._rng = rng
        self._lock = threading.RLock()
        self._so_pin: tuple[bytes, bytes] | None = None     # (salt, hash)
        self._user_pin: tuple[bytes, bytes] | None = None
        self.login_state: str | None = None                  # None | "so" | "user"
        self._objects: dict[int, TokenObject] = {}
        self._sessions: dict[int, Session] = {}
        self._next_object = 1
        self._next_session = 1

    # -- credentials ----------------------------------------------------

    @staticmethod
    def _pin_digest(salt: bytes, pin: bytes) -> bytes:
        return SHA256.digest(salt + pin)

    def _pin_record(self, pin: str) -> tuple[bytes, bytes]:
        octets = text_octets(pin)  # a PIN UTF-8 cannot hold is refused before a salt is drawn
        salt = self._rng.read(8)
        return salt, self._pin_digest(salt, octets)

    # -- lifecycle -------------------------------------------------------

    @_serialized
    def initialize(self, so_pin: str) -> None:
        """Set the SO credential and wipe the object store."""
        if self._so_pin is not None:
            raise AlreadyInitialized("token is already initialized")
        self._so_pin = self._pin_record(so_pin)
        self._user_pin = None
        self._objects.clear()

    @_in_session
    def init_user_pin(self, session: Session, user_pin: str) -> None:
        self._require(session, "setting the user PIN", so=True)
        self._user_pin = self._pin_record(user_pin)

    # -- sessions --------------------------------------------------------

    @_serialized
    def open_session(self, rw: bool) -> Session:
        if self._so_pin is None:
            raise NotInitialized("initialize the token first")
        session = Session(self._next_session, rw)
        self._next_session += 1
        self._sessions[session.handle] = session
        return session

    @_in_session
    def close_session(self, session: Session) -> None:
        self._close((session.handle,))

    @_serialized
    def close_all(self) -> None:
        """C_CloseAllSessions; C_Finalize and device removal are the same operation."""
        self._close(tuple(self._sessions))

    finalize = close_all
    device_removed = close_all

    def _close(self, handles: tuple[int, ...]) -> None:
        """Drop the sessions and their objects; the last one closed ends the login."""
        for handle in handles:
            del self._sessions[handle]
        self._objects = {h: obj for h, obj in self._objects.items()
                         if obj.owning_session not in handles}
        if not self._sessions:
            self.login_state = None

    @property
    def open_session_count(self) -> int:
        return len(self._sessions)

    # -- users -----------------------------------------------------------

    @_in_session
    def login(self, session: Session, user_type: str, pin: str) -> None:
        if user_type not in (USER_SO, USER_NORMAL):
            raise ValueError(f"unknown user type {user_type!r}")
        if self.login_state is not None:
            raise AlreadyLoggedIn(f"{self.login_state} is already logged in")
        record = self._so_pin if user_type == USER_SO else self._user_pin
        if record is None:
            raise UserPinNotInitialized("the SO has not set this PIN")
        salt, digest = record
        if not ct_equal(self._pin_digest(salt, text_octets(pin)), digest):
            raise PinIncorrect("PIN does not match")
        self.login_state = user_type

    @_in_session
    def logout(self, session: Session) -> None:
        if self.login_state is None:
            raise NotLoggedIn("no user is logged in")
        self.login_state = None

    # -- object management ------------------------------------------------

    def _require(self, session: Session, what: str, private=False, write=False, so=False):
        """Refuse what the session's state ``(session.rw, login_state)`` does not allow, in
        turn: a private object, a token-object write, then C_InitPIN outside R/W SO."""
        if private and self.login_state != USER_NORMAL:
            raise NotLoggedIn(f"{what} needs the normal user")
        if write and not session.rw:
            raise ReadOnlySession(f"{what} needs a R/W session")
        if so and (self.login_state != USER_SO or not session.rw):
            raise NotLoggedInAsSO(f"{what} needs the SO on a R/W session")

    def _lookup(self, session: Session, handle: int, write: bool = False) -> TokenObject:
        obj = self._objects.get(handle)
        if obj is None:
            raise UnknownObject(f"no object with handle {handle}")
        self._require(session, f"object {handle}", obj.attrs[CKA_PRIVATE],
                      write and obj.attrs[CKA_TOKEN])
        return obj

    def _store(self, session: Session, obj_class: str, attrs: dict) -> int:
        self._require(session, "creating an object", attrs[CKA_PRIVATE], attrs[CKA_TOKEN])
        missing = _REQUIRED[obj_class] - set(attrs)
        if missing:
            raise TemplateIncomplete(f"missing required attributes: {sorted(missing)}")
        obj = TokenObject(self._next_object, obj_class, attrs,
                          None if attrs[CKA_TOKEN] else session.handle)
        self._next_object += 1
        self._objects[obj.handle] = obj
        return obj.handle

    @_in_session
    def create_object(self, session: Session, obj_class: str, template: dict) -> int:
        if obj_class not in _REQUIRED:
            raise ValueError(f"unknown object class {obj_class!r}")
        return self._store(session, obj_class, _written(_DEFAULTS, template, _FIXED_ON_CREATE))

    @_in_session
    def destroy_object(self, session: Session, handle: int) -> None:
        self._lookup(session, handle, write=True)
        del self._objects[handle]

    @_in_session
    def copy_object(self, session: Session, handle: int, overrides: dict | None = None) -> int:
        source = self._lookup(session, handle)
        return self._store(session, source.obj_class,
                           _written(source.attrs, overrides or {}, _FIXED_ON_COPY))

    @_in_session
    def get_attribute(self, session: Session, handle: int, name: str):
        obj = self._lookup(session, handle)
        if name == CKA_VALUE and obj.obj_class == CLASS_KEY and (
                obj.attrs[CKA_SENSITIVE] or not obj.attrs[CKA_EXTRACTABLE]):
            raise AttributeSensitive("sensitive keys cannot be read in plaintext")
        if name not in obj.attrs:
            raise AttributeTypeInvalid(f"object {handle} has no {name}")
        return obj.attrs[name]

    @_in_session
    def set_attribute(self, session: Session, handle: int, name: str, value) -> None:
        obj = self._lookup(session, handle, write=True)
        obj.attrs = _written(obj.attrs, {name: value}, _IMMUTABLE)

    @_serialized
    def object_handles(self) -> tuple[int, ...]:
        """Handles of the objects visible at the current login state."""
        return tuple(sorted(h for h, obj in self._objects.items()
                            if not obj.attrs[CKA_PRIVATE] or self.login_state == USER_NORMAL))

    # -- cryptographic operations -----------------------------------------

    def _usable_key(self, session: Session, handle: int, usage: str, kind: str) -> TokenObject:
        obj = self._lookup(session, handle)
        if obj.obj_class != CLASS_KEY or obj.attrs.get(CKA_KEY_KIND) != kind:
            raise KeyUsageViolation(f"object {handle} is not a {kind} key")
        if not obj.attrs.get(usage, False):
            raise KeyUsageViolation(f"key {handle} does not allow {usage}")
        return obj

    def _private_key(self, obj: TokenObject):
        return keystore.decode_private_key(obj.attrs[CKA_VALUE])

    @staticmethod
    def _public_key(obj: TokenObject):
        return pkcs1.decode_public_key_info(der_decode(obj.attrs[CKA_VALUE]))

    @_in_session
    def generate_key_pair(self, session: Session, bits: int, label: str = "") -> tuple[int, int]:
        """Generate a 2-prime RSA pair, e = 65537, on the token; the private half stays on it."""
        _label(label)
        self._require(session, "key generation", private=True, write=True)
        public, private = generate_key(bits, 2, 65537, self._rng)
        key_id = self._rng.read(4)
        pub_der = der_encode(pkcs1.encode_public_key_info(public))
        pub_handle = self._store(session, CLASS_KEY, {
            **_DEFAULTS, CKA_VALUE: pub_der, CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "public",
            CKA_ID: key_id, CKA_LABEL: label, CKA_LOCAL: True,
            CKA_VERIFY: True, CKA_ENCRYPT: True, CKA_WRAP: True,
        })
        priv_handle = self._store(session, CLASS_KEY, {
            **_DEFAULTS, CKA_VALUE: keystore.encode_private_key(private),
            CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "private",
            CKA_ID: key_id, CKA_LABEL: label, CKA_LOCAL: True,
            CKA_PRIVATE: True, CKA_SENSITIVE: True, CKA_EXTRACTABLE: False,
            CKA_SIGN: True, CKA_DECRYPT: True,
        })
        return pub_handle, priv_handle

    @_in_session
    def sign(self, session: Session, handle: int, message: bytes) -> bytes:
        obj = self._usable_key(session, handle, CKA_SIGN, "private")
        return pkcs1.sign(message, self._private_key(obj), self._rng)

    @_in_session
    def verify(self, session: Session, handle: int, message: bytes,
               signature: bytes) -> bool:
        obj = self._usable_key(session, handle, CKA_VERIFY, "public")
        return pkcs1.verify(message, signature, self._public_key(obj))

    @_in_session
    def encrypt(self, session: Session, handle: int, message: bytes) -> bytes:
        obj = self._usable_key(session, handle, CKA_ENCRYPT, "public")
        return pkcs1.encrypt(message, self._public_key(obj), pkcs1.SCHEME_OAEP, self._rng)

    @_in_session
    def decrypt(self, session: Session, handle: int, ciphertext: bytes) -> bytes:
        obj = self._usable_key(session, handle, CKA_DECRYPT, "private")
        return pkcs1.decrypt(ciphertext, self._private_key(obj), pkcs1.SCHEME_OAEP)

    @_in_session
    def wrap_key(self, session: Session, wrapping_handle: int, handle: int) -> bytes:
        """Export a key encrypted to a wrapping key; refused for unextractable keys."""
        wrapping = self._usable_key(session, wrapping_handle, CKA_WRAP, "public")
        target = self._lookup(session, handle)
        if target.obj_class != CLASS_KEY:
            raise KeyUsageViolation("only keys can be wrapped")
        if not target.attrs[CKA_EXTRACTABLE]:
            raise KeyUnextractable("key is unextractable, even in encrypted form")
        wrapped = cms.envelope(cms.make_data(target.attrs[CKA_VALUE]),
                               self._public_key(wrapping), self._rng)
        return wrapped.to_der()

    @_in_session
    def digest(self, session: Session, message: bytes) -> bytes:
        return SHA256.digest(message)

    @_in_session
    def random(self, session: Session, n: int) -> bytes:
        return self._rng.read(n)


# ---------------------------------------------------------------------------
# application-directory export


_AID_PLACEHOLDER = bytes.fromhex("a000000063504b43532d3135")  # fixed, non-normative

_DIRECTORY_ORDER = ("AODF", "PrKDF", "PuKDF", "CDF", "DODF")


def _object_line(obj: TokenObject) -> str:
    key_id = obj.attrs.get(CKA_ID, b"")
    return f"  handle={obj.handle} id={key_id.hex()} label={obj.attrs[CKA_LABEL]}"


def export_pkcs15_layout(token: Token) -> str:
    """Application-directory manifest: MF / DF(PKCS15) / EF(...) listing.

    Only non-empty directory files appear, and the ODF points at exactly
    those.  TokenInfo and UnusedSpace are always present.  The output is
    deterministic for identical token state.
    """
    files: dict[str, list[str]] = {name: [] for name in _DIRECTORY_ORDER}
    with token._lock:  # one snapshot of the token, like any other operation
        if token._so_pin is not None:
            files["AODF"].append("  handle=0 id=00 label=so-pin")
        if token._user_pin is not None:
            files["AODF"].append("  handle=0 id=01 label=user-pin")
        for handle in sorted(token._objects):
            obj = token._objects[handle]
            if obj.obj_class == CLASS_KEY:
                target = "PrKDF" if obj.attrs.get(CKA_KEY_KIND) == "private" else "PuKDF"
            elif obj.obj_class == CLASS_CERTIFICATE:
                target = "CDF"
            else:
                target = "DODF"
            files[target].append(_object_line(obj))
    lines = [
        "MF",
        "DF(PKCS15)",
        f"AID: {_AID_PLACEHOLDER.hex()} (placeholder, non-normative)",
        "EF(TokenInfo): 2",
        f"  label={token.label}",
        f"  algorithms={','.join(Token.SUPPORTED_ALGORITHMS)}",
    ]
    populated = [name for name in _DIRECTORY_ORDER if files[name]]
    lines.append(f"EF(ODF): {len(populated)}")
    lines += [f"  -> EF({name})" for name in populated]
    for name in populated:
        lines.append(f"EF({name}): {len(files[name])}")
        lines += files[name]
    lines.append("EF(UnusedSpace): 0")
    return "\n".join(lines) + "\n"
