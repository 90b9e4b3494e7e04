"""Cryptoki-lite software token: slots out, sessions/users/objects in.

One token, one slot.  The security officer initializes the token and sets
the normal user's PIN; only the normal user can touch private objects.
Objects are always well formed: creation validates the full required
attribute set for the class, so no partially initialized object ever exists.

Sensitive keys never leave the token in plaintext (their value attribute is
unreadable) and unextractable keys cannot leave it at all, wrapped or not.
Once set, neither flag can be observed false again on the object or any copy.

All operations are serialized behind one lock; the token behaves as a single
logical actor, so callers on any number of threads observe a linear history.
Each call that takes a session takes the lock and checks that the session is
open on this token in one place.  Closing the last session ends the login;
C_Finalize, C_CloseAllSessions and the removal of the device are one operation.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

from . import cms, csr as csr_mod, keystore, pkcs1
from .asn1 import der_decode, der_encode, text_octets
from .errors import PkcsError
from .primitives import SHA256, RandomSource, SystemRandomSource, ct_equal
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

# fixed at creation time
_IMMUTABLE = {CKA_VALUE, CKA_KEY_TYPE, CKA_KEY_KIND, CKA_LOCAL, CKA_TOKEN, CKA_PRIVATE}


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


@dataclass
class Session:
    handle: int
    rw: bool


@dataclass
class TokenObject:
    handle: int
    obj_class: str
    attrs: dict
    owning_session: int | None = None   # set for session objects only


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

    def __init__(self, label: str, rng: RandomSource | None = None):
        self.label = label
        self._rng = rng if rng is not None else SystemRandomSource()
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
        if self.login_state != USER_SO:
            raise NotLoggedInAsSO("setting the user PIN requires the SO")
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

    def _visible(self, attrs: dict) -> bool:
        """Private objects exist only for the logged-in normal user."""
        return not attrs[CKA_PRIVATE] or self.login_state == USER_NORMAL

    def _lookup(self, handle: int) -> TokenObject:
        obj = self._objects.get(handle)
        if obj is None:
            raise UnknownObject(f"no object with handle {handle}")
        if not self._visible(obj.attrs):
            raise NotLoggedIn("private objects need the normal user")
        return obj

    def _require_writable(self, session: Session, token_resident: bool) -> None:
        if token_resident and not session.rw:
            raise ReadOnlySession("token objects cannot be modified in a R/O session")

    def _store(self, session: Session, obj_class: str, attrs: dict) -> int:
        """Add an object: privacy, then session writability, then a complete template."""
        if not self._visible(attrs):
            raise NotLoggedIn("creating a private object needs the normal user")
        self._require_writable(session, attrs[CKA_TOKEN])
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
        return self._store(session, obj_class, {**_DEFAULTS, **template})

    @_in_session
    def destroy_object(self, session: Session, handle: int) -> None:
        obj = self._lookup(handle)
        self._require_writable(session, obj.attrs[CKA_TOKEN])
        del self._objects[handle]

    @_in_session
    def copy_object(self, session: Session, handle: int, overrides: dict | None = None) -> int:
        source = self._lookup(handle)
        overrides = overrides or {}
        if source.attrs[CKA_SENSITIVE] and overrides.get(CKA_SENSITIVE) is False:
            raise AttributeReadOnly("CKA_SENSITIVE cannot be cleared on a copy")
        if not source.attrs[CKA_EXTRACTABLE] and overrides.get(CKA_EXTRACTABLE) is True:
            raise AttributeReadOnly("CKA_EXTRACTABLE cannot be set on a copy")
        return self._store(session, source.obj_class, {**source.attrs, **overrides})

    @_in_session
    def get_attribute(self, session: Session, handle: int, name: str):
        obj = self._lookup(handle)
        if name == CKA_VALUE and obj.obj_class == CLASS_KEY and (
                obj.attrs[CKA_SENSITIVE] or not obj.attrs[CKA_EXTRACTABLE]):
            raise AttributeSensitive("sensitive keys cannot be read in plaintext")
        if name not in obj.attrs:
            raise AttributeTypeInvalid(f"object {handle} has no {name}")
        return obj.attrs[name]

    @_in_session
    def set_attribute(self, session: Session, handle: int, name: str, value) -> None:
        obj = self._lookup(handle)
        self._require_writable(session, obj.attrs[CKA_TOKEN])
        if name in _IMMUTABLE:
            raise AttributeReadOnly(f"{name} is fixed at creation")
        if name == CKA_SENSITIVE and obj.attrs[CKA_SENSITIVE] and value is not True:
            raise AttributeReadOnly("CKA_SENSITIVE is one-way")
        if name == CKA_EXTRACTABLE and not obj.attrs[CKA_EXTRACTABLE] and value is not False:
            raise AttributeReadOnly("CKA_EXTRACTABLE is one-way")
        obj.attrs[name] = value

    @_serialized
    def object_handles(self) -> tuple[int, ...]:
        """Handles of the objects visible at the current login state."""
        return tuple(sorted(h for h, obj in self._objects.items() if self._visible(obj.attrs)))

    # -- cryptographic operations -----------------------------------------

    def _usable_key(self, handle: int, usage: str, kind: str) -> TokenObject:
        obj = self._lookup(handle)
        if obj.obj_class != CLASS_KEY or obj.attrs.get(CKA_KEY_KIND) != kind:
            raise KeyUsageViolation(f"object {handle} is not a {kind} key")
        if not obj.attrs.get(usage, False):
            raise KeyUsageViolation(f"key {handle} does not allow {usage}")
        return obj

    def _private_key(self, obj: TokenObject):
        return keystore.decode_private_key(obj.attrs[CKA_VALUE])

    @staticmethod
    def _public_key(obj: TokenObject):
        return csr_mod.decode_public_key_info(der_decode(obj.attrs[CKA_VALUE]))

    @_in_session
    def generate_key_pair(self, session: Session, bits: int, u: int = 2,
                          e: int = 65537, label: str = "") -> tuple[int, int]:
        """Generate an RSA pair on the token; the private half never leaves it."""
        if self.login_state != USER_NORMAL:
            raise NotLoggedIn("key generation stores a private object")
        self._require_writable(session, True)
        public, private = generate_key(bits, u, e, self._rng)
        key_id = self._rng.read(4)
        pub_der = der_encode(csr_mod.encode_public_key_info(public))
        pub_handle = self.create_object(session, CLASS_KEY, {
            CKA_VALUE: pub_der, CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "public",
            CKA_ID: key_id, CKA_LABEL: label, CKA_LOCAL: True,
            CKA_VERIFY: True, CKA_ENCRYPT: True, CKA_WRAP: True,
        })
        priv_handle = self.create_object(session, CLASS_KEY, {
            CKA_VALUE: keystore.encode_private_key(private),
            CKA_KEY_TYPE: "rsa", CKA_KEY_KIND: "private",
            CKA_ID: key_id, CKA_LABEL: label, CKA_LOCAL: True,
            CKA_PRIVATE: True, CKA_SENSITIVE: True, CKA_EXTRACTABLE: False,
            CKA_SIGN: True, CKA_DECRYPT: True,
        })
        return pub_handle, priv_handle

    @_in_session
    def sign(self, session: Session, handle: int, message: bytes) -> bytes:
        obj = self._usable_key(handle, CKA_SIGN, "private")
        return pkcs1.sign(message, self._private_key(obj), self._rng)

    @_in_session
    def verify(self, session: Session, handle: int, message: bytes,
               signature: bytes) -> bool:
        obj = self._usable_key(handle, CKA_VERIFY, "public")
        return pkcs1.verify(message, signature, self._public_key(obj))

    @_in_session
    def encrypt(self, session: Session, handle: int, message: bytes) -> bytes:
        obj = self._usable_key(handle, CKA_ENCRYPT, "public")
        return pkcs1.encrypt(message, self._public_key(obj), pkcs1.SCHEME_OAEP, self._rng)

    @_in_session
    def decrypt(self, session: Session, handle: int, ciphertext: bytes) -> bytes:
        obj = self._usable_key(handle, CKA_DECRYPT, "private")
        return pkcs1.decrypt(ciphertext, self._private_key(obj), pkcs1.SCHEME_OAEP)

    @_in_session
    def wrap_key(self, session: Session, wrapping_handle: int, handle: int) -> bytes:
        """Export a key encrypted to a wrapping key; refused for unextractable keys."""
        wrapping = self._usable_key(wrapping_handle, CKA_WRAP, "public")
        target = self._lookup(handle)
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
    key_id = obj.attrs.get(CKA_ID, b"") or b""
    label = obj.attrs.get(CKA_LABEL, "")
    return f"  handle={obj.handle} id={bytes(key_id).hex()} label={label}"


def export_pkcs15_layout(token: Token) -> str:
    """Application-directory manifest: MF / DF(PKCS15) / EF(...) listing.

    Only non-empty directory files appear, and the ODF points at exactly
    those.  TokenInfo and UnusedSpace are always present.  The output is
    deterministic for identical token state.
    """
    files: dict[str, list[str]] = {name: [] for name in _DIRECTORY_ORDER}
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
