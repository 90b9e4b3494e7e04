"""Failure types shared across the scheme and container layers, and
``Frozen``, the base of the package's immutable value classes."""

import operator
from contextlib import contextmanager

__all__ = [
    "PkcsError",
    "BadParameter",
    "DecryptionError",
    "uniform_decryption",
    "UnsupportedAlgorithm",
    "IntegrityFailure",
    "MissingCredential",
    "MalformedKey",
]


class PkcsError(Exception):
    """Root of every declared failure (a caller's programming error stays a raw
    ValueError); ``exit_code`` is the command line's: 2 bad input, 1 a
    cryptographic failure."""

    exit_code = 2


class BadParameter(PkcsError, ValueError):
    """A size, count, length or text an operator chose is out of range, or
    text that does not parse as hex or that its encoding cannot hold."""


class DecryptionError(PkcsError):
    """Single uniform failure for every decryption error shape.

    The constructor takes no arguments so that all raise sites produce the
    identical error value: an attacker distinguishing padding failures from
    other failures gets a format oracle for free.
    """

    exit_code = 1

    def __init__(self):
        super().__init__("decryption failed")


@contextmanager
def uniform_decryption():
    """Let DecryptionError through and turn any other declared failure
    (``PkcsError``) inside the block into DecryptionError(), with no cause
    attached.  A programming error (a raw ValueError, IndexError, ...) escapes
    as itself: masking it would hide it from the totality tests, and no wire
    input should reach one."""
    try:
        yield
    except DecryptionError:
        raise
    except PkcsError:
        raise DecryptionError() from None


class UnsupportedAlgorithm(PkcsError, ValueError):
    """An algorithm identifier this toolkit refuses to process (e.g. legacy PBES1)."""


class IntegrityFailure(PkcsError):
    """A MAC or signature protecting a container did not verify."""

    exit_code = 1


class MissingCredential(PkcsError, ValueError):
    """The selected protection mode needs a password or key that was not supplied."""


class MalformedKey(PkcsError, ValueError):
    """A private key, or a PBES2 or MacData header, that does not hold together."""


class Frozen:
    """Base of an immutable value class, whose ``__init__`` writes the instance
    dict: no attribute can be set or deleted.  Equality (with an instance of
    the same class only), the hash and the repr, ``Class(name=value, ...)``,
    cover the class's ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
