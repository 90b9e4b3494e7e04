"""Failure types shared across the scheme and container layers."""

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
    """Let DecryptionError through and turn any other failure inside the
    block into DecryptionError(), with no cause attached."""
    try:
        yield
    except DecryptionError:
        raise
    except Exception:
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
