import hashlib

import pytest

from pkcswb import rsa
from pkcswb.primitives import HashAlg, SeededSource


def seeded(tag: bytes) -> SeededSource:
    return SeededSource(tag)


def tiny_hash(out_len: int) -> HashAlg:
    """Truncated SHA-256, for exercising padding layouts at small moduli."""
    return HashAlg(f"sha256/{out_len}", out_len,
                   raw=lambda data: hashlib.sha256(data).digest()[:out_len])


def count_sha256_constructions(monkeypatch) -> list[bytes]:
    """Initial data of every ``hashlib.sha256`` object made from now on; a
    copied state is not counted."""
    made = []
    construct = hashlib.sha256

    def counting(data=b"", **kwargs):
        made.append(bytes(data))
        return construct(data, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return made


def hmac_pads(key: bytes) -> list[bytes]:
    """The two blocks K xor ipad, K xor opad of a key of at most 64 octets."""
    key = key.ljust(64, b"\x00")
    return [bytes(b ^ 0x36 for b in key), bytes(b ^ 0x5C for b in key)]


@pytest.fixture(scope="session")
def key_1024():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024"))


@pytest.fixture(scope="session")
def key_1024_b():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024b"))


@pytest.fixture(scope="session")
def key_1024_c():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024c"))


@pytest.fixture(scope="session")
def key_512():
    return rsa.generate_key(512, 2, 65537, seeded(b"fixture/512"))


@pytest.fixture(scope="session")
def toy_keys():
    """u in {2, 3, 4} with primes of at most 24 bits."""
    return {
        u: rsa.generate_key(24 * u, u, 65537, seeded(b"fixture/toy%d" % u))
        for u in (2, 3, 4)
    }
