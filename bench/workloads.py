"""The three workloads: a fixed operation list built from the workload seed.

Each workload has four parts:

* ``build(pk, seed)``: set-up, timed as ``setup_s``.  Generates keys and
  builds the inputs with the freshly imported ``pkcswb`` package ``pk``.
* ``prepare()``: untimed checks of the inputs by the stdlib oracles.
* ``run(i)``: operation ``i`` of one pass, the only timed code.
* ``check(i, output, first_pass)``: untimed.  Returns False when the
  operation failed (a wrong verdict, or a scenario that did not pass) and
  raises ``CheckFailed`` when an output is wrong.

``final_checks()`` runs once after the timed passes.  Every module of
``pkcswb`` is looked up through ``pk`` at call time, so a traced run that
patches the modules sees every call.
"""

from __future__ import annotations

import hashlib
import random

from bench import oracles
from bench.oracles import require

# Key shapes from the strength table: (modulus bits, prime count u).
SHAPES = ((1024, 2), (1024, 3), (2335, 3))
# Keys are generated at set-up from this fixed seed, whatever the workload
# seed, so that setup_s measures the same key generation on every run.
KEY_SEED = b"pkcswb benchmark keys"
SMALL, LARGE = 1024, 64 * 1024


def shape_name(bits: int, u: int) -> str:
    return f"{bits}-u{u}"


def make_keys(pk) -> dict:
    keys = {}
    for bits, u in SHAPES:
        rng = pk.primitives.SeededSource(
            hashlib.sha256(KEY_SEED + shape_name(bits, u).encode()).digest())
        keys[bits, u] = pk.rsa.generate_key(bits, u, 65537, rng)
    return keys


class OpSource:
    """Deterministic random octets for one operation (PSS salts, IVs)."""

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def read(self, n: int) -> bytes:
        return self._random.randbytes(n)


class Enroll:
    """cli.run_scenario, the nine-step smart-card enrollment, over 40 seeds."""

    name = "enroll"
    SEEDS = 40
    tail_pct = 75.0      # 40 operations leave 10 beyond p75
    min_ops = 40
    trace_passes = 1

    def build(self, pk, seed: int) -> None:
        self.pk = pk
        rnd = random.Random(seed)
        self.items = [rnd.randbytes(16) for _ in range(self.SEEDS)]
        self.reports: dict[int, str] = {}

    def prepare(self) -> None:
        pass

    def run(self, i: int):
        return self.pk.cli.run_scenario(self.items[i])

    def check(self, i: int, output, first_pass: bool) -> bool:
        report, ok = output
        if not ok:
            return False
        oracles.check_scenario(report, ok, self.items[i])
        if first_pass:
            self.reports[i] = report
        else:
            require(report == self.reports[i], f"scenario seed {i} is not reproducible")
        return True

    def final_checks(self) -> None:
        seed = self.items[0]
        again, ok = self.pk.cli.run_scenario(seed)
        require(ok and again == self.reports[0], "scenario report is not byte-reproducible")
        for fault in oracles.FAULT_STEPS:
            report, ok = self.pk.cli.run_scenario(seed, fault)
            oracles.check_scenario(report, ok, seed, fault)


class Sign:
    """cms.sign_data plus to_der with signed attributes, cycling key shapes."""

    name = "sign"
    PASS = 24
    LARGE_AT = (10, 23)  # the 64 KiB payloads, on 1024-u3 and 2335-u3
    tail_pct = 90.0      # see README: above p90 the host's preemptions, not pkcswb, set the figure
    min_ops = 100        # 100 operations leave 10 beyond p90
    trace_passes = 10

    def build(self, pk, seed: int) -> None:
        self.pk = pk
        self.keys = make_keys(pk)
        self.salt = {shape: pk.csr.pss_salt_len_for(pub) for shape, (pub, _) in self.keys.items()}
        rnd = random.Random(seed)
        self.items = []
        for i in range(self.PASS):
            shape = SHAPES[i % len(SHAPES)]
            payload = rnd.randbytes(LARGE if i in self.LARGE_AT else SMALL)
            ident = pk.cms.SignerIdent(
                pk.csr.Name((("commonName", f"bench signer {shape_name(*shape)}"),)),
                hashlib.sha256(str(self.keys[shape][0].n).encode()).digest()[:8])
            attrs = (pk.keystore.attribute_make("signingTime", "260101120000Z"),
                     pk.keystore.attribute_make("sequenceNumber", i + 1))
            self.items.append((shape, payload, ident, attrs, rnd.getrandbits(64)))
        self.outputs: dict[int, bytes] = {}
        self.crt_samples = [rnd.getrandbits(bits - 1) for bits, _ in SHAPES]

    def prepare(self) -> None:
        pass

    def run(self, i: int) -> bytes:
        cms = self.pk.cms
        shape, payload, ident, attrs, op_seed = self.items[i]
        signed = cms.sign_data(cms.make_data(payload), self.keys[shape][1], ident, attrs,
                               OpSource(op_seed))
        return signed.to_der()

    def check(self, i: int, output: bytes, first_pass: bool) -> bool:
        shape, payload = self.items[i][:2]
        if first_pass:
            pub = self.keys[shape][0]
            oracles.check_signed(output, payload, pub.n, pub.e, self.salt[shape])
            self.outputs[i] = output
        else:
            require(output == self.outputs[i], f"signature {i} is not reproducible")
        return True

    def final_checks(self) -> None:
        for shape, c in zip(SHAPES, self.crt_samples):
            sk = self.keys[shape][1]
            oracles.check_crt(c, self.pk.rsa.rsa_private_op(c, sk), sk.n, sk.d)


class Verify:
    """ContentInfo.from_der plus cms.verify_signed, and CSR decode plus verify_csr.

    One pass is 64 items: 48 signed-data and 16 certification requests.  Of
    the signed-data, 6 have one content bit flipped and 6 one signature bit
    flipped; 4 requests have one signature bit flipped.
    """

    name = "verify"
    CMS, CSR = 48, 16
    LARGE_AT = (7, 31)            # signed-data items with 64 KiB payloads
    CONTENT_FLIP, SIG_FLIP = 5, 6  # cms index % 8
    CSR_FLIP = 2                   # csr index % 4
    tail_pct = 90.0
    min_ops = 100
    trace_passes = 10

    def build(self, pk, seed: int) -> None:
        self.pk = pk
        self.keys = make_keys(pk)
        rnd = random.Random(seed)
        cms_items = []
        for j in range(self.CMS):
            shape = SHAPES[j % len(SHAPES)]
            pub, priv = self.keys[shape]
            payload = rnd.randbytes(LARGE if j in self.LARGE_AT else SMALL)
            ident = pk.cms.SignerIdent(
                pk.csr.Name((("commonName", f"bench signer {shape_name(*shape)}"),)), b"kid")
            attrs = (pk.keystore.attribute_make("signingTime", "260101120000Z"),)
            der = bytearray(pk.cms.sign_data(pk.cms.make_data(payload), priv, ident, attrs,
                                             OpSource(rnd.getrandbits(64))).to_der())
            if j % 8 == self.CONTENT_FLIP:
                der[der.index(payload) + rnd.randrange(len(payload))] ^= 1 << rnd.randrange(8)
                expected = "digest"
            elif j % 8 == self.SIG_FLIP:
                der[len(der) - 1 - rnd.randrange(pub.modulus_octets)] ^= 1 << rnd.randrange(8)
                expected = "signature"
            else:
                expected = "accepted"
            cms_items.append(("cms", shape, bytes(der), expected, payload))
        csr_items = []
        for m in range(self.CSR):
            shape = SHAPES[m % len(SHAPES)]
            subject = pk.csr.Name((("commonName", f"bench subject {m}"), ("country", "US")))
            attrs = (pk.keystore.attribute_make("challengePassword", f"pw-{m}"),)
            der = bytearray(pk.csr.build_csr(subject, self.keys[shape], attrs,
                                             OpSource(rnd.getrandbits(64))).to_der())
            expected = "accepted"
            if m % 4 == self.CSR_FLIP:
                der[len(der) - 1 - rnd.randrange(self.keys[shape][0].modulus_octets)] ^= \
                    1 << rnd.randrange(8)
                expected = "rejected"
            csr_items.append(("csr", shape, bytes(der), expected, None))
        self.items = []
        for m in range(self.CSR):
            self.items += cms_items[3 * m:3 * m + 3] + [csr_items[m]]

    def prepare(self) -> None:
        """Derive every expected verdict again with the stdlib verifier."""
        for kind, shape, der, expected, payload in self.items:
            pub = self.keys[shape][0]
            salt = self.pk.csr.pss_salt_len_for(pub)
            if kind == "cms":
                if expected == "accepted":
                    oracles.check_signed(der, payload, pub.n, pub.e, salt)
                    continue
                parts = oracles.parse_signed(der)
                digest_ok = parts.message_digest == hashlib.sha256(parts.encap.octets(der)).digest()
                sig_ok = oracles.pss_verify(pub.n, pub.e, parts.signed_attrs,
                                            parts.signature.content(der), salt)
                verdict = "digest" if not digest_ok else "accepted" if sig_ok else "signature"
            else:
                parts = oracles.parse_csr(der)
                ok = oracles.pss_verify(pub.n, pub.e, parts.info.octets(der),
                                        parts.signature.content(der)[1:], salt)
                verdict = "accepted" if ok else "rejected"
            require(verdict == expected, f"corpus item is {verdict}, built as {expected}")

    def run(self, i: int):
        kind, shape, der, _expected, _payload = self.items[i]
        if kind == "csr":
            request = self.pk.csr.CertificationRequest.from_der(der)
            return "accepted" if self.pk.csr.verify_csr(request) else "rejected", None
        cms = self.pk.cms
        try:
            inner, _ = cms.verify_signed(cms.ContentInfo.from_der(der), self.keys[shape][0])
        except cms.DigestMismatch:
            return "digest", None
        except cms.SignatureInvalid:
            return "signature", None
        return "accepted", inner

    def check(self, i: int, output, first_pass: bool) -> bool:
        kind, _shape, _der, expected, payload = self.items[i]
        verdict, inner = output
        if verdict != expected:
            return False
        if kind == "cms" and verdict == "accepted":
            require(self.pk.cms.data_payload(inner) == payload,
                    "verify_signed returned another payload")
        return True

    def final_checks(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Enroll, Sign, Verify)}
