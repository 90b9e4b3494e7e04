"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install(pk)`` replaces every public function of each layer module
of the package ``pk``, and every public method of the classes defined there,
with a wrapper; every ``from ... import`` copy of a wrapped function in any
``pkcswb`` module is rebound to the same wrapper.  Properties and dunder
methods are not wrapped.

Two kinds of figures are kept:

* Spans.  A span opens where a call enters a layer from another layer (or
  from the benchmark).  Calls inside the same layer, recursion included,
  open no span.  ``<layer>.calls`` counts spans; ``<layer>.self_ms`` is their
  time minus the time of the spans they caused.
* Work counters on named functions (``WORK``).  They count every call of
  that function that is not nested in another call of the same function,
  whichever layer it comes from: pbkdf2 called by pbes2_encrypt inside
  pkcs5 is counted.  Some also time the call (``rsa.private_ms``).

Times are kept raw per block and scaled by ``flush(factor)``, the same
machine-speed correction as the timed runs.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

MAX_SPANS = 20_000  # spans kept for the trace file; counts and times cover all

LAYERS = ("asn1", "primitives", "pkcs5", "rsa", "pkcs1", "keystore", "csr", "cms",
          "pfx", "token", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _private_op(args, kwargs):
    key = _arg(args, kwargs, 1, "sk")
    shape = f"rsa.private_ms.{key.n.bit_length()}-u{len(key.primes)}"
    return {"rsa.private_ops": 1}, ("rsa.private_ms", shape)


# qualified name -> hook(args, kwargs) returning (counts, timed metric names)
WORK = {
    "asn1.der_encode": lambda a, k: ({"asn1.encode_calls": 1}, ()),
    "asn1.der_decode": lambda a, k: (
        {"asn1.decode_calls": 1, "asn1.decode_octets": len(_arg(a, k, 0, "data"))}, ()),
    "primitives.cbc_encrypt": lambda a, k: (
        {"primitives.cbc_octets": len(_arg(a, k, 2, "plaintext"))}, ()),
    "primitives.cbc_decrypt": lambda a, k: (
        {"primitives.cbc_octets": len(_arg(a, k, 2, "ciphertext"))}, ()),
    "primitives.hmac_digest": lambda a, k: ({"primitives.hmac_calls": 1}, ()),
    "pkcs5.pbkdf2": lambda a, k: (
        {"pkcs5.pbkdf2_calls": 1,
         "pkcs5.pbkdf2_iterations": _arg(a, k, 1, "params").iterations}, ()),
    "rsa.generate_key": lambda a, k: ({"rsa.keygen_calls": 1}, ("rsa.keygen_ms",)),
    "rsa.rsa_private_op": _private_op,
    "rsa.rsa_public_op": lambda a, k: ({"rsa.public_ops": 1}, ("rsa.public_ms",)),
}


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.layers: list[str | None] = [None]  # None: the benchmark itself
        self.span_ids = [-1]
        self.child_ns = [0]
        self.counts: dict[str, float] = defaultdict(float)
        self.pending_ns: dict[str, int] = defaultdict(int)
        self.times_ms: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []   # (id, parent, layer, name, start_ns, end_ns)
        self.span_count = 0
        self.wrapped = 0
        self.off = False  # set while the benchmark checks outputs

    # -- recording -----------------------------------------------------

    def _call(self, layer, name, fn, args, kwargs):
        if self.layers[-1] == layer or self.off:
            return fn(*args, **kwargs)
        span = self.span_count
        self.span_count += 1
        self.layers.append(layer)
        self.span_ids.append(span)
        self.child_ns.append(0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.layers.pop()
            self.span_ids.pop()
            children = self.child_ns.pop()
            duration = end - start
            self.child_ns[-1] += duration
            self.pending_ns[f"{layer}.self_ms"] += duration - children
            self.counts[f"{layer}.calls"] += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span, self.span_ids[-1], layer, name, start, end))

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        hook = WORK.get(f"{layer}.{name}")
        if hook is None:
            def wrapper(*args, **kwargs):
                return tracer._call(layer, name, fn, args, kwargs)
        else:
            depth = [0]

            def wrapper(*args, **kwargs):
                if depth[0] or tracer.off:
                    return tracer._call(layer, name, fn, args, kwargs)
                counts, timers = hook(args, kwargs)
                for metric, n in counts.items():
                    tracer.counts[metric] += n
                depth[0] += 1
                start = tracer.clock()
                try:
                    return tracer._call(layer, name, fn, args, kwargs)
                finally:
                    depth[0] -= 1
                    elapsed = tracer.clock() - start
                    for metric in timers:
                        tracer.pending_ns[metric] += elapsed
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        self.wrapped += 1
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, pk) -> None:
        replaced: dict[int, tuple] = {}
        for layer in LAYERS:
            module = getattr(pk, layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, name, obj)
                    setattr(module, name, wrapper)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == pk.__name__
                                      or mod_name.startswith(pk.__name__ + ".")):
                continue
            for name, obj in list(vars(module).items()):
                pair = replaced.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, name, pair[1])

    def _install_class(self, layer: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(member, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, qual, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, qual, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, name, self._wrap(layer, qual, member))

    # -- read-out ------------------------------------------------------

    def flush(self, factor: float) -> None:
        """Move the block's raw times into the totals, scaled by ``factor``."""
        for metric, ns in self.pending_ns.items():
            self.times_ms[metric] += ns * factor / 1e6
        self.pending_ns.clear()

    def per_op(self, names, ops: int) -> dict[str, float]:
        """Every metric in ``names`` per operation; absent ones read 0."""
        out = {}
        for name in names:
            total = self.times_ms.get(name, self.counts.get(name, 0.0))
            out[name] = total / ops
        return out
