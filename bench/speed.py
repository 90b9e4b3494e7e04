"""Machine-speed correction: a fixed reference kernel sampled throughout the timed work.

On a shared virtual machine the processor's speed drifts by a third or more,
in phases from a second to tens of seconds, and CPU time drifts with the
wall clock.  Every timed figure is therefore scaled by how fast a fixed,
stdlib-only kernel ran during the block of work it belongs to:

    corrected = raw * NOMINAL_KERNEL_S / (mean kernel time measured in and next to the block)

The kernel calls no pkcswb code.  It mixes the two kinds of work the
workloads do: interpreted Python (fixed loops of integer arithmetic,
byte-table lookups and small-object churn) and big-integer arithmetic (a
fixed modular exponentiation), in about equal shares of its time, the mix
that followed all three workloads best.  It is short (about 3.5 ms), and a
Meter runs it from a SIGALRM handler every SAMPLE_S of wall time, so it
samples the same seconds as the work it corrects, even inside a one-second
operation, at about an eighth of the work's time.  ``Meter.clock()`` is the
wall clock minus the time spent in the kernel, so raw times exclude it.
A block's factor uses the kernel runs inside it and the last one before it.

NOMINAL_KERNEL_S and the kernel's work (the loop counts, the table, the
data and the exponentiation's operands) must never change: every corrected
figure ever reported is expressed in units of this kernel.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 6_000
BYTES_N = 7_500
CELLS_N = 1_200
POW_MOD = (1 << 512) - 569
POW_EXP = (1 << 511) + 111
NOMINAL_KERNEL_S = 0.0035
SAMPLE_S = 0.025   # one kernel run per 25 ms of wall time
START_RUNS = 10    # kernel runs that open the first block

_TABLE = bytes((i * 167 + 13) & 255 for i in range(256))
_DATA = bytes(range(256)) * 4


class _Cell:
    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def mix(self, x: int) -> int:
        return self.a ^ self.b ^ x


def kernel() -> int:
    """The fixed reference work; returns a value so nothing is optimised away."""
    acc = 0
    for i in range(LOOP_N):            # integer arithmetic
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    x = 0
    for i in range(BYTES_N):           # byte-table lookups, as in AES and DER
        x = _TABLE[x ^ _DATA[i & 1023]]
    acc ^= len(b"".join(_DATA[i:i + 16] for i in range(0, 1024, 16))) + x
    cells = [_Cell(i, i + 1) for i in range(CELLS_N)]  # small objects and dicts
    index = {}
    for i, cell in enumerate(cells):
        index[i & 31, cell.a & 7] = cell.mix(i)
    return acc ^ len(index) ^ pow(3, POW_EXP, POW_MOD)


def factor(kernel_times: list[float]) -> float:
    """Scale that maps raw times of a block to nominal machine speed."""
    return NOMINAL_KERNEL_S / statistics.fmean(kernel_times)


class Meter:
    """Samples the kernel on a timer while the benchmark works, and corrects blocks.

    Use as a context manager around the timed work.  ``close()`` returns the
    factor of the block that ended since the previous ``close()`` (or since
    the start).  ``clock()`` reads nanoseconds that exclude kernel runs.
    """

    def __init__(self, kernel_fn=kernel):
        self._kernel = kernel_fn
        self._block: list[float] = []
        self._in_kernel = False
        self._previous_handler = None
        self.stolen_ns = 0
        self.kernel_times: list[float] = []

    def sample(self, *_signal_args) -> None:
        """Run the kernel once and record its time; ignores re-entry."""
        if self._in_kernel:
            return
        self._in_kernel = True
        start = time.perf_counter_ns()
        self._kernel()
        elapsed = time.perf_counter_ns() - start
        self.stolen_ns += elapsed
        self._block.append(elapsed / 1e9)
        self.kernel_times.append(elapsed / 1e9)
        self._in_kernel = False

    def clock(self) -> int:
        return time.perf_counter_ns() - self.stolen_ns

    def close(self) -> float:
        self.sample()
        f = factor(self._block)
        self._block = self._block[-1:]
        return f

    def __enter__(self) -> "Meter":
        for _ in range(START_RUNS):
            self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
