"""Host-speed probe: a fixed reference kernel interleaved with timed work.

On a shared host the speed of the same code drifts by tens of percent over
seconds to minutes, as other tenants load the cores and caches.  Medians
over passes remove short spells, not drifts that outlast a run.  The probe
measures the host's current speed with a kernel that lives here, in the
benchmark, and so is the same for every version of the program under test.

The kernel has two halves, because a busy neighbour slows code by how it
uses the core: interpreter-bound code (evaluating a small expression tree
over a short vector, as fitting does) and memory-bound code (a chase
around an 8 MB ring, as lookups in the e-graph's and the caches' large
tables do).  On a shared 2-vCPU Xeon host the first half's time swung
more than fitting's, and the second half's as much as enumeration's and
GP's; the mean of the two tracks all three workloads.

While a ``Probe`` is active, a timer interrupts the timed work every
``INTERVAL_S`` seconds and runs one slice of the kernel, timed.  Slices
also run when the probe starts and stops, so even a short pass is sampled
at both ends.  ``work_s`` is the elapsed time without the slices;
``scaled(work_s)`` rescales it to the speed the host had when a slice took
``SLICE_REF_S``: seconds at a fixed reference speed.  Work and kernel are
sampled over the same seconds, so a host that is uniformly slower by some
factor for part of a pass slows both by that factor, and it cancels.
"""

from __future__ import annotations

import array
import gc
import math
import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.2     # timed work between two slices, by default
SLICE_ITERS = 130    # tree evaluations per slice (about 5 ms)
SLICE_HOPS = 20000   # steps around the ring per slice (about 5 ms)
RING_SLOTS = 1 << 21  # four-byte slots: 8 MB, more than a core's caches
RING_STEP = 300007   # slots per step: 1.2 MB, past any prefetcher
SLICE_REF_S = 0.010  # a slice's time at the reference speed


@dataclass(frozen=True)
class _Node:
    op: str
    left: object = None
    right: object = None
    value: float = 0.0


def _tree() -> _Node:
    x = _Node("x")
    c = _Node("c", value=1.25)
    return _Node("+", _Node("*", c, _Node("exp", _Node("*", x, c))),
                 _Node("/", _Node("-", x, _Node("c", value=0.5)),
                       _Node("+", _Node("*", x, x), c)))


def _evaluate(node: _Node, xs: list, memo: dict) -> list:
    """Interpreter-style evaluation over a short vector: recursion,
    dataclass attributes, a memo keyed on nodes, float arithmetic.  Pure
    Python, so it needs no import and can probe the imports of a set-up."""
    found = memo.get(node)
    if found is not None:
        return found
    op = node.op
    if op == "x":
        out = xs
    elif op == "c":
        out = [node.value] * len(xs)
    elif op == "exp":
        out = [math.exp(a) for a in _evaluate(node.left, xs, memo)]
    else:
        a = _evaluate(node.left, xs, memo)
        b = _evaluate(node.right, xs, memo)
        if op == "+":
            out = [u + v for u, v in zip(a, b)]
        elif op == "-":
            out = [u - v for u, v in zip(a, b)]
        elif op == "*":
            out = [u * v for u, v in zip(a, b)]
        else:
            out = [u / v for u, v in zip(a, b)]
    memo[node] = out
    return out


def _ring() -> array.array:
    """Slot i holds the next slot, i + RING_STEP modulo RING_SLOTS: a single
    cycle through all slots (the step is odd, the size a power of two) whose
    every step misses the caches and waits on memory, as lookups in a large
    hash table do."""
    return (array.array("I", range(RING_STEP, RING_SLOTS))
            + array.array("I", range(RING_STEP)))


_RING = None    # built on first use, outside any timing
_ACTIVE = None  # the probe whose timer is running, if any


def sliced_s() -> float:
    """Seconds spent in slices so far by the active probe (0 without one);
    differences of it take slices out of the timing of a single call."""
    return sum(_ACTIVE.slices) if _ACTIVE is not None else 0.0


class Probe:
    """Context manager; see the module docstring."""

    def __init__(self, interval_s: float = INTERVAL_S):
        global _RING
        if _RING is None:
            _RING = _ring()
        self.interval_s = interval_s
        self._xs = [0.1 + 0.03 * i for i in range(16)]
        self._tree = _tree()
        self._hop = 0
        self.slices: list = []
        self._start = 0.0
        self.elapsed_s = 0.0

    def _slice(self, *_):
        # a collection the slice would trigger belongs to the work's heap,
        # not to the slice: it is left for the work to run
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        xs, tree = self._xs, self._tree
        acc = 0.0
        for i in range(SLICE_ITERS):
            scale = 1.0 + i * 1e-3
            acc += _evaluate(tree, [a * scale for a in xs], {})[i & 15]
            acc += hash((i, f"{acc:.6g}")) & 1
        ring, j = _RING, self._hop
        for _ in range(SLICE_HOPS):
            j = ring[j]
        self._hop = j
        self.slices.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self):
        global _ACTIVE
        self.slices = []
        self._old = signal.signal(signal.SIGALRM, self._slice)
        self._start = time.perf_counter()
        self._slice()
        _ACTIVE = self
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _ACTIVE = None
        signal.signal(signal.SIGALRM, self._old)
        self._slice()
        self.elapsed_s = time.perf_counter() - self._start
        return False

    @property
    def work_s(self) -> float:
        """Elapsed seconds, without the slices."""
        return self.elapsed_s - sum(self.slices)

    @property
    def slowdown(self) -> float:
        """Mean slice time over the reference: 1.0 at the reference speed,
        2.0 on a host half as fast.  The slowest and the fastest tenth of
        the slices are left out: a slice the scheduler pre-empted says
        nothing about the host's speed."""
        xs = sorted(self.slices)
        cut = len(xs) // 10
        kept = xs[cut:len(xs) - cut]
        return sum(kept) / (len(kept) * SLICE_REF_S)

    def scaled(self, seconds: float) -> float:
        return seconds / self.slowdown
