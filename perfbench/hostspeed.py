"""Host-speed correction for timings taken on a shared host.

On a VM that shares its cores with other tenants the same code runs up to
about 1.6x slower, in stretches that last from seconds to minutes.  Set-up
and solve times are therefore read against a fixed reference kernel.
While a solve runs, a timer interrupts it every ``INTERVAL_S``, runs the
kernel once and records how long it took, and the solve time is reported
as

    corrected_s = (wall_s - time spent in the kernel) * REF_S / median(kernel)

that is, in seconds at the host speed at which one sampled kernel call
takes ``REF_S``.  The set-up imports numpy, so it cannot host the kernel;
it is read against back-to-back kernel calls made right after it ends,
with ``REF_BACK_TO_BACK_S`` in place of ``REF_S``.  The kernel is fixed
code that imports nothing from nestor, so a change to nestor moves the
corrected time as it moves the wall time measured at a steady host speed.
The raw wall seconds and the host slowdown are reported beside every
corrected figure.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

# the kernel's typical time in the quiet stretches of a shared 2-vCPU
# x86-64 VM, when sampled during other work and when called back to back
# (it runs faster then); they set the scale of the corrected seconds only
REF_S = 2.3e-3
REF_BACK_TO_BACK_S = 1.6e-3
INTERVAL_S = 0.1


def _lcg(count: int, state: int = 12_345) -> list:
    """count pseudo-random integers in [0, 2**31), the same on every host."""
    out = []
    for _ in range(count):
        state = (1_103_515_245 * state + 12_345) % 2**31
        out.append(state)
    return out


# a bipartite graph of 500 + 50 nodes and 549 arcs with a dense 500 x 50
# table beside it: the shape of a transportation basis and its surplus
_ROWS, _COLS = 500, 50
_ARCS = [(a % _ROWS, b % _COLS) for a, b in
         zip(_lcg(549, 1), _lcg(549, 2))]
_TABLE = np.array(_lcg(_ROWS * _COLS, 3), dtype=float).reshape(
    _ROWS, _COLS) / 2**31
_SMALL = np.linspace(0.0, 1.0, 32_768)
_LARGE = np.linspace(0.0, 1.0, 262_144)


def kernel() -> float:
    """Fixed work of the kinds nestor does: a loop over a dict, a walk of
    a basis tree with numpy scalar reads and one broadcast over its table
    (the transportation simplex's work per pivot), then small numpy passes
    that stay in cache and large ones that stream memory (the grid
    quadratures)."""
    table = {}
    acc = 0
    for i in range(6_000):
        table[i & 127] = acc
        acc += (i * i) % 7
    adj = [[] for _ in range(_ROWS + _COLS)]
    for p, (i, j) in enumerate(_ARCS):
        adj[i].append((_ROWS + j, p))
        adj[_ROWS + j].append((i, p))
    u = np.zeros(_ROWS)
    v = np.zeros(_COLS)
    seen = np.zeros(_ROWS + _COLS, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for other, p in adj[node]:
            if seen[other]:
                continue
            i, j = _ARCS[p]
            if other >= _ROWS:
                v[j] = _TABLE[i, j] - u[i]
            else:
                u[i] = _TABLE[i, j] - v[j]
            seen[other] = True
            queue.append(other)
    best = int(np.argmax(_TABLE - u[:, None] - v[None, :]))
    x = _SMALL
    for _ in range(4):
        x = np.sqrt(x * 1.0001 + 0.5)
    y = np.add(_LARGE, 0.5)
    np.multiply(y, _LARGE, out=y)
    return acc + best + float(x[-1]) + float(y[-1])


def slowdown_now(calls: int = 25) -> float:
    """Host slowdown read from back-to-back kernel calls, for code that
    cannot be sampled while it runs (the set-up, which imports numpy)."""
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / REF_BACK_TO_BACK_S


class Sampler:
    """Context manager that samples the kernel while its body runs.

    ``samples`` holds the kernel's seconds per call and ``spent_s`` the
    total time the body lost to sampling, which ``corrected`` removes.
    """

    def __init__(self):
        self.samples: list = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        self.spent_s += spent

    def __enter__(self):
        # one sample up front, outside the body, so that even a body
        # shorter than the interval has a speed reading taken next to it
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def slowdown(self) -> float:
        """Host slowdown against the reference speed (1.0 = REF_S)."""
        return statistics.median(self.samples) / REF_S

    def corrected(self, wall_s: float) -> float:
        """wall_s, less the time spent sampling, at the reference speed."""
        return (wall_s - self.spent_s) / self.slowdown
