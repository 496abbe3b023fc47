"""Host-speed probe: express measured times in seconds of a reference host.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of per cent over seconds to minutes as other tenants come and go, and
pass times of identical work drift with it. To take that drift out, the
benchmark times fixed reference bursts close to the timed work and scales
each time it reports by ``factor``: a time in reference seconds is the time
the same work would take on a host where the bursts take their reference
times. The bursts belong to the benchmark and never change with the
program, so a slower or faster program still moves the scaled times by its
full amount. Raw times are reported next to them.

Contention does not slow all code alike: whole-array kernels and many numpy
calls on tiny arrays drift apart. One tick runs a burst of each kind, and
the factor is the geometric mean of the two kinds' speeds. In five-run
tests on the benchmark's host each kind alone followed some workload poorly
(spreads of the runs' median pass up to 0.07), while the mean kept all four
at 0.01-0.04, against 0.06-0.16 for raw times.

``Sampler`` runs a tick every ``PERIOD_S`` of wall time from a SIGALRM
handler, so samples cover the whole of a long call into rhmlab, and keeps
the time its handler takes out of the pass times.
"""

from __future__ import annotations

import array
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05

# Seconds spent in any Sampler's handler so far, for code that times parts
# of a pass and must leave the bursts out.
handler_total_s = 0.0

_A = np.random.default_rng(0).random((32, 16, 16))
_B = np.random.default_rng(1).random((16, 16))
_KEYS = np.random.default_rng(2).integers(0, 64, size=256)
_C = np.empty_like(_A)
_S = np.empty(_A.shape[:2])
_K = np.empty_like(_KEYS)
_TABLE = np.random.default_rng(3).integers(0, 16, size=(16, 4, 2))
_CHILD = np.random.default_rng(4).random((8, 2, 16))
_NODE = np.broadcast_to(np.arange(8)[:, None, None], (8, 16, 4))
_TARGET = np.broadcast_to(_TABLE[None, :, :, 0], (8, 16, 4))
_PAIR = np.arange(2)[None, None, :]


def _array_burst() -> None:
    """Whole-array kernels on mid-size arrays: matmul, reductions, sorts."""
    for _ in range(26):
        np.matmul(_A, _B, out=_C)
        np.sum(_C, axis=2, out=_S)
        np.copyto(_K, _KEYS)
        _K.sort()


def _interp_burst() -> None:
    """Many numpy calls on tiny arrays (a belief-propagation step: gather,
    product, normalise, scatter-add) plus a dict loop: interpreter and call
    overhead."""
    for _ in range(16):
        g = _CHILD[:, _PAIR, _TABLE]
        prods = g.prod(axis=3)
        up = prods.sum(axis=2) / 4
        up /= up.sum(axis=1)[:, None]
        msg = np.zeros((8, 16))
        np.add.at(msg, (_NODE, _TARGET), prods)
    d: dict[int, int] = {}
    for i in range(600):
        d[i & 63] = d.get(i & 63, 0) + i


# Burst kind -> (code, about its median time on the host the benchmark was
# defined on: a 2-vCPU Intel Xeon VM with numpy 2.4 and scipy-openblas
# 0.3.31 on one thread, so that reference seconds read close to raw seconds
# there).
KINDS = {"array": (_array_burst, 0.9e-3), "interp": (_interp_burst, 0.9e-3)}


def tick() -> tuple[float, ...]:
    """One burst of each kind, in ``KINDS`` order; their durations in s."""
    out = []
    for run, _ in KINDS.values():
        t0 = time.perf_counter()
        run()
        out.append(time.perf_counter() - t0)
    return tuple(out)


def factor(ticks: list[tuple[float, ...]]) -> float:
    """Factor that turns raw seconds into reference seconds: the geometric
    mean over kinds of (reference time / median burst time)."""
    f = 1.0
    for k, (_, ref) in enumerate(KINDS.values()):
        f *= ref / statistics.median(t[k] for t in ticks)
    return f ** (1 / len(KINDS))


def probe(n: int = 20) -> list[tuple[float, ...]]:
    """``n`` ticks back to back (for times too short to sample inside)."""
    return [tick() for _ in range(n)]


class Sampler:
    """A tick every ``PERIOD_S`` from a SIGALRM handler while installed.

    ``scaled(t0, t1)`` turns the work done between two ``perf_counter``
    readings into reference seconds, segment by segment of ``SEGMENT``
    ticks, so that a host that speeds up or slows down within a long pass
    is followed; the handler's own time is left out.

    Samples go to storage allocated up front: a list that grows during a
    pass reallocates on the malloc heap and raised the corpus workload's
    peak RSS by 40 MB. After ``CAPACITY`` ticks the handler does nothing.
    """

    SEGMENT = 20
    CAPACITY = 1 << 14  # over 13 minutes of ticks

    def __init__(self):
        zeros = bytes(8 * self.CAPACITY)
        self._start = array.array("d", zeros)
        self._handler = array.array("d", zeros)
        self._bursts = [array.array("d", zeros) for _ in KINDS]
        self.n = 0

    def _handle(self, signum, frame):
        global handler_total_s
        if self.n == self.CAPACITY:
            return
        t0 = time.perf_counter()
        for store, b in zip(self._bursts, tick()):
            store[self.n] = b
        h = time.perf_counter() - t0
        self._start[self.n], self._handler[self.n] = t0, h
        self.n += 1
        handler_total_s += h

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, i: int) -> tuple[float, ...]:
        return tuple(store[i] for store in self._bursts)

    def median_bursts(self) -> dict[str, float]:
        """Median burst time of each kind over every tick so far."""
        return {k: statistics.median(store[:self.n])
                for k, store in zip(KINDS, self._bursts)} if self.n else {}

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw seconds, reference seconds) of the work between ``t0`` and
        ``t1``, both without the handler's time."""
        inside = [i for i in range(self.n) if t0 <= self._start[i] < t1]
        if not inside:
            return t1 - t0, (t1 - t0) * factor(probe(5))
        n = self.SEGMENT
        # Segments of n ticks; a short tail joins the segment before it.
        cuts = list(range(0, len(inside), n))
        if len(cuts) > 1 and len(inside) - cuts[-1] < n // 2:
            cuts.pop()
        raw = ref = 0.0
        for k, lo in enumerate(cuts):
            seg = inside[lo:cuts[k + 1] if k + 1 < len(cuts) else len(inside)]
            start = t0 if k == 0 else self._start[seg[0]]
            end = t1 if k + 1 == len(cuts) else self._start[inside[cuts[k + 1]]]
            work = end - start - sum(self._handler[i] for i in seg)
            raw += work
            ref += work * factor([self._tick(i) for i in seg])
        return raw, ref
