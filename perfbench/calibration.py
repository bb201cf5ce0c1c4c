"""A fixed probe of machine speed, used to scale timings to a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up to
1.6x over minutes, as its neighbours' load changes; any wall-clock timing
drifts with it.  ``probe()`` times a fixed piece of work shaped like cohsys's
own hot paths (small modular eliminations with numpy int64 rows and a
schoolbook polynomial product on Python ints) that uses no cohsys code.  A
timing taken right after a probe is scaled by ``REFERENCE_S / probe``, so it
reads as the time the same work takes on the machine at its reference speed.
A faster cohsys moves the scaled time just as it moves the raw time, but a
slower host moves the probe and the timing together, so the drift cancels.

On a 2-vCPU "Intel Xeon Processor" VM (Python 3.11.7, numpy 2.4.6) one probe
took about 1.0 ms while the host was at its fastest and 1.9 ms at its
slowest; ``REFERENCE_S`` lies between, so scaled times read like that
machine's wall-clock times.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 1.2e-3  # the probe's duration at the reference speed
Q = 101
ROUNDS = 6
_MATRIX = (np.arange(12 * 14, dtype=np.int64).reshape(12, 14) ** 3 + 7) % Q
_POLY = [3, 1, 4, 1, 5, 9, 2, 6]


def _rank(a: np.ndarray) -> int:
    a = a.copy()
    r = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, Q) % Q
        below = np.nonzero(a[r + 1 :, c])[0]
        if len(below):
            idx = below + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, c], a[r])) % Q
        r += 1
        if r == a.shape[0]:
            break
    return r


def _power() -> list[int]:
    acc = [1]
    for _ in range(6):
        out = [0] * (len(acc) + len(_POLY) - 1)
        for i, u in enumerate(acc):
            for j, v in enumerate(_POLY):
                out[i + j] = (out[i + j] + u * v) % Q
        acc = out
    return acc


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    for _ in range(ROUNDS):
        _rank(_MATRIX)
        _power()
    return perf_counter() - t0


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured right after a probe of ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
