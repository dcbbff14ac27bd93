"""Host-speed probe: a fixed piece of work timed next to every operation.

The measuring host shares its cores with other tenants, and its speed
swings by a third or more between minutes and within seconds, for every
process alike.  A run therefore times this probe right before and right
after each operation and divides the operation's time by the probe's; the
quotient is scaled back to seconds by ``REFERENCE_S``, a fixed probe time
(near the probe's median on the 2-core x86_64 host the baseline was taken
on).  Reported times thus read "as on a host where the probe takes
REFERENCE_S".

The probe is four parts of about equal time, one for each kind of work
symsub's loops do, since a busy host slows each kind by a different
factor: interpreted integer row reduction on lists, small numpy integer
products, many small numpy arrays built and reduced mod p, and small
complex Hermitian eigendecompositions.  Where the timed work is mostly
starting processes (set-up, CLI calls) a fifth part starts a bare
interpreter: a busy host slows that work less than the four compute parts,
so they alone would over-correct it.  It never calls symsub, so a change
to symsub cannot move it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.0045  # probe time that reported times are scaled to
SPAWN_REFERENCE_S = 0.015  # the same for the bare-interpreter start
SPAWN_ARGV = [sys.executable, "-I", "-S", "-c", "pass"]
_P = 101
_ROWS = [[(7 * i + 3 * j * j + 1) % _P for j in range(8)] for i in range(8)]
_M = np.arange(36, dtype=np.int64).reshape(6, 6) % _P
_V = [np.arange(3, dtype=np.int64) + i for i in range(3)]
_H = np.eye(3, dtype=np.complex128) * (1 + 0.5j)


def _eliminate(rows):
    """Row-reduce a copy of ``rows`` mod _P; returns the rank."""
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], _P - 2, _P)
        rows[rank] = [v * inv % _P for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % _P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def probe():
    rank = 0
    for _ in range(24):
        rank += _eliminate(_ROWS)
    a = _M
    for _ in range(300):
        a = (a @ _M) % _P
    sums = []
    for c in range(2, 100):
        for i in range(3):
            sums.append((_V[i] + c * _V[(i + 1) % 3]) % 65521)
    h = _H
    for _ in range(60):
        _, vecs = np.linalg.eigh(h @ h.conj().T)
        h = h + 0.01 * vecs
    return rank, int(a[0, 0]), len(sums), float(h[0, 0].real)


def reference_s(spawn):
    return REFERENCE_S + (SPAWN_REFERENCE_S if spawn else 0.0)


def timed(spawn=False, clock=time.perf_counter):
    """Seconds the probe takes; with ``spawn``, plus starting and ending a
    bare interpreter, for work that is mostly process start-up."""
    t0 = clock()
    probe()
    if spawn:
        subprocess.run(SPAWN_ARGV, check=True)
    return clock() - t0


def median_of(count, spawn=False):
    return statistics.median(timed(spawn) for _ in range(count))
