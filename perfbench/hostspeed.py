"""Host speed reference: a fixed kernel timed between steps.

On a shared host the speed a process gets changes within a second (on a
2-core VM one route call took 150 ms and the next 260 ms) and from run to
run, by more than any useful regression bound. The reference kernel below
does the kinds of work a capsem step does, in a fixed amount: Python
bytecode, dispatch-bound small-array ops, elementwise and reduce work on a
cache-sized array, and small matrix products. It never calls the package,
so a change to the program cannot change its time; only the host can.

Timing it before and after every step and dividing each step time by it
gives the step time at a fixed host speed: ``normalize`` rescales each
step to a host on which one kernel call takes ``REF_MS``. On the 2-core VM,
over five runs of ``wide_route``, samples per second spread 20%
(interquartile range over median) as timed and 3% normalized.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal time of one reference kernel call; normalized times are times on
# a host where the kernel takes this long (a round figure near its time on
# the 2-core VM above).
REF_MS = 4.5


class HostClock:
    """Times the reference kernel and keeps every sample, in ms per call;
    ``spent_s`` is the wall time spent in it, to take out of run times."""

    def __init__(self):
        rng = np.random.default_rng(0x4057)
        self._small = rng.normal(size=(4, 4))
        self._mid = rng.normal(size=(8, 64, 16, 4, 4))
        self._buf = np.empty_like(self._mid)
        self._mat = rng.normal(size=(120, 120))
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _kernel(self) -> float:
        # Four parts of about 1 ms each on the VM above. Host slowdowns hit
        # them unequally, so the kernel mixes them as a capsem step does.
        # It allocates nothing large: with a 4 MB temporary in it, its time
        # relative to a fixed matrix product moved by up to 20% from one
        # process to the next.
        counts: dict[int, int] = {}
        for i in range(7000):                        # interpreter
            counts[i % 97] = counts.get(i % 97, 0) + i
        acc = float(counts[0])
        small = self._small
        for _ in range(200):                         # small-array dispatch
            small = np.tanh(small * 0.5 + 0.25)
            acc += float(small.sum())
        buf = self._buf                              # cache-sized arrays
        for _ in range(2):
            np.tanh(self._mid, out=buf)
            np.multiply(buf, 0.5, out=buf)
            np.exp(buf, out=buf)
            acc += float(buf.sum(axis=(-1, -2)).mean())
        for _ in range(10):                          # BLAS
            acc += float((self._mat @ self._mat)[0, 0])
        return acc

    def sample(self, reps: int = 1) -> float:
        """Run the kernel ``reps`` times; record and return the median ms
        per call."""
        calls = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            calls.append(time.perf_counter() - t0)
        self.spent_s += sum(calls)
        ms = statistics.median(calls) * 1e3
        self.samples.append(ms)
        return ms

    def median_ms(self) -> float:
        return statistics.median(self.samples) if self.samples else \
            float("nan")


def normalize(step_ms, ref_ms) -> np.ndarray:
    """Step times rescaled to a host where the kernel takes ``REF_MS``.

    ``ref_ms`` holds one kernel sample before each step and one after the
    last, so step ``k`` lies between samples ``k`` and ``k + 1``; it is
    scaled by their mean. The host's speed changes within a second, so
    only the samples next to a step describe it.
    """
    step = np.asarray(step_ms, dtype=float)
    ref = np.asarray(ref_ms, dtype=float)
    if len(ref) != len(step) + 1:
        raise ValueError(f"{len(step)} steps need {len(step) + 1} kernel "
                         f"samples, not {len(ref)}")
    return step * (REF_MS / ((ref[:-1] + ref[1:]) / 2))
