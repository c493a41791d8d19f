"""Machine-speed sampling, to scale wall times to a reference speed.

A shared VM's CPU speed can drift by tens of percent within seconds, at
times twofold, and a CPU-bound command's wall time drifts with it.  While
the workload runs, a thread times a fixed kernel every SAMPLE_INTERVAL_S on
the same CPU.  Each sample stands for the speed of the CPU until the next
one, so the time an interval would have taken at the reference speed is the
sum of its pieces, each scaled by KERNEL_REF_S over its kernel time.
"""

from __future__ import annotations

import os
import threading
import time

SAMPLE_INTERVAL_S = 0.04
# Seconds per _kernel call that count as the reference speed: about one call
# on a 2-vCPU cloud VM running Python 3.11, so reference seconds read close
# to wall seconds there.
KERNEL_REF_S = 0.0012

_ROW = [(k * 7919) % 31 for k in range(700)]
_TEXT = "".join("abcdefghijklmnopqrstuvwxyz     "[(k * 104729) % 31] for k in range(900))


def _kernel() -> int:
    """Fixed pure-Python work that owes nothing to the program: three rows
    of an edit-distance table over 700 items and 4-gram counting over 900
    characters, a working set like the workloads' own.  (A kernel that fits
    in the L1 cache tracked the workloads' slowdowns less well.)"""
    prev = list(range(len(_ROW) + 1))
    for i, x in enumerate(_ROW[:3], start=1):
        cur = [i]
        for j, y in enumerate(_ROW, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    counts: dict[str, int] = {}
    for k in range(len(_TEXT) - 3):
        gram = _TEXT[k:k + 4]
        counts[gram] = counts.get(gram, 0) + 1
    return prev[-1] + len(counts)


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads and processes it starts, on one
    CPU, so that the sampler measures the CPU the workload runs on.  (The
    other CPU's speed does not track it.)"""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds per kernel)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            started = time.perf_counter()
            _kernel()
            self.samples.append((started, time.perf_counter() - started))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def at_reference(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have taken at the reference speed.
        The piece before the first sample in the interval takes that
        sample's speed."""
        inside = [(t, k) for t, k in self.samples if start <= t <= end]
        if not inside:
            return end - start
        bounds = [start] + [t for t, _k in inside[1:]] + [end]
        return sum((b - a) * KERNEL_REF_S / k
                   for (_t, k), a, b in zip(inside, bounds, bounds[1:]))
