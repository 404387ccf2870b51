"""Host speed reference: one fixed piece of work, timed between commands.

On a shared host the same command runs up to 1.8x slower in some stretches
of seconds to minutes than in others (README "Noise"), and the process's CPU
time slows with it, so neither wall nor CPU time of a command says what the
program costs.  The reference does the same work every time, independent of
httpglass and of the workload seed: random gathers over a 16 MiB array, a
dict built from 20k pairs and a sort with a Python key function, the mix of
memory traffic and interpreter work the commands do.  Its time moves with
the host's speed and with nothing the program does.

A command's time divided by the mean of the reference times just before and
just after it, times ``NOMINAL_S``, is the command's time on this host at the
speed where the reference takes ``NOMINAL_S``.
"""
from __future__ import annotations

import gc
import time

import numpy as np

# the fastest reference time measured on a shared 2-vCPU x86-64 host
# (Python 3.11, numpy 2.4); a constant, so adjusted times stay comparable
NOMINAL_S = 0.075


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random(1 << 21)  # 16 MiB of float64
        self.index = rng.integers(0, 1 << 21, 1 << 16)
        self.run()  # the first call pays for page faults

    def run(self) -> float:
        s = 0.0
        for _ in range(6):
            s += float(self.big[self.index].sum())
            d = {int(i): float(x) for i, x in
                 zip(self.index[:20000], self.big[:20000])}
            s += sorted(d.items(), key=lambda kv: kv[1])[0][1]
        return s

    def time(self) -> float:
        gc.collect()
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


def adjusted(times: list[float], refs: list[float]) -> list[float]:
    """``times[i]`` at nominal host speed, where ``refs[i]`` and
    ``refs[i + 1]`` are the reference times just before and after it."""
    return [t * 2 * NOMINAL_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]
