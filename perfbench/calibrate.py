"""Reference kernels that read the host's speed during a run.

The shared host this benchmark runs on changes speed over minutes: the same
input can cost 20-40 % more or less CPU time from one minute to the next, and
a fixed matrix product, FFT or object-building loop slows down and speeds up
with it. The library is not the cause, so the gated timing divides the
measured CPU time by the host's *slowness* over the same run: the median,
over samples taken between instances, of the mean of three kernels' CPU times,
each relative to its nominal time. One kernel stands for each kind of work
the library does:

- ``objects``: builds frozen dataclasses holding tuples and a set of them --
  the per-character ``Elem``/``Char`` path;
- ``matmul``: a complex exponential of a real matrix product -- the
  definitional DFTs and phase tables;
- ``fft``: forward and inverse FFT of 2^18 points -- ``spectral``'s fast path.

The kernels call nothing in ``bohrlab``: a change to the library moves the
measured CPU time and never the slowness it is divided by.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

_RNG = np.random.default_rng(0)
_SIGNAL = _RNG.random(1 << 18)
_MATRIX = _RNG.random((384, 384))


@dataclass(frozen=True)
class _Point:
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != 4:
            raise ValueError("a point has four coordinates")


def _objects() -> None:
    points = [_Point((i & 15, (i >> 4) & 15, (i >> 8) & 15, i >> 12)) for i in range(1 << 15)]
    len({p.coords for p in points})


def _matmul() -> None:
    np.exp(1j * (_MATRIX @ _MATRIX))


def _fft() -> None:
    np.fft.ifft(np.fft.fft(_SIGNAL))


# (kernel, nominal CPU seconds of one run: its median on the 2-CPU host the
# benchmark was tuned on). The nominal times set the scale of the slowness,
# so that 1.0 is that host's usual speed; they do not change its spread.
KERNELS = (
    (_objects, 0.040),
    (_matmul, 0.0116),
    (_fft, 0.0195),
)


def slowness() -> float:
    """One sample: mean over the kernels of CPU time / nominal, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ratios = []
        for kernel, nominal in KERNELS:
            c0 = time.process_time()
            kernel()
            ratios.append((time.process_time() - c0) / nominal)
    finally:
        if enabled:
            gc.enable()
    return sum(ratios) / len(ratios)
