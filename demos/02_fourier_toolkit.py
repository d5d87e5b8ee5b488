"""
Fourier toolkit on a finite group
=================================

Transforms, convolution, and the exact-phase factored transform that the
verifier uses in place of the FFT.
"""

import numpy as np

from bohrlab import (
    DensityFn,
    GroupSpec,
    convolve,
    dft,
    dft_factored,
    enumerate_chars,
    idft,
    reflect,
    triple_convolve,
)

g = GroupSpec((8,))

# indicator of the even residues, as a density table
evens = DensityFn(g, np.array([1.0, 0, 1, 0, 1, 0, 1, 0]))
spec = dft(evens)
print("dft of 1_{evens} on Z8:")
for t, coeff in zip(enumerate_chars(g), spec.coeffs):
    print(f"  t={t}  {coeff:+.4f}")
# only t=0 and t=4 survive: the evens are the kernel of chi_4

# the fast route is numpy's real-input FFT; the factored route, the verifier's
# own, is one matrix stage of the 8-point kernel, with exact phases
print("fast vs factored:", np.abs(spec.coeffs - dft_factored(evens).coeffs).max())

# round trip (idft returns a complex table)
back = idft(spec)
print("idft(dft(f)) == f:", np.allclose(back.real, evens.values))

# convolution: (f*g)(x) = mean_y f(y) g(x-y)
f = DensityFn(g, np.array([1.0, 1, 0, 0, 0, 0, 0, 0]))
print("f * f:", convolve(f, f).values)

# reflect sends B to -B; triple_convolve(f, g) is f * g * reflect(g),
# whose support is exactly the sumset A + B - B for raw indicators
h = triple_convolve(evens, f)
print("triple convolution values:", np.round(h.values, 4))
print("support:", np.flatnonzero(h.values > 1 / (2 * g.order**2)))

r = reflect(f)
print("reflect moves mass to negated positions:", r.values)
