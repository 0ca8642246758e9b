"""Discrete operators on an integer window.

Sequences supported on {-N..N}^n play the role of functions, the frequency
variable lives on the unit torus, and with enough frequency nodes every
integral below is a finite exact sum: traces of integer operators come out
as integers, not approximations. The window and the frequency grid form one
sampled symbol, which refuses a grid too coarse for the window.
"""

import numpy as np

from nucfio.euclid import PhaseSpec
from nucfio.errors import TruncationError
from nucfio.grids import LatticeWindow, SampledField, SampledSymbol, UniformGrid
from nucfio.lattice import (
    lattice_matrix,
    lattice_nuclear_trace,
    lattice_symbol_from_decomposition,
)
from nucfio.nuclear import RankOneSequence, r_quasinorm_bound
from nucfio.numerics import dense_eigenvalues, matrix_trace

window = LatticeWindow(dim=1, radius=4)      # sites -4..4
xi = UniformGrid.torus(32, 1)              # 32 >= 2 * (2N + 1) = 18: exact
phase = PhaseSpec.linear()

# constant symbol 1 is the identity on the window
ident = SampledSymbol(window, xi, np.ones((window.size, xi.size), dtype=complex))
tr = lattice_nuclear_trace(phase, ident)
print("identity trace:", tr, " (window size", window.size, ")")
print("exact integer :", tr == complex(window.size))

# 16 < 18 frequency nodes would alias: the symbol is refused, not traced
coarse = UniformGrid.torus(16, 1)
try:
    SampledSymbol(window, coarse, np.ones((window.size, coarse.size), dtype=complex))
except TruncationError as exc:
    print("coarse grid   :", exc)

# a random 3-term kernel sum_k h_k(n') g_k(m)
rng = np.random.default_rng(7)
pairs = tuple(
    (
        SampledField(window, rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)),
        SampledField(window, rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)),
    )
    for _ in range(3)
)
d = RankOneSequence(pairs, 2.0, 2.0, 1.0)
a = lattice_symbol_from_decomposition(phase, d, xi)

direct = sum((h.values * g.values).sum() for h, g in d.terms)
M = lattice_matrix(phase, a)
ev = dense_eigenvalues(M)

print()
print("random 3-term kernel:")
print("  diagonal pairing :", direct)
print("  nuclear trace    :", lattice_nuclear_trace(phase, a))
print("  matrix trace     :", matrix_trace(M))
print("  eigenvalue sum   :", ev.sum())
print("  summability bound:", r_quasinorm_bound(d))
print("  top |eigenvalues|:", np.abs(ev[:3]).round(6))
