"""Discrete operators on an integer window.

Sequences supported on {-N..N}^n play the role of functions, the frequency
variable lives on the unit torus, and with enough frequency nodes every
integral below is a finite exact sum: traces of integer operators come out
as integers, not approximations.
"""

import numpy as np

from nucfio.euclid import PhaseSpec
from nucfio.grids import SampledField, UniformGrid
from nucfio.lattice import (
    LatticeSymbol,
    LatticeWindow,
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
ident = LatticeSymbol(window, xi, np.ones((window.size, xi.size), dtype=complex))
tr = lattice_nuclear_trace(phase, ident)
print("identity trace:", tr, " (window size", window.size, ")")
print("exact integer :", tr == complex(window.size))

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
