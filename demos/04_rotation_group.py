"""Operator traces on the double cover of the rotation group.

Matrix-valued symbols act blockwise on irreducible frequencies. The Fourier
side is indexed by spin (stored as twoL = 2*spin so everything is an int);
quadrature over Euler angles with the gamma range doubled keeps
half-integer spins orthogonal. The identity operator's trace recovers the
sum of squared block dimensions.
"""

import numpy as np

from nucfio.group import (
    GroupSymbol,
    euler_from_su2,
    group_matrix,
    group_nuclear_trace,
    identity_phase,
    s3_quadrature,
    su2_haar_quadrature,
    su2_irrep_table,
    wigner_matrix,
)
from nucfio.numerics import dense_eigenvalues

quad = su2_haar_quadrature(16, 16, 32)
print("quadrature nodes:", quad.size, " weight sum:", float(quad.weights.sum()))
print("chart mass (16 pi^2):", quad.raw_mass, "vs", 16.0 * np.pi**2)

# representation matrices are unitary and satisfy the group law
U1 = wigner_matrix(1, 0.7, 0.9, 1.3)
U2 = wigner_matrix(1, 2.1, 2.4, 3.7)
angles = euler_from_su2(U1 @ U2)
for twoL in (1, 2, 3, 4):
    D = wigner_matrix(twoL, *angles)
    gap = np.abs(D - wigner_matrix(twoL, 0.7, 0.9, 1.3) @ wigner_matrix(twoL, 2.1, 2.4, 3.7)).max()
    print(f"composition gap at twoL = {twoL}: {gap:.2e}")

# Schur orthogonality under the quadrature
T1, T2 = su2_irrep_table(quad, 1), su2_irrep_table(quad, 2)
cross = np.einsum("n,nij,nkl->ijkl", quad.weights, T1, T2.conj())
print("cross-spin orthogonality:", np.abs(cross).max())

# the identity operator truncated at spin 1: trace = 1 + 4 + 9 = 14
cutoff = 2
blocks = {
    t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
    for t in range(cutoff + 1)
}
a = GroupSymbol(quad, blocks)
Phi = identity_phase(quad, cutoff)
print()
print("identity operator through twoL = 2:")
print("  nuclear trace :", group_nuclear_trace(Phi, a))
print("  matrix route  :", dense_eigenvalues(group_matrix(Phi, a)).sum())

# the same group seen as the unit 3-sphere: a chart quadrature whose raw
# chart mass is 4 pi^2 reproduces the same representation integrals
s3 = s3_quadrature(48)
print()
print("3-sphere chart:")
print("  raw chart mass:", s3.raw_mass, "vs 4 pi^2 =", 4.0 * np.pi**2)
T = su2_irrep_table(s3, 1)
G = np.einsum("n,nij,nkl->ijkl", s3.weights, T, T.conj())
G -= np.einsum("ik,jl->ijkl", np.eye(2), np.eye(2)) / 2.0
print("  Schur defect  :", np.abs(G).max())
