"""Quotient-space operators and the trivial-subgroup degeneration.

On a quotient of a compact group, only the subgroup-invariant part of each
irreducible block matters: symbols are masked to their top-left k x k
corner. With the trivial subgroup the mask keeps everything and the whole
calculus must collapse onto the group case bit for bit, which this script
verifies. It closes with the special-unitary 3x3 parametrization used for
the rank-two quotient checks.
"""

import numpy as np

from nucfio.group import (
    GroupPhase,
    GroupSymbol,
    class_i_mask,
    group_matrix,
    group_nuclear_trace,
    identity_phase,
    su2_haar_quadrature,
)
from nucfio.homog import (
    homog_mixed_norm,
    homog_nuclear_trace,
    su3_fundamental_batch,
    su3_haar_quadrature,
    su3_mass,
    su3_schur_error,
    table_from_su2,
)

# the invariant mask: 5-dim blocks keep a 3 x 3 corner
rng = np.random.default_rng(0)
B = rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5))
masked = class_i_mask(B, 3)
print("mask keeps corner:", np.array_equal(masked[:, :3, :3], B[:, :3, :3]))
print("mask idempotent  :", np.array_equal(class_i_mask(masked, 3), masked))

# trivial subgroup: every block is fully invariant (k = dim), and the
# quotient trace equals the group trace exactly, same bits. The group_*
# functions take the table as their domain; its own matrices are the
# identity phase
quad = su2_haar_quadrature(16, 16, 32)
cutoff = 2
table = table_from_su2(quad, cutoff)
blocks = {
    t: np.broadcast_to(np.eye(t + 1, dtype=complex), (quad.size, t + 1, t + 1)).copy()
    for t in table.labels
}
Phi_h, a_h = GroupPhase(table, table.matrices), GroupSymbol(table, blocks)
th = homog_nuclear_trace(Phi_h, a_h)
tg = group_nuclear_trace(identity_phase(quad, cutoff), GroupSymbol(quad, blocks))
print()
print("quotient trace :", th)
print("group trace    :", tg)
print("bit-for-bit    :", th == tg)
print("matrix route   :", np.trace(group_matrix(Phi_h, a_h)))
print("dual-decay norm:", homog_mixed_norm(GroupSymbol(table, blocks), 2.0, 2.0))

# the eight-angle parametrization of special unitary 3 x 3 matrices
rng = np.random.default_rng(1)
ang = np.empty((5000, 8))
ang[:, :3] = rng.uniform(0.0, np.pi / 2.0, (5000, 3))
ang[:, 3:] = rng.uniform(0.0, 2.0 * np.pi, (5000, 5))
U = su3_fundamental_batch(ang)
print()
print("su3 samples: unitarity defect",
      np.abs(np.einsum("nij,nkj->nik", U, U.conj()) - np.eye(3)).max(),
      " det defect", np.abs(np.linalg.det(U) - 1.0).max())

quad3 = su3_haar_quadrature(resolution=8)
print("su3 Haar mass - 1  :", abs(su3_mass(quad3) - 1.0))
print("su3 Schur defect   :", su3_schur_error(quad3), "(resolution 8)")
