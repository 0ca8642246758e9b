"""Cross-checked trace report shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import ksum

__all__ = ["TraceReport"]


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


@dataclass
class TraceReport:
    """One operator, three routes to its trace, and the norms behind them.

    eigenvalues are ordered as produced by ``dense_eigenvalues``, one per
    row of the operator's matrix. For euclid reports of rank k on n > k
    nodes they are the k eigenvalues of the matrix's k x k compression
    followed by n - k exact zeros, and do not depend on the BLAS thread
    count. The two discrepancy fields are derived,
    not stored: |nuclear - matrix| and |nuclear - sum(eigenvalues)|.
    """

    setting: str
    nuclear_trace: complex
    matrix_trace: complex
    eigenvalues: np.ndarray
    quasinorm_bound: float | None = None
    mixed_norm_x_first: float | None = None
    mixed_norm_xi_first: float | None = None
    runtime_ms: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def eigenvalue_sum(self) -> complex:
        return complex(ksum(np.asarray(self.eigenvalues, dtype=complex)))

    @property
    def discrepancy_trace_vs_matrix(self) -> float:
        return abs(self.nuclear_trace - self.matrix_trace)

    @property
    def discrepancy_trace_vs_eigensum(self) -> float:
        return abs(self.nuclear_trace - self.eigenvalue_sum)

    def to_payload(self) -> dict:
        """JSON-ready dict with pinned field names and order.

        Extra verb-specific fields, if any, are appended after the pinned
        ones so the core schema never moves.
        """
        payload = {
            "setting": self.setting,
            "nuclear_trace": _c(self.nuclear_trace),
            "matrix_trace": _c(self.matrix_trace),
            "eigenvalues": [_c(z) for z in np.asarray(self.eigenvalues, dtype=complex)],
            "quasinorm_bound": None if self.quasinorm_bound is None else float(self.quasinorm_bound),
            "mixed_norm_x_first": None if self.mixed_norm_x_first is None else float(self.mixed_norm_x_first),
            "mixed_norm_xi_first": None if self.mixed_norm_xi_first is None else float(self.mixed_norm_xi_first),
            "discrepancy_trace_vs_matrix": self.discrepancy_trace_vs_matrix,
            "discrepancy_trace_vs_eigensum": self.discrepancy_trace_vs_eigensum,
            "runtime_ms": float(self.runtime_ms),
        }
        payload.update(self.extras)
        return payload
