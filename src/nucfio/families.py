"""Named function families for building fields, sequences, and corpora.

These back the CLI's config files and the randomized test corpora. Specs are
small dicts: {"family": "gaussian", "center": 0.0, "width": 1.0} and so on.
One builder per domain, each with its own family-key table: ``euclid_field``
on a grid, ``lattice_sequence`` on a window, ``group_field`` on SU(2).
Random families draw from a caller-supplied numpy Generator so a config's
seed pins the whole corpus.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .grids import LatticeWindow, SampledField, UniformGrid, require_int, require_real
from .group import su2_irrep_table

__all__ = [
    "hermite_function",
    "gaussian_profile",
    "euclid_field",
    "lattice_sequence",
    "group_field",
    "random_gaussian_mix",
    "spec_needs_rng",
]

# Families whose output depends on the generator; configs using them must
# carry a seed. A tuple, so that a family given as a list or an object is
# simply not random rather than unhashable.
_RANDOM_FAMILIES = ("random_mix", "random_bandlimited")

# The keys each family reads besides "family"; any other key is rejected
# rather than ignored.
_FIELD_KEYS = {
    "gaussian": ("center", "width"),
    "hermite": ("k",),
    "delta": ("node",),
    "trigpoly": ("coeffs",),
    "constant": ("value",),
    "random_mix": ("terms",),
}
_SEQUENCE_KEYS = {
    "gaussian": ("center", "width"),
    "delta": ("at",),
    "constant": ("value",),
    "random_mix": (),
}
_GROUP_KEYS = {"constant": ("value",), "matrix_entry": ("twoL", "i", "j"), "random_bandlimited": ()}


def spec_needs_rng(spec: dict) -> bool:
    return isinstance(spec, dict) and spec.get("family") in _RANDOM_FAMILIES


def gaussian_profile(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """exp(-pi ((x - center)/width)^2), unit peak."""
    center = require_real(center, "gaussian center")
    width = require_real(width, "gaussian width", 0.0, np.inf, include_lo=False)
    return np.exp(-np.pi * ((x - center) / width) ** 2)


def hermite_function(k: int, x: np.ndarray) -> np.ndarray:
    """L^2-orthonormal Hermite function in the exp(-pi x^2) convention.

    psi_k(x) = 2^{1/4} (2^k k!)^{-1/2} H_k(sqrt(2 pi) x) e^{-pi x^2} with the
    physicists' H_k; these are eigenfunctions of the e^{-2*pi*i*x*xi}
    transform with eigenvalue (-i)^k.
    """
    k = require_int(k, "hermite order", least=0)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    hk = np.polynomial.hermite.hermval(np.sqrt(2.0 * np.pi) * x, coeffs)
    norm = 2.0**0.25 / math.sqrt(2.0**k * math.factorial(k))
    return norm * hk * np.exp(-np.pi * x**2)


def _point(value, key: str, dim: int, check) -> list:
    """A point as a list of exactly dim coordinates, each through ``check``; anything else raises."""
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(f"{key} must be a list of {dim} coordinates, one per axis, got {value!r}")
    return [check(v, key) for v in value]


def _gaussian(pts: np.ndarray, spec: dict) -> np.ndarray:
    """Product over axes of gaussian_profile at the points; a scalar center
    applies to every axis, a list gives one coordinate per axis."""
    dim = pts.shape[1]
    center = spec.get("center", 0.0)
    centers = _point(center if isinstance(center, list) else [center] * dim, "center", dim, require_real)
    width = require_real(spec.get("width", 1.0), "width")
    vals = np.ones(pts.shape[0])
    for ax in range(dim):
        vals = vals * gaussian_profile(pts[:, ax], centers[ax], width)
    return vals


def _family(spec, what: str, keys: dict) -> str:
    """The family of a spec; ``keys`` maps each known family to the keys it
    reads, and the spec may carry no others."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValidationError(f"{what} spec must be a dict with a 'family' key, got {spec!r}")
    fam = spec["family"]
    if not isinstance(fam, str) or fam not in keys:
        raise ValidationError(f"unknown {what} family {fam!r}")
    unknown = sorted(set(spec) - {"family", *keys[fam]})
    if unknown:
        raise ValidationError(f"{what} family {fam!r}: unknown keys {unknown}")
    return fam


def _complex_of(value, name: str) -> complex:
    """A real config value, or a [re, im] pair of them, as a complex number."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(require_real(value[0], name), require_real(value[1], name))
    return complex(require_real(value, name))


def random_gaussian_mix(grid: UniformGrid, rng: np.random.Generator, terms: int = 3) -> np.ndarray:
    """Random complex mixture of Gaussians that decays inside a [-6, 6] box.

    Centers stay in [-1.5, 1.5] and widths in [0.8, 1.6] so edge values are
    below 1e-10 of the peak, keeping transforms and shifts trustworthy.
    """
    pts = grid.nodes
    out = np.zeros(grid.size, dtype=complex)
    for _ in range(require_int(terms, "terms", least=1)):
        c = rng.uniform(-1.5, 1.5, size=grid.dim)
        w = rng.uniform(0.8, 1.6, size=grid.dim)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        prof = np.ones(grid.size)
        for ax in range(grid.dim):
            prof = prof * gaussian_profile(pts[:, ax], c[ax], w[ax])
        out += amp * prof
    return out


def euclid_field(grid: UniformGrid, spec: dict, rng: np.random.Generator | None = None) -> SampledField:
    """Build a field on a continuum grid from a family spec."""
    fam = _family(spec, "field", _FIELD_KEYS)
    pts = grid.nodes
    if fam == "gaussian":
        return SampledField(grid, _gaussian(pts, spec))
    if fam == "hermite":
        if grid.dim != 1:
            raise ValidationError("hermite family is one-dimensional")
        return SampledField(grid, hermite_function(require_int(spec.get("k", 0), "k"), pts[:, 0]))
    if fam == "delta":
        node = require_int(spec.get("node", grid.size // 2), "node")
        if not (0 <= node < grid.size):
            raise ValidationError(f"delta node {node} outside [0, {grid.size})")
        vals = np.zeros(grid.size, dtype=complex)
        vals[node] = 1.0 / grid.weights[node]  # unit quadrature mass
        return SampledField(grid, vals)
    if fam == "trigpoly":
        if grid.dim != 1:
            raise ValidationError("trigpoly family is one-dimensional")
        coeffs = spec.get("coeffs", [1.0])
        if not isinstance(coeffs, list):
            raise ValidationError(f"trigpoly coeffs must be a list, got {coeffs!r}")
        coeffs = [_complex_of(c, "coeffs") for c in coeffs]
        if len(coeffs) % 2 != 1:
            raise ValidationError("trigpoly needs an odd coefficient count (-K..K)")
        K = len(coeffs) // 2
        vals = np.zeros(grid.size, dtype=complex)
        for j, c in zip(range(-K, K + 1), coeffs):
            vals += c * np.exp(2j * np.pi * j * pts[:, 0])
        return SampledField(grid, vals)
    if fam == "constant":
        return SampledField(grid, np.full(grid.size, _complex_of(spec.get("value", 1.0), "value")))
    # random_mix, the one family left
    if rng is None:
        raise ValidationError("random_mix family needs a seeded generator")
    return SampledField(grid, random_gaussian_mix(grid, rng, spec.get("terms", 3)))


def lattice_sequence(window: LatticeWindow, spec: dict, rng: np.random.Generator | None = None) -> SampledField:
    """Build a sequence on a lattice window from a family spec."""
    fam = _family(spec, "sequence", _SEQUENCE_KEYS)
    pts = window.nodes
    if fam == "gaussian":
        return SampledField(window, _gaussian(pts, spec))
    if fam == "delta":
        at = np.asarray(_point(spec.get("at", [0] * window.dim), "at", window.dim, require_int), dtype=float)
        match = np.all(pts == at[None, :], axis=1)
        if not match.any():
            raise ValidationError(f"delta point {at.tolist()} outside the window")
        vals = np.zeros(window.size, dtype=complex)
        vals[int(np.argmax(match))] = 1.0
        return SampledField(window, vals)
    if fam == "constant":
        return SampledField(window, np.full(window.size, _complex_of(spec.get("value", 1.0), "value")))
    # random_mix, the one family left
    if rng is None:
        raise ValidationError("random_mix family needs a seeded generator")
    vals = rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)
    return SampledField(window, vals)


def group_field(quad, spec: dict, cutoff_twoL: int, rng: np.random.Generator | None = None) -> SampledField:
    """Build a field on an SU(2) quadrature from a family spec; ``random_bandlimited``
    draws every irrep entry up to ``cutoff_twoL``."""
    fam = _family(spec, "group field", _GROUP_KEYS)
    if fam == "constant":
        return SampledField(quad, np.full(quad.size, _complex_of(spec.get("value", 1.0), "value")))
    if fam == "matrix_entry":
        twoL = require_int(spec.get("twoL", 1), "twoL")
        T = su2_irrep_table(quad, twoL)
        i, j = require_int(spec.get("i", 0), "i"), require_int(spec.get("j", 0), "j")
        for key, index in (("i", i), ("j", j)):
            if not 0 <= index <= twoL:
                raise ValidationError(f"matrix_entry.{key} = {index} outside 0..{twoL} (twoL)")
        return SampledField(quad, np.sqrt(twoL + 1) * T[:, i, j])
    # random_bandlimited, the one family left
    if rng is None:
        raise ValidationError("random_bandlimited family needs a seeded generator")
    vals = np.zeros(quad.size, dtype=complex)
    for twoL in range(require_int(cutoff_twoL, "cutoff_twoL", least=0) + 1):
        T = su2_irrep_table(quad, twoL)
        d = twoL + 1
        C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        vals += np.sqrt(d) * np.einsum("nij,ij->n", T, C)
    return SampledField(quad, vals)
