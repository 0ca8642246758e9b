"""Property test: ``ksum`` against ``math.fsum``, the exactly rounded sum."""

import math

import numpy as np
import pytest

from nucfio.grids import KahanSum, ksum
from ksum_oracles import NeumaierLanes

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# bounded so that no partial sum of 1000 terms overflows
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def cancelling(draw):
    """Large values, their exact negatives and a small remainder, shuffled:
    the total is the remainder's, far below the magnitudes summed."""
    big = draw(st.lists(finite, max_size=400))
    small = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=200))
    return draw(st.permutations(big + [-x for x in big] + small))


@st.composite
def absorbed(draw):
    """One value, then at least 200 values of its sign, each between an
    eighth and a quarter of its last place: a plain left-to-right sum rounds
    every one of them away and misses the total by at least 25 units."""
    sign = draw(st.sampled_from((-1.0, 1.0)))
    lead = sign * draw(st.floats(min_value=1.0, max_value=1e6))
    unit = math.ulp(lead)
    tail = st.floats(min_value=unit / 8, max_value=unit / 4).map(lambda x: sign * x)
    return [lead] + draw(st.lists(tail, min_size=200, max_size=999))


_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(st.one_of(st.lists(finite, max_size=1000), cancelling(), absorbed()))
def test_ksum_is_within_the_kahan_bound_of_fsum(values):
    # Kahan's error bound is (2 eps + O(n eps^2)) sum |x|, plus the final rounding
    bound = 4.0 * np.finfo(float).eps * math.fsum(abs(x) for x in values)
    assert abs(float(ksum(np.asarray(values, dtype=float))) - math.fsum(values)) <= bound


@_SETTINGS
@given(st.lists(st.integers(min_value=-(2**20), max_value=2**20), max_size=1000))
def test_ksum_is_exact_on_small_integers(values):
    # every partial sum is an integer below 2**30, so each step is exact
    assert float(ksum(np.asarray(values, dtype=float))) == math.fsum(values)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=3 * 16 * 1024 + 1100),
    st.sampled_from((float, complex)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=0, max_value=3 * 16 * 1024 + 1100), max_size=6),
)
def test_flat_lanes_keep_the_bits_of_one_neumaier_step_per_row(n, dtype, seed, cuts):
    # finite values over 60 decades fed at any cuts, past three chunks of
    # 16 lane rows: total, comp and value bit for bit against the oracle
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(2 * n) * 10.0 ** rng.integers(-30, 30, size=2 * n)).view(complex)
    values = values if dtype is complex else values.real.copy()
    got, want = KahanSum((), dtype), NeumaierLanes((), dtype)
    for block in np.split(values, sorted(c for c in cuts if c <= n)):
        got.add(block)
        want.add(block)
    assert got.total.tobytes() == want.total.tobytes()
    assert got.comp.tobytes() == want.comp.tobytes()
    assert got.value.tobytes() == want.value.tobytes()
