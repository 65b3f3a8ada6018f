"""The block formatter prints every row exactly as ``"%.17g,...\\n" % row`` does."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclock.csv17 import BLOCK_ROWS, format_csv


def printf_csv(columns) -> str:
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    return "".join(["t,P,p\n"] + [row_format % row for row in rows])


def hard_values(rng: np.random.Generator) -> np.ndarray:
    """Values that probe every branch of the formatter, both signs, shuffled."""
    decades = 10.0 ** rng.uniform(-6, 18, 20_000)
    powers = 10.0 ** np.arange(-6, 19)
    neighbours = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # m / 4 with 1e15 <= m / 4 < 2^51 and m odd has 18 significant digits
    # ending in 5: an exact tie at 17 digits, which "%.17g" rounds half to even.
    ties = rng.integers(4 * 10**15, 2**53, 5_000) / 4.0
    quarters = rng.integers(-(2**53) + 1, 2**53, 5_000) / 4.0
    integers = rng.integers(-(10**17), 10**17, 5_000).astype(np.float64)
    small_integers = rng.integers(-(10**6), 10**6, 5_000).astype(np.float64)
    values = np.concatenate([decades, neighbours, ties, quarters, integers, small_integers])
    values *= rng.choice([-1.0, 1.0], values.size)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                        np.inf, -np.inf, np.nan, 1e-4, 1e16, 9999999999999998.0])
    values = rng.permutation(np.concatenate([values, special]))
    return values[: values.size // 3 * 3]


def power_neighbour(k: int, step: int, sign: float) -> float:
    """sign 10^k, or its neighbour below (step -1) or above (step 1)."""
    x = 10.0**k
    return sign * float(np.nextafter(x, step * np.inf) if step else x)


FLOATS = st.one_of(
    st.builds(lambda m, k, sign: sign * m * 10.0**k, st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-6, 18), st.sampled_from([-1.0, 1.0])),
    st.builds(power_neighbour, st.integers(-6, 18), st.integers(-1, 1),
              st.sampled_from([-1.0, 1.0])),
    st.integers(-(2**53) + 1, 2**53 - 1).map(lambda m: m / 4.0),
    st.integers(-(10**18), 10**18).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-4, 1e16]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.tuples(FLOATS, FLOATS, FLOATS), min_size=1, max_size=40))
def test_rows_of_any_floats(rows):
    columns = np.array(rows, dtype=np.float64).T
    assert format_csv("t,P,p", columns) == printf_csv(columns)


@pytest.mark.parametrize("seed", [1, 2])
def test_hard_values_across_blocks(seed):
    columns = hard_values(np.random.default_rng(seed)).reshape(-1, 3).T
    assert columns.shape[1] > 10 * BLOCK_ROWS
    assert format_csv("t,P,p", columns) == printf_csv(columns)


def test_no_rows_is_the_header_alone():
    assert format_csv("t,P,p", np.empty((3, 0))) == "t,P,p\n"


def test_no_value_rounds_up_to_the_next_decade():
    # The formatter never carries 17 rounded digits of 10^17 into E + 1:
    # below each 10^m the nearest double is too far from it to round up.
    for m in range(-3, 17):
        power = Fraction(10) ** m
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        gap = Fraction(10) ** 17 - Fraction(below) * Fraction(10) ** (17 - m)
        assert gap > Fraction(1, 2), m
