"""A large float column formats each distinct value once.

`dataset._csv_column` factorises a float64 column of at least
`_FACTOR_MIN_ROWS` values by bit pattern. Its text must still be
`map(repr, arr.tolist())`: repeats, signed zeros, every NaN payload as
`nan`, infinities and subnormals. Integer columns, which keep the plain map,
must give the same text too.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from daval import dataset
from daval.dataset import _FACTOR_MIN_ROWS, _csv_column

_NANS = np.array(
    [0x7FF0000000000001, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF, 0xFFF0000000000042],
    dtype=np.uint64,
).view(np.float64).tolist()
_EDGES = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, 0.1, *_NANS]
_floats = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
)
_ints = st.sampled_from([0, -1, 1, 2**63 - 1, -(2**63), 10**16]) | st.integers(-(2**63), 2**63 - 1)


@st.composite
def _columns(draw):
    """A float64 or int64 column of 1,024-3,000 values drawn from a pool of
    at most 64, so most values repeat."""
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    pool = np.array(draw(st.lists(_floats if dtype is np.float64 else _ints, min_size=1, max_size=64)),
                    dtype=dtype)
    n = draw(st.integers(_FACTOR_MIN_ROWS, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return pool[rng.integers(0, len(pool), n)]


@settings(max_examples=150, deadline=None)
@given(_columns())
def test_factorised_column_is_repr_of_each_value(arr):
    assert _csv_column(arr) == list(map(repr, arr.tolist()))


def test_factorised_column_calls_repr_once_per_bit_pattern(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    rng = np.random.default_rng(4)
    arr = np.array([0.0, -0.0, 0.1, math.inf, *_NANS])[rng.integers(0, 9, 2000)]
    monkeypatch.setattr(dataset, "repr", counted, raising=False)
    text = _csv_column(arr)
    monkeypatch.undo()
    assert text == list(map(repr, arr.tolist()))
    assert len(calls) == len(np.unique(arr.view(np.int64)))


def test_distinct_column_is_repr_of_each_value():
    arr = np.random.default_rng(5).random(4000)
    arr[::7] *= -1.0
    assert _csv_column(arr) == list(map(repr, arr.tolist()))
