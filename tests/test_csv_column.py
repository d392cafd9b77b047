"""The CSV writer's numeric fields are each value's Python `repr`.

`dataset._csv_column` writes the columns of every plot file and of
`serialize_records`. Whatever route it takes to the text, a float or integer
array must come out as `map(repr, arr.tolist())` would write it: repeats,
signed zeros, every NaN bit pattern as `nan`, infinities, subnormals, and the
switch to exponent form at 1e16.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from daval.dataset import _csv_column

_EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e16, -1e16, 9999999999999998.0, 1e16 + 2.0, 1e15, 123456789012345680.0,
    1e-4, 1e-5, 0.1, 1 / 3, 1.7976931348623157e308,
]
_floats = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # Any bit pattern: NaN payloads, both signs, subnormals.
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
)


def _repeated(elements):
    """Lists that repeat a few of their values many times."""
    return st.lists(elements, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=200)
    ) | st.lists(elements, max_size=60)


@settings(max_examples=200, deadline=None)
@given(_repeated(_floats), st.sampled_from([np.float64, np.float32]))
def test_float_fields_are_repr(values, dtype):
    with np.errstate(over="ignore"):
        arr = np.array(values, dtype=dtype)
    assert _csv_column(arr) == list(map(repr, arr.tolist()))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([np.int8, np.int32, np.int64, np.uint64]))
def test_integer_fields_are_repr(data, dtype):
    info = np.iinfo(dtype)
    edges = [info.min, info.max, 0, 1, -1 if info.min else 2, 10**15, 10**16]
    elements = st.sampled_from([int(v) for v in edges if info.min <= v <= info.max]) | st.integers(info.min, info.max)
    arr = np.array(data.draw(_repeated(elements)), dtype=dtype)
    assert _csv_column(arr) == list(map(repr, arr.tolist()))
