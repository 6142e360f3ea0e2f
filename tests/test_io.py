"""The JSON writer on complex ndarrays: the text of the `complex_pair` lists."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskit import io

# every finite double, with the edge cases drawn often: signed zeros,
# subnormals and the ends of the range
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     -1.7976931348623157e308]))


def _complex_array(re, im) -> np.ndarray:
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@st.composite
def _parts(draw, size=st.integers(0, 40)):
    k = draw(size)
    return (draw(st.lists(_FLOATS, min_size=k, max_size=k)),
            draw(st.lists(_FLOATS, min_size=k, max_size=k)))


class TestComplexArrays:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_parts())
    def test_vector_as_pair_list(self, parts):
        arr = _complex_array(*parts)
        assert io.dumps(arr) == io.dumps([io.complex_pair(z) for z in arr])
        assert io.dumps({"entries": arr}) == io.dumps({"entries": io.cvec_to_json(arr)})

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(1, 5), _parts(st.just(20)))
    def test_matrix_row_by_row(self, rows, parts):
        arr = _complex_array(*parts)[:rows * (20 // rows)].reshape(rows, -1)
        assert io.dumps(arr) == io.dumps(io.cmat_to_json(arr))

    def test_signed_zeros_and_exact_zeros(self):
        arr = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), 0j, complex(5e-324, -1e308)])
        assert io.dumps(arr) == "[[-0, 0], [0, -0], [0, 0], [4.9406564584124654e-324, -1e+308]]"

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                     complex(math.inf, 1.0), complex(1.0, -math.inf)])
    @pytest.mark.parametrize("shape", [(5,), (2, 5)])
    def test_non_finite_refused(self, bad, shape):
        arr = np.full(shape, 0.25 + 0.5j)
        arr.reshape(-1)[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            io.dumps({"entries": arr})
        with pytest.raises(ValueError, match="non-finite"):
            io.complex_texts(arr)
