"""The array writer: JSON pair lists and CSV rows of complex ndarrays.

`io._number` defines a number's text; the writer must give the same bytes
for every finite double, in JSON and in CSV.
"""

import math
import os
import platform
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskit import _writer, io
from gausskit.fock import dmf, general_truncate, pure_state_vector
from gausskit.params import GeneralE2Params

from conftest import random_psd, random_state, random_symmetric

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
            io.csv_table(["t", "re", "im"], [str(i) for i in range(5)], arr)


def _texts(x) -> tuple[list[str], list[str]]:
    """The writer's text of each float of x, and of x reversed: the real and
    imaginary columns of a CSV of x + i x[::-1]."""
    x = np.asarray(x, dtype=float).reshape(-1)
    rows = io.csv_table([], ["t"] * len(x), _complex_array(x, x[::-1])).splitlines()[1:]
    return [r.split(",")[1] for r in rows], [r.split(",")[2] for r in rows]


def _assert_written(x) -> None:
    x = np.asarray(x, dtype=float).reshape(-1)
    re, im = _texts(x)
    assert re == [io._number(v) for v in x.tolist()]
    assert im == [io._number(v) for v in x[::-1].tolist()]


def _exact_ties() -> list[float]:
    """Doubles q / 2^j whose exact decimal expansion, q 5^j / 10^j with q
    odd, has 18 significant digits: the 17th digit is an exact tie."""
    rng = np.random.default_rng(5)
    out = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        for q in {lo, hi - 1, *(int(v) for v in rng.integers(lo, hi, size=20))}:
            q |= 1
            if q < hi and len(str(q * 5 ** j)) == 18:
                out.append(q / 2 ** j)
    return out


class TestNumberWriter:
    """The writer against `io._number`, the scalar formatter that defines the text."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        _assert_written(x[np.isfinite(x)])

    def test_powers_of_ten_and_their_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        _assert_written(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                        -tens, [5e-324, 1.7976931348623157e308]]))

    def test_powers_of_two_subnormals_and_zeros(self):
        rng = np.random.default_rng(2)
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        subnormal = rng.integers(1, 2 ** 52, size=2000, dtype=np.uint64).view(np.float64)
        _assert_written(np.concatenate([twos, -twos, subnormal, -subnormal, [0.0, -0.0]]))

    def test_integers_up_to_2_60(self):
        rng = np.random.default_rng(3)
        edges = [2 ** j + d for j in range(61) for d in (-1, 0, 1)]
        edges += [10 ** j + d for j in range(19) for d in (-1, 0, 1)]
        _assert_written(np.concatenate([np.array(edges, dtype=float),
                                        rng.integers(0, 2 ** 60, size=5000).astype(float)]))

    def test_exact_ties_take_the_scalar_text(self):
        ties = _exact_ties()
        assert len(ties) > 300
        assert 1000000000000000.25 in ties
        _assert_written(ties + [-t for t in ties])
        assert _texts([1000000000000000.25])[0] == ["1000000000000000.2"]

    @pytest.mark.parametrize("size", [0, 1, _writer.BLOCK - 1, _writer.BLOCK, _writer.BLOCK + 1])
    def test_block_edges(self, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
        _assert_written(x)
        arr = _complex_array(x, -x)
        assert io.dumps(arr) == io.dumps([io.complex_pair(z) for z in arr])

    def test_non_finite_message(self):
        with pytest.raises(ValueError, match=r"^cannot write \(nan\+0j\): the output holds a "
                                             r"non-finite number$"):
            io.dumps(np.array([1.0, complex(math.nan, 0.0)]))


def _old_csv(window) -> str:
    """CSV rows as the per-entry f-string assembly over `product` wrote them."""
    axes = window.entries.ndim
    cols = [f"{side}{j + 1}" for side in "ts"[:axes] for j in range(window.n)]
    labels = [",".join(map(str, t)) for t in window.basis]
    flat = np.asarray(window.entries, dtype=complex).reshape(-1)
    re, im = map(io._number, flat.real.tolist()), map(io._number, flat.imag.tolist())
    rows = zip(map(",".join, product(labels, repeat=axes)), re, im)
    lines = [",".join(cols + ["re", "im"])] + [f"{k},{r},{i}" for k, r, i in rows]
    return "\n".join(lines) + "\n"


class TestCsvRows:
    def test_seeded_windows_match_old_rows(self, rng):
        zero = random_state(rng, 2, with_mean=False)
        n = 3
        six = GeneralE2Params(0.7 - 0.4j, 0.3 * rng.normal(size=n), 0.2j * rng.normal(size=n),
                              random_symmetric(rng, n), random_psd(rng, n),
                              random_symmetric(rng, n))
        displaced = random_state(rng, 2).as_general()
        windows = [dmf(zero.a, zero.lam, 6), general_truncate(displaced, 5),
                   general_truncate(six, 4), pure_state_vector(zero.a, 8),
                   pure_state_vector(random_symmetric(rng, 3), 5, mu=[0.2, -0.1j, 0.3])]
        for window in windows:
            assert window.to_csv() == _old_csv(window)


class TestDispatch:
    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="the variable names x86 features")
    def test_writer_text_without_avx2_or_avx512(self):
        """The writer's equality tests again, in a child process on numpy's
        baseline loops: the text must not depend on SIMD dispatch."""
        src = str(Path(io.__file__).resolve().parents[1])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3,X86_V4,AVX512_ICL",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, pytest\n"
                "from numpy._core._multiarray_umath import __cpu_features__ as features\n"
                "assert not features['X86_V3'] and not features['X86_V4']\n"
                "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1]]))\n")
        here = Path(__file__).resolve()
        done = subprocess.run([sys.executable, "-c", code, f"{here}::TestNumberWriter"],
                              env=env, cwd=here.parents[1], capture_output=True, text=True,
                              timeout=600)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
