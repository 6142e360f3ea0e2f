"""Exact particle-basis constructions on a total-number-truncated window.

The basis over n modes with cutoff N is every occupation tuple t with
|t| <= N in graded lexicographic order (by |t|, then lex).  In that
order creation-side matrices are lower triangular and second
quantizations are block diagonal, so every operator window, which
general_truncate builds from a 6-tuple (c, alpha, beta, A, Lambda, B) as
c E_left Gamma(Lambda) E_right^T, is exact entrywise (no truncation error
inside the window).  dmf and z1_matrix name their 6-tuples.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import io
from .config import DEFAULT_TOL
from .errors import InvalidStateError
from .params import E2Params, GeneralE2Params, normalization_c

__all__ = [
    "multi_factorial",
    "multi_binomial",
    "basis_indices",
    "basis_index_map",
    "check_memory",
    "check_window",
    "phi",
    "gamma_matrix",
    "e_a_matrix",
    "dmf",
    "matrix_element",
    "pure_state_vector",
    "z1_matrix",
    "general_truncate",
    "TruncatedOperator",
    "TruncatedVector",
    "psd_sqrt",
]


# ---------------------------------------------------------------------------
# multi-index conventions


def multi_factorial(t) -> int:
    """t! = prod_j t_j!"""
    out = 1
    for x in t:
        out *= math.factorial(int(x))
    return out


def multi_binomial(t, s) -> int:
    """binom(t, s) componentwise; zero unless s <= t componentwise."""
    out = 1
    for a, b in zip(t, s):
        if b > a or b < 0:
            return 0
        out *= math.comb(int(a), int(b))
    return out


def _degree_indices(n: int, deg: int) -> list[tuple]:
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        out.extend((first,) + rest for rest in _degree_indices(n - 1, deg - first))
    return out


# ---------------------------------------------------------------------------
# index structure of a window
#
# Everything a window needs that depends only on (n, cutoff) is built once
# per shape, part by part on first use, and the last _SHAPES shapes stay
# cached; a state then costs a few numpy gathers over those index arrays.
# Each entry is rounded exactly as the scalar evaluation of its formula in
# Python complex numbers would round it (for finite values), so window
# bytes do not depend on how the work is vectorized.  Four rules keep it so:
# 1. numpy's complex x complex array multiply is a SIMD loop with fused
#    multiply-adds and rounds differently from the scalar product, so a
#    product of complex scalars is written out on float arrays:
#    (xr*yr - xi*yi, xr*yi + xi*yr).
# 2. A Python complex divided by a float is divided part by part, while
#    numpy (scalar or array) multiplies by the reciprocal.  In the displaced
#    coefficient sum the k = 0 term is the former and every other term the
#    latter.
# 3. gamma_matrix makes one complex product per sector and mode i, and
#    materializes both operands as contiguous arrays of one shape, each held
#    by a name: the coefficients Lambda_ji sqrt(l_i) (complex by real, so
#    one rounding per part in any loop) and the gathered lowered entries.
#    numpy runs a product with a broadcast operand, or one computed in place
#    into a temporary operand (it does so for temporaries above 256 KiB),
#    through another loop, which rounds the last bit differently.  Each
#    entry adds its terms from +0 in ascending i; such a sum is never -0,
#    so the zero terms skipped (rows with Lambda_ji = 0, columns with
#    l_i = 0) or added would leave it bit for bit unchanged.
# 4. phi_B(t) takes B_ij^r as numpy scalar powers and multiplies them over
#    R's nonzero cells in cell order from 1 (rule 1), scales each product by
#    2^(|R| - tr R) times the rounded 1/R! (exact: a power of two), sums the
#    terms in Delta(t)'s depth-first order from +0 and scales the sum by
#    sqrt(t!).  A sum from +0 is never -0, so the scalar complex-by-real
#    products, which differ from real scalings only in the sign of zero
#    parts, round to the same values.
# 5. general_truncate scales the unnamed product, c * (X @ E_right^T), which
#    numpy computes in place into that temporary above 256 KiB.  Scaling a
#    named array (mat = c * mat, mat *= c, np.multiply(c, mat, out=mat))
#    runs another loop and moves pinned bytes.

_SHAPES = 16  # (n, cutoff) shapes whose index structure stays cached


class _Shape:
    """Index structure of the window over n modes with |t| <= cutoff."""

    def __init__(self, n: int, cutoff: int):
        self.n = n
        self.cutoff = cutoff

    @cached_property
    def basis(self) -> tuple:
        return tuple(t for deg in range(self.cutoff + 1) for t in _degree_indices(self.n, deg))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def sqrt_fact(self) -> np.ndarray:
        """sqrt(t!) per basis index."""
        return np.array([math.sqrt(multi_factorial(t)) for t in self.basis])

    @cached_property
    def occupations(self) -> np.ndarray:
        """The basis as a (dim, n) integer array."""
        return np.array(self.basis, dtype=np.int64).reshape(self.dim, self.n)

    @cached_property
    def count_upto(self) -> np.ndarray:
        """count_upto[r, m] = C(r + m, m), the number of tuples over m modes
        with |t| <= r, for r <= cutoff and m <= n (at most dim)."""
        return np.array([[math.comb(r + m, m) for m in range(self.n + 1)]
                         for r in range(self.cutoff + 1)], dtype=np.int64)

    def index_of(self, occ: np.ndarray) -> np.ndarray:
        """Basis index of each row of `occ` (occupations with |t| <= cutoff).

        The tuples before t of degree d are the count_upto[d - 1, n] of lower
        degree, and, for each mode j < n - 1, those of degree d that agree
        with t on the modes before j and hold fewer than t_j in mode j:
        count_upto[r, m] - count_upto[r - t_j, m], with m = n - 1 - j modes
        after j and r = d - t_0 - ... - t_(j-1).
        """
        n, count = self.n, self.count_upto
        rem = occ.sum(axis=1)
        index = np.where(rem > 0, count[rem - 1, n], 0)
        for j in range(n - 1):
            m = n - 1 - j
            index += count[rem, m] - count[rem - occ[:, j], m]
            rem = rem - occ[:, j]
        return index

    @cached_property
    def delta(self) -> tuple:
        """Delta(t) for every t of the basis, as _delta lays it out."""
        return _delta(self.occupations)

    @cached_property
    def pairs(self) -> tuple:
        """Every pair s <= t: index arrays of t, s and t - s, and sqrt(t!/s!).

        Sorted by the position of s in t's `product` order, then by t; the
        last item lists each position's run [lo, hi), so run 0 holds s = 0
        for every t in basis order, and the runs after it add each t's
        terms in `product` order.
        """
        occ = self.occupations
        # s = basis[i] pairs with every d = t - s of degree <= cutoff - |s|,
        # a prefix of the graded basis
        counts = self.count_upto[self.cutoff - occ.sum(axis=1), self.n]
        cols = np.repeat(np.arange(self.dim), counts)
        diffs = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        t = occ[cols] + occ[diffs]
        rows = self.index_of(t)
        pos = np.zeros(len(rows), dtype=np.int64)  # mixed radix, last mode fastest
        for j in range(self.n):
            pos = pos * (t[:, j] + 1) + occ[cols, j]
        order = np.lexsort((rows, pos))
        rows, cols, diffs, pos = rows[order], cols[order], diffs[order], pos[order]
        edges = np.searchsorted(pos, np.arange(pos[-1] + 2))
        return (rows.astype(np.int32), cols.astype(np.int32), diffs.astype(np.int32),
                self.sqrt_fact[rows] / self.sqrt_fact[cols],
                list(zip(edges[:-1].tolist(), edges[1:].tolist())))

    @cached_property
    def powers(self) -> tuple:
        """Per mode j, the basis indices of k with k_j > 0 and those k_j;
        then 1/k! per basis index."""
        per_mode = []
        for occ in self.occupations.T:
            sel = np.flatnonzero(occ)
            per_mode.append((sel, occ[sel]))
        return per_mode, np.array([1.0 / float(multi_factorial(k)) for k in self.basis])

    @cached_property
    def gamma_sectors(self) -> list:
        """Per degree m = 1..cutoff: the sector's basis slice [lo, hi); per
        row k its first occupied mode j, the row of k - e_j in the sector
        below and sqrt(k_j); and per mode i the columns l with l_i > 0 as
        (columns, column of l - e_i in the sector below, sqrt(l_i))."""
        out = []
        below, lo = 0, 1
        for deg in range(1, self.cutoff + 1):
            hi = lo + math.comb(self.n + deg - 1, self.n - 1)
            sector = self.occupations[lo:hi]

            def lowered(sel, i):  # i: one mode, or one per row of sel
                occ = sector[sel].copy()
                occ[np.arange(len(sel)), i] -= 1
                return self.index_of(occ) - below, np.sqrt(sector[sel, i])

            first = np.argmax(sector > 0, axis=1)
            cols = [(sel, *lowered(sel, i))
                    for i, sel in enumerate(map(np.flatnonzero, sector.T))]
            out.append((lo, hi, first, *lowered(np.arange(hi - lo), first), cols))
            below, lo = lo, hi
        return out


@lru_cache(maxsize=_SHAPES)
def _shape(n: int, cutoff: int) -> _Shape:
    return _Shape(n, cutoff)


def basis_indices(n: int, cutoff: int) -> list[tuple]:
    """All t with |t| <= cutoff, graded lexicographic (a new list each call)."""
    if n < 1 or cutoff < 0:
        raise ValueError("need n >= 1 and cutoff >= 0")
    return list(_shape(n, cutoff).basis)


_MAX_CUTOFF = 170  # 171! overflows a double, and the window scales rows by sqrt(t!)
_LIVE_MATRICES = 4  # dim x dim complex arrays budgeted per window: general_truncate holds 3
_PAIR_BYTES = 128  # per pair s <= t: its cached index arrays and one state's temporaries


def check_memory(nbytes: int, what: str) -> None:
    """Refuse with a ValueError, before allocating, arrays of `nbytes` beyond
    this machine's physical memory; `what` names them in the message."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if nbytes > memory:
        raise ValueError(f"{what} would not fit in this machine's "
                         f"{memory / 2**30:.4g} GiB of memory")


def check_window(n: int, cutoff: int, square: bool = True) -> None:
    """Refuse a window that cannot be built, before anything is enumerated.

    dim = C(n + cutoff, n) and the number of pairs s <= t in the window,
    C(2n + cutoff, 2n), are known up front.  Refused with a ValueError:
    cutoff above 170, where the factorials overflow, and a window whose
    dense arrays (dim x dim when `square`, else dim) and index structure
    exceed physical memory.
    """
    if cutoff > _MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} is above {_MAX_CUTOFF}: "
                         "the window's factorials overflow double precision")
    if n < 1 or cutoff < 0:
        raise ValueError("need n >= 1 and cutoff >= 0")
    dim = math.comb(n + cutoff, n)
    pairs = math.comb(2 * n + cutoff, 2 * n)
    check_memory(16 * dim * (_LIVE_MATRICES * dim if square else 1) + _PAIR_BYTES * pairs,
                 f"window of {n} modes at cutoff {cutoff} has dimension {dim}: "
                 "its dense arrays and index structure")


def _window_shape(n: int, cutoff: int, square: bool = True) -> _Shape:
    check_window(n, cutoff, square)
    return _shape(n, cutoff)


def basis_index_map(basis: list[tuple]) -> dict[tuple, int]:
    return {t: i for i, t in enumerate(basis)}


# ---------------------------------------------------------------------------
# Delta(t) and phi_B


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Position of each entry of a sorted array among the entries equal to it."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


def _delta(occ: np.ndarray) -> tuple:
    """Delta(t) per row t of `occ`: the upper-triangular nonnegative integer
    matrices R with r~(R) = t, where r~(R)_i sums row i from the diagonal on
    and column i up to it, so diagonal cells count twice.

    Built cell by cell in row-major upper-triangle order, each partial
    matrix branching on the cell's value in ascending order, so each t's
    matrices come out in depth-first order (`oracles.enumerate_delta`).
    Returned for _phi: the (i, j, r) of each power B_ij^r used; per k, the
    matrices with a k-th nonzero cell and the index of its power;
    2^(|R| - tr R) / R! per matrix; and a width and each matrix's place in a
    (len(occ), width) array: row t, column 1 + its rank in Delta(t).
    """
    n = occ.shape[1]
    owner = np.flatnonzero(occ.sum(axis=1) % 2 == 0)  # Delta(t) is empty for odd |t|
    rem = occ[owner].astype(np.int16)  # each t_j <= 170, or t! would overflow
    steps = []
    for i in range(n):
        left = rem.any(axis=0).tolist()  # remainders only shrink: a spent index stays spent
        for j in range(i, n):
            weight = 1 + (i == j)  # of the cell in t_i
            if j < n - 1:
                if not (left[i] and left[j]):
                    continue
                cap = np.minimum(rem[:, i], rem[:, j]) // weight
                if not cap.any():
                    continue  # every partial matrix takes 0 here
                parent = np.repeat(np.arange(len(rem)), cap + 1)
                v = _ranks(parent)
            else:  # no later cell touches index i: this one takes what is left of t_i
                if not left[i]:
                    continue
                v = rem[:, i] // weight
                parent = np.flatnonzero((weight * v == rem[:, i]) & (v <= rem[:, j]))
                v = v[parent]
            rem = rem[parent]
            rem[:, i] -= v
            rem[:, j] -= v
            steps.append((i * n + j, parent, v))
    # trace each finished matrix back through the steps to its nonzero cells
    matrix = np.arange(len(rem))
    entries = [(matrix[:0],) * 3]  # empty, so that no cells still concatenate
    for ij, parent, v in reversed(steps):
        val = v[matrix]
        nz = val.nonzero()[0]
        entries.append((np.full(len(nz), ij), nz, val[nz]))
        matrix = parent[matrix]
    ij, mats, val = (np.concatenate(x[::-1]) for x in zip(*entries))  # in cell order
    top = int(val.max(initial=0)) + 1
    codes, key = np.unique(ij * top + val, return_inverse=True)
    den = np.ones(len(matrix), dtype=object)
    np.multiply.at(den, mats, np.array([math.factorial(r) for r in range(top)], dtype=object)[val])
    off_diag = np.bincount(mats, weights=val * (ij // n != ij % n), minlength=len(matrix))
    order = np.argsort(mats, kind="stable")
    slot = np.empty_like(mats)
    slot[order] = _ranks(mats[order])  # k: the entry's place among its matrix's cells
    owner = owner[matrix]
    rank = _ranks(owner)
    width = 2 + int(rank.max(initial=-1))
    return ((codes // top // n, codes // top % n, codes % top),
            [(mats[slot == k], key[slot == k]) for k in range(slot.max(initial=-1) + 1)],
            np.ldexp((1 / den).astype(float), off_diag.astype(np.int64)),
            width, owner * width + 1 + rank)


def _phi(b: np.ndarray, delta: tuple, sqrt_fact: np.ndarray) -> np.ndarray:
    """phi_B(t) for every t that `delta` (from _delta) covers, given sqrt(t!),
    rounded by rule 4."""
    (pi, pj, pr), slots, scale, width, place = delta
    pw = np.array([x ** r for x, r in zip(b[pi, pj], pr.tolist())], dtype=complex)
    cr, ci = np.ones(len(scale)), np.zeros(len(scale))
    for rows, key in slots:
        xr, xi, yr, yi = cr[rows], ci[rows], pw.real[key], pw.imag[key]
        cr[rows], ci[rows] = xr * yr - xi * yi, xr * yi + xi * yr
    terms = np.zeros((2, len(sqrt_fact) * width))
    terms[:, place] = cr * scale, ci * scale  # row t: +0, its terms in order, +0 padding
    tr, ti = np.cumsum(terms.reshape(2, -1, width), axis=2)[:, :, -1]
    return _complex(sqrt_fact * tr, sqrt_fact * ti)


def phi(b, t) -> complex:
    """phi_B(t) = sqrt(t!) sum over Delta(t) of 2^(|R|-tr R) B^R / R!.

    Zero whenever |t| is odd.  B must be complex symmetric.
    """
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if np.abs(b - b.T).max() > 1e-12 * (1.0 + np.abs(b).max()):
        raise ValueError("B must be symmetric")
    t = tuple(int(x) for x in t)
    if len(t) != b.shape[0]:
        raise ValueError(f"t must hold {b.shape[0]} occupation numbers, one per row of B; "
                         f"got {len(t)}")
    return _phi_entry(b, t)


def _phi_entry(b: np.ndarray, t: tuple) -> complex:
    if any(x < 0 for x in t):
        raise ValueError("occupation numbers must be nonnegative")
    if sum(t) % 2:
        return 0j  # Delta(t) is empty
    root = np.array([math.sqrt(multi_factorial(t))])  # OverflowError past t_j = 170
    return complex(_phi(b, _delta(np.array([t], dtype=np.int64)), root)[0])


# ---------------------------------------------------------------------------
# second quantization in the particle basis


def gamma_matrix(lam, cutoff: int) -> np.ndarray:
    """Block-diagonal matrix of Gamma(Lambda) on the truncated window.

    Degree by degree, by one-particle removal: with j the first occupied
    mode of row k, <k|Gamma|l> = sum_i Lambda_ji sqrt(l_i)
    <k - e_j|Gamma|l - e_i> / sqrt(k_j), one product per mode i over every
    row with Lambda_ji != 0 and every column with l_i > 0 at once (rule 3).
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    shape = _window_shape(lam.shape[0], cutoff)
    out = np.zeros((shape.dim, shape.dim), dtype=complex)
    out[0, 0] = 1.0
    prev = out[:1, :1]
    for lo, hi, first, parent, root, cols in shape.gamma_sectors:
        acc = out[lo:hi, lo:hi]  # sums from +0
        lam_rows = lam[first]  # Lambda_ji per row k and mode i
        for i, (valid, back, sqrt_l) in enumerate(cols):
            rows = lam_rows[:, i].nonzero()[0]
            if not len(rows):
                continue
            coef = lam_rows[rows, i][:, None] * sqrt_l
            lowered = prev[parent[rows][:, None], back]
            acc[rows[:, None], valid] += coef * lowered
        acc /= root[:, None]
        prev = acc
    return out


def psd_sqrt(lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root with eigenvalues clamped at zero."""
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    evals, evecs = np.linalg.eigh(0.5 * (lam + lam.conj().T))
    if evals[0] < -max(tol, 1e-12) * (1.0 + abs(evals[-1])):
        raise ValueError("Lambda is not positive semidefinite")
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    return 0.5 * (root + root.conj().T)


# ---------------------------------------------------------------------------
# truncated carriers


@dataclass(frozen=True)
class _Window:
    """Dense entries with one graded-basis index per axis, |t| <= cutoff.

    JSON holds the entries flat and row-major as [re, im] pairs; CSV has one
    row per index tuple, with columns t1..tn (and s1..sn for a second axis).
    """

    n: int
    cutoff: int
    basis: tuple
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _index_map(self) -> dict[tuple, int]:
        return basis_index_map(self.basis)

    def index(self, t) -> int:
        return self._index_map[tuple(int(x) for x in t)]

    def element(self, *tuples) -> complex:
        """The entry at one occupation tuple per axis."""
        imap = self._index_map
        return complex(self.entries[tuple(imap[tuple(int(x) for x in t)] for t in tuples)])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "cutoff": self.cutoff, "basis": [list(t) for t in self.basis],
                "entries": np.asarray(self.entries, dtype=complex).reshape(-1)}

    def to_csv(self) -> str:
        cols = [f"{side}{j + 1}" for side in "ts"[:self.entries.ndim] for j in range(self.n)]
        labels = [",".join(map(str, t)) for t in self.basis]
        return io.csv_table(cols + ["re", "im"], labels, self.entries)


@dataclass(frozen=True)
class TruncatedOperator(_Window):
    """Dense matrix over the graded particle basis with |t| <= cutoff."""

    hermitian: bool | None = None

    # also this class's own attributes: perfbench/spans.py wraps them in place
    index, element = _Window.index, _Window.element
    to_json_dict, to_csv = _Window.to_json_dict, _Window.to_csv

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def dagger(self) -> "TruncatedOperator":
        return TruncatedOperator(self.n, self.cutoff, self.basis,
                                 self.entries.conj().T.copy(), self.hermitian)


@dataclass(frozen=True)
class TruncatedVector(_Window):
    """Dense vector over the graded particle basis with |t| <= cutoff."""

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


# ---------------------------------------------------------------------------
# matrices of the factorization and the general window


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _coefficients(b: np.ndarray, mu: np.ndarray, shape: _Shape) -> np.ndarray:
    """f(x) = sum_{k <= x} mu^k / k! * phi_B(x - k) / sqrt((x - k)!) per basis index.

    Each x adds its terms in `product` order over k, k = 0 first; the
    k = 0 term is phi_B(x) / sqrt(x!) divided part by part (rule 2).
    """
    phi_b = _phi(b, shape.delta, shape.sqrt_fact)
    out = _complex(phi_b.real / shape.sqrt_fact, phi_b.imag / shape.sqrt_fact)
    if not np.any(mu):
        return out
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    # mu^k = 1 * mu_0^k_0 * mu_1^k_1 * ... over the modes with k_j > 0 (rule 1)
    mr, mi = np.ones(shape.dim), np.zeros(shape.dim)
    per_mode, inv_fact = shape.powers
    for mj, (sel, exps) in zip(mu, per_mode):
        pw = np.array([mj ** e for e in range(shape.cutoff + 1)])
        xr, xi, yr, yi = mr[sel], mi[sel], pw.real[exps], pw.imag[exps]
        mr[sel], mi[sel] = xr * yr - xi * yi, xr * yi + xi * yr
    # the terms k != 0: (mu^k / k!) * phi_B(x - k) / sqrt((x - k)!), both
    # divisions by reciprocals (rule 2) and the product written out (rule 1)
    rows, cols, diffs, _, runs = shape.pairs
    first = runs[0][1]
    k, r = cols[first:], diffs[first:]
    ar, ai = (mr * inv_fact)[k], (mi * inv_fact)[k]
    br, bi = phi_b.real[r], phi_b.imag[r]
    inv_root = (1.0 / shape.sqrt_fact)[r]
    terms = _complex((ar * br - ai * bi) * inv_root, (ar * bi + ai * br) * inv_root)
    for lo, hi in runs[1:]:
        out[rows[lo:hi]] += terms[lo - first:hi - first]
    return out


def _creation_matrix(b: np.ndarray, mu: np.ndarray, shape: _Shape) -> np.ndarray:
    """Lower-triangular matrix E(t, s) = sqrt(t!/s!) f_{B,mu}(t - s) for s <= t."""
    f = _coefficients(b, mu, shape)
    rows, cols, diffs, ratio, _ = shape.pairs
    out = np.zeros((shape.dim, shape.dim), dtype=complex)
    out[rows, cols] = _complex(ratio * f.real[diffs], ratio * f.imag[diffs])
    return out


def e_a_matrix(a, cutoff: int) -> TruncatedOperator:
    """Matrix E_A(t, s) = sqrt(binom(t, s)) phi_A(t - s) for s <= t, else 0."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if np.abs(a - a.T).max() > 1e-12 * (1.0 + np.abs(a).max()):
        raise ValueError("A must be symmetric")
    shape = _window_shape(a.shape[0], cutoff)
    return TruncatedOperator(shape.n, cutoff, shape.basis, _creation_matrix(a, None, shape))


def dmf(a, lam, cutoff: int, tol: float = DEFAULT_TOL) -> TruncatedOperator:
    """Density matrix of the mean-zero state (A, Lambda) on the window.

    The window of the 6-tuple (c(A, Lambda), 0, 0, A, Lambda, conj(A)),
    so c(A, Lambda) E_A Gamma(Lambda) E_A^dagger; exact entrywise.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    zero = np.zeros(a.shape[0])
    c = normalization_c(zero, a, lam, tol)  # checks Lambda hermitian to tol, then M > 0
    lam = 0.5 * (lam + lam.conj().T)  # so that the tuple is self-adjoint and the window hermitian
    return _window(GeneralE2Params(c, zero, zero, a, lam, a.conj()), cutoff)


def matrix_element(a, lam, t, s, tol: float = DEFAULT_TOL) -> complex:
    """Single entry <t| rho(A, Lambda) |s> without building the window.

    rho's generating function is c(A, Lambda) exp(x^T Q x) in x = (u, v)
    with Q = [[A, Lambda/2], [Lambda^T/2, conj(A)]], so the entry is
    c(A, Lambda) phi_Q(t + s), the tuples joined end to end.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    t, s = tuple(int(x) for x in t), tuple(int(x) for x in s)
    for name, x in (("t", t), ("s", s)):
        if len(x) != a.shape[0]:
            raise ValueError(f"{name} must hold {a.shape[0]} occupation numbers, one per mode; "
                             f"got {len(x)}")
    c = normalization_c(np.zeros(a.shape[0]), a, lam, tol)
    q = np.block([[a, 0.5 * lam], [0.5 * lam.T, a.conj()]])
    return complex(c * _phi_entry(q, t + s))


def pure_state_vector(a, cutoff: int, tol: float = DEFAULT_TOL, mu=None) -> TruncatedVector:
    """|psi_{A,mu}> on the window; needs ||A|| < 1/2.

    Entries sqrt(c) sqrt(t!) f_{A,mu}(t), with f_{A,mu}(t) the u^t
    coefficient of exp(mu^T u + u^T A u) and c the state's normalization;
    for mu = 0 this is sqrt(c(A, 0)) phi_A(t).
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if np.linalg.norm(a, 2) >= 0.5:
        raise InvalidStateError("2A must be a strict contraction for a pure state")
    n = a.shape[0]
    shape = _window_shape(n, cutoff, square=False)
    zero = np.zeros((n, n))
    if not np.any(mu):
        root_c = math.sqrt(normalization_c(np.zeros(n), a, zero, tol))
        phi_a = _phi(a, shape.delta, shape.sqrt_fact)
        entries = _complex(root_c * phi_a.real, root_c * phi_a.imag)
    else:
        mu = np.asarray(mu, dtype=complex).reshape(-1)
        if mu.shape != (n,):
            raise ValueError("mu must hold one entry per mode")
        f = _coefficients(a, mu, shape)
        scale = math.sqrt(normalization_c(mu, a, zero, tol)) * shape.sqrt_fact
        entries = _complex(scale * f.real, scale * f.imag)
    return TruncatedVector(n, cutoff, shape.basis, entries)


def z1_matrix(p: E2Params, cutoff: int, tol: float = DEFAULT_TOL) -> TruncatedOperator:
    """Matrix of Z1 = sqrt(c) Gamma(sqrt(Lambda)) exp(conj(mu)^T a + a^T conj(A) a).

    The window of the 6-tuple (sqrt(c), 0, conj(mu), 0, sqrt(Lambda),
    conj(A)); Z1^dagger Z1 reproduces the positive operator with
    parameters p exactly on the window.
    """
    return general_truncate(GeneralE2Params(math.sqrt(p.c), np.zeros(p.n), p.mu.conj(),
                                            np.zeros((p.n, p.n)), psd_sqrt(p.lam, tol),
                                            p.a.conj()), cutoff)


def general_truncate(p: GeneralE2Params, cutoff: int) -> TruncatedOperator:
    """Window matrix of any 6-tuple element: entries <r|Z|s> from its power series.

    Assembled as c * (E_left Gamma(Lambda)) E_right^T with E_left built
    from (A, alpha) and E_right from (B, beta); exact on the window because
    the left factor lowers, Gamma preserves and the right factor raises the
    particle number.  Built in that order, at most three dense dim x dim
    arrays are alive at once.
    """
    return _window(p, cutoff)


def _window(p: GeneralE2Params, cutoff: int) -> TruncatedOperator:
    """general_truncate's body.  dmf calls it rather than general_truncate:
    perfbench/spans.py traces both names, and a dmf build is one window."""
    shape = _window_shape(p.n, cutoff)
    mat = _creation_matrix(p.a, p.alpha, shape) @ gamma_matrix(p.lam, cutoff)
    # rule 5: c scales the unnamed product, in place
    mat = p.c * (mat @ _creation_matrix(p.b, p.beta, shape).T)
    herm = None
    if p.is_self_adjoint(1e-12):
        mat = 0.5 * (mat + mat.conj().T)
        herm = True
    return TruncatedOperator(p.n, cutoff, shape.basis, mat, hermitian=herm)
