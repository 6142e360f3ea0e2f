"""Exact particle-basis constructions on a total-number-truncated window.

The basis over n modes with cutoff N is every occupation tuple t with
|t| <= N in graded lexicographic order (by |t|, then lex).  In that
order the creation-side matrix E_A is lower triangular and second
quantizations are block diagonal, so the density-matrix factorization
c(A, Lambda) E_A Gamma(Lambda) E_A^dagger is exact entrywise on the
window (no truncation error inside the window).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from . import io
from .config import DEFAULT_TOL
from .core import c_factor
from .errors import InvalidStateError
from .params import E2Params, GeneralE2Params, is_valid_state, normalization_c

__all__ = [
    "multi_factorial",
    "multi_binomial",
    "basis_indices",
    "basis_index_map",
    "check_memory",
    "check_window",
    "enumerate_delta",
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


def basis_indices(n: int, cutoff: int) -> list[tuple]:
    """All t with |t| <= cutoff, graded lexicographic."""
    if n < 1 or cutoff < 0:
        raise ValueError("need n >= 1 and cutoff >= 0")
    out = []
    for deg in range(cutoff + 1):
        out.extend(_degree_indices(n, deg))
    return out


_MAX_CUTOFF = 170  # 171! overflows a double, and the window scales rows by sqrt(t!)
_LIVE_MATRICES = 4  # dim x dim complex arrays a window build holds at once


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

    dim = C(n + cutoff, n) is known up front.  Refused with a ValueError:
    cutoff above 170, where the factorials overflow, and a window whose
    dense arrays (dim x dim when `square`, else dim) exceed physical memory.
    """
    if cutoff > _MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} is above {_MAX_CUTOFF}: "
                         "the window's factorials overflow double precision")
    if n < 1 or cutoff < 0:
        raise ValueError("need n >= 1 and cutoff >= 0")
    dim = math.comb(n + cutoff, n)
    check_memory(16 * dim * (_LIVE_MATRICES * dim if square else 1),
                 f"window of {n} modes at cutoff {cutoff} has dimension {dim}: its dense arrays")


def _window_basis(n: int, cutoff: int, square: bool = True) -> list[tuple]:
    check_window(n, cutoff, square)
    return basis_indices(n, cutoff)


def basis_index_map(basis: list[tuple]) -> dict[tuple, int]:
    return {t: i for i, t in enumerate(basis)}


# ---------------------------------------------------------------------------
# Delta(t) and phi_B


def enumerate_delta(t) -> list[tuple]:
    """All upper-triangular nonnegative integer matrices R with r~(R) = t.

    r~(R)_i counts row i from the diagonal on plus column i up to the
    diagonal, so diagonal cells weigh twice.  Returned as tuples of row
    tuples in a fixed depth-first order; empty when |t| is odd.
    """
    t = tuple(int(x) for x in t)
    if any(x < 0 for x in t):
        raise ValueError("occupation numbers must be nonnegative")
    n = len(t)
    if sum(t) % 2:
        return []
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    r = [[0] * n for _ in range(n)]
    rem = list(t)
    out: list[tuple] = []

    def rec(ci: int) -> None:
        if ci == len(cells):
            out.append(tuple(tuple(row) for row in r))
            return
        i, j = cells[ci]
        closes_row = j == n - 1  # no later cell touches index i
        if i == j:
            for v in range(rem[i] // 2 + 1):
                if closes_row and rem[i] - 2 * v != 0:
                    continue
                r[i][i] = v
                rem[i] -= 2 * v
                rec(ci + 1)
                rem[i] += 2 * v
            r[i][i] = 0
        else:
            for v in range(min(rem[i], rem[j]) + 1):
                if closes_row and rem[i] - v != 0:
                    continue
                r[i][j] = v
                rem[i] -= v
                rem[j] -= v
                rec(ci + 1)
                rem[i] += v
                rem[j] += v
            r[i][j] = 0

    rec(0)
    return out


class _PhiTable:
    """phi_B values memoized per occupation tuple for one fixed B."""

    def __init__(self, b: np.ndarray):
        self.b = np.asarray(b, dtype=complex)
        self.memo: dict[tuple, complex] = {}

    def __call__(self, t: tuple) -> complex:
        val = self.memo.get(t)
        if val is None:
            val = _phi_direct(self.b, t)
            self.memo[t] = val
        return val


def _phi_direct(b: np.ndarray, t: tuple) -> complex:
    total = 0.0 + 0.0j
    for r in enumerate_delta(t):
        term_num = 1
        term_den = 1
        coeff = 1.0 + 0.0j
        tr = 0
        size = 0
        for i, row in enumerate(r):
            for j in range(i, len(row)):
                rij = row[j]
                if rij:
                    coeff *= b[i, j] ** rij
                    term_den *= math.factorial(rij)
                    size += rij
                    if i == j:
                        tr += rij
        total += (2 ** (size - tr)) * coeff * (term_num / term_den)
    return complex(math.sqrt(multi_factorial(t)) * total)


_PHI_TABLES: dict[bytes, _PhiTable] = {}


def _phi_table(b: np.ndarray) -> _PhiTable:
    b = np.asarray(b, dtype=complex)
    key = b.tobytes()
    table = _PHI_TABLES.get(key)
    if table is None:
        if len(_PHI_TABLES) > 128:
            _PHI_TABLES.clear()
        table = _PhiTable(b)
        _PHI_TABLES[key] = table
    return table


def phi(b, t) -> complex:
    """phi_B(t) = sqrt(t!) sum over Delta(t) of 2^(|R|-tr R) B^R / R!.

    Zero whenever |t| is odd.  B must be complex symmetric.
    """
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if np.abs(b - b.T).max() > 1e-12 * (1.0 + np.abs(b).max()):
        raise ValueError("B must be symmetric")
    return _phi_table(b)(tuple(int(x) for x in t))


# ---------------------------------------------------------------------------
# second quantization in the particle basis


def gamma_matrix(lam, cutoff: int, basis: list[tuple] | None = None) -> np.ndarray:
    """Block-diagonal matrix of Gamma(Lambda) on the truncated window."""
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    n = lam.shape[0]
    basis = basis if basis is not None else _window_basis(n, cutoff)
    dim = len(basis)
    out = np.zeros((dim, dim), dtype=complex)
    out[0, 0] = 1.0
    # per-degree blocks via the one-particle-removal recursion, vectorized
    offset = 1
    prev_idx = {(0,) * n: 0}
    prev_block = np.ones((1, 1), dtype=complex)
    for deg in range(1, cutoff + 1):
        sector = _degree_indices(n, deg)
        dim_m = len(sector)
        col_idx = {t: i for i, t in enumerate(sector)}
        # col_map[i][col] = previous-sector column of l - e_i (or -1)
        col_map = np.full((n, dim_m), -1, dtype=int)
        col_sqrt = np.zeros((n, dim_m))
        for ci, l in enumerate(sector):
            for i in range(n):
                if l[i] > 0:
                    lm = l[:i] + (l[i] - 1,) + l[i + 1:]
                    col_map[i, ci] = prev_idx[lm]
                    col_sqrt[i, ci] = math.sqrt(l[i])
        block = np.zeros((dim_m, dim_m), dtype=complex)
        for ri, k in enumerate(sector):
            j = next(i for i, x in enumerate(k) if x > 0)
            km = k[:j] + (k[j] - 1,) + k[j + 1:]
            prev_row = prev_block[prev_idx[km], :]
            acc = np.zeros(dim_m, dtype=complex)
            for i in range(n):
                if lam[j, i] == 0:
                    continue
                valid = col_map[i] >= 0
                acc[valid] += lam[j, i] * col_sqrt[i, valid] * prev_row[col_map[i, valid]]
            block[ri, :] = acc / math.sqrt(k[j])
        out[offset:offset + dim_m, offset:offset + dim_m] = block
        prev_idx = col_idx
        prev_block = block
        offset += dim_m
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
        axes = self.entries.ndim
        cols = [f"{side}{j + 1}" for side in "ts"[:axes] for j in range(self.n)]
        labels = [",".join(map(str, t)) for t in self.basis]
        re, im = io.complex_texts(self.entries)
        rows = zip(map(",".join, product(labels, repeat=axes)), re, im)
        lines = [",".join(cols + ["re", "im"])] + [f"{k},{r},{i}" for k, r, i in rows]
        return "\n".join(lines) + "\n"


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


def _coeff_table(b: np.ndarray, mu: np.ndarray, basis: list[tuple]) -> dict[tuple, complex]:
    """f(x) = sum_{k <= x} mu^k / k! * phi_B(x - k) / sqrt((x - k)!) for each x in basis."""
    table = _phi_table(b)
    out: dict[tuple, complex] = {}
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    plain = not np.any(mu)
    for x in basis:
        if plain:
            out[x] = table(x) / math.sqrt(multi_factorial(x))
            continue
        acc = 0.0 + 0.0j
        for k in product(*(range(xi + 1) for xi in x)):
            muk = 1.0 + 0.0j
            for mj, kj in zip(mu, k):
                if kj:
                    muk *= mj ** kj
            if muk == 0:
                continue
            rest = tuple(xi - ki for xi, ki in zip(x, k))
            acc += muk / multi_factorial(k) * table(rest) / math.sqrt(multi_factorial(rest))
        out[x] = acc
    return out


def _creation_matrix(a: np.ndarray, mu: np.ndarray, basis: list[tuple]) -> np.ndarray:
    """Lower-triangular matrix E(t, s) = sqrt(t!/s!) f_{A,mu}(t - s) for s <= t."""
    coeffs = _coeff_table(a, mu, basis)
    imap = basis_index_map(basis)
    dim = len(basis)
    out = np.zeros((dim, dim), dtype=complex)
    sqrt_fact = [math.sqrt(multi_factorial(t)) for t in basis]
    for ti, t in enumerate(basis):
        for s in product(*(range(x + 1) for x in t)):
            diff = tuple(a_ - b_ for a_, b_ in zip(t, s))
            if sum(diff) % 2 and not np.any(mu):
                continue
            si = imap[s]
            out[ti, si] = sqrt_fact[ti] / sqrt_fact[si] * coeffs[diff]
    return out


def e_a_matrix(a, cutoff: int) -> TruncatedOperator:
    """Matrix E_A(t, s) = sqrt(binom(t, s)) phi_A(t - s) for s <= t, else 0."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if np.abs(a - a.T).max() > 1e-12 * (1.0 + np.abs(a).max()):
        raise ValueError("A must be symmetric")
    n = a.shape[0]
    basis = _window_basis(n, cutoff)
    zero = np.zeros(n, dtype=complex)
    mat = _creation_matrix(a, zero, basis)
    return TruncatedOperator(n, cutoff, tuple(basis), mat)


def dmf(a, lam, cutoff: int, tol: float = DEFAULT_TOL) -> TruncatedOperator:
    """Density matrix formula: c(A, Lambda) E_A Gamma(Lambda) E_A^dagger.

    Mean-zero states only; exact entrywise on the truncated window.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    if not is_valid_state(a, lam, tol):
        raise InvalidStateError("(A, Lambda) is not a valid Gaussian state")
    n = a.shape[0]
    basis = _window_basis(n, cutoff)
    e_a = _creation_matrix(a, np.zeros(n, dtype=complex), basis)
    gam = gamma_matrix(lam, cutoff, basis)
    rho = c_factor(a, lam, tol) * (e_a @ gam @ e_a.conj().T)
    rho = 0.5 * (rho + rho.conj().T)
    return TruncatedOperator(n, cutoff, tuple(basis), rho, hermitian=True)


def matrix_element(a, lam, t, s, tol: float = DEFAULT_TOL) -> complex:
    """Single entry <t| rho(A, Lambda) |s> without building the window.

    rho's generating function is c(A, Lambda) exp(x^T Q x) in x = (u, v)
    with Q = [[A, Lambda/2], [Lambda^T/2, conj(A)]], so the entry is
    c(A, Lambda) phi_Q(t + s), the tuples joined end to end.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    if not is_valid_state(a, lam, tol):
        raise InvalidStateError("(A, Lambda) is not a valid Gaussian state")
    q = np.block([[a, 0.5 * lam], [0.5 * lam.T, a.conj()]])
    ts = tuple(int(x) for x in t) + tuple(int(x) for x in s)
    return complex(c_factor(a, lam, tol) * _phi_direct(q, ts))


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
    basis = _window_basis(n, cutoff, square=False)
    zero = np.zeros((n, n))
    if not np.any(mu):
        table = _phi_table(a)
        root_c = math.sqrt(c_factor(a, zero, tol))
        entries = [root_c * table(t) for t in basis]
    else:
        mu = np.asarray(mu, dtype=complex).reshape(-1)
        if mu.shape != (n,):
            raise ValueError("mu must hold one entry per mode")
        coeffs = _coeff_table(a, mu, basis)
        root_c = math.sqrt(normalization_c(mu, a, zero, tol))
        entries = [root_c * math.sqrt(multi_factorial(t)) * coeffs[t] for t in basis]
    return TruncatedVector(n, cutoff, tuple(basis), np.array(entries, dtype=complex))


def z1_matrix(p: E2Params, cutoff: int, tol: float = DEFAULT_TOL) -> TruncatedOperator:
    """Matrix of Z1 = sqrt(c) Gamma(sqrt(Lambda)) exp(conj(mu)^T a + a^T conj(A) a).

    Z1^dagger Z1 reproduces the positive operator with parameters p
    exactly on the window.
    """
    n = p.n
    basis = _window_basis(n, cutoff)
    root_lam = psd_sqrt(p.lam, tol)
    gam = gamma_matrix(root_lam, cutoff, basis)
    # annihilation side: <m| exp(...) |t> = sqrt(t!/m!) f_{conj(A), conj(mu)}(t - m)
    k = _creation_matrix(p.a.conj(), p.mu.conj(), basis)
    mat = math.sqrt(p.c) * (gam @ k.T)
    return TruncatedOperator(n, cutoff, tuple(basis), mat)


def general_truncate(p: GeneralE2Params, cutoff: int) -> TruncatedOperator:
    """Window matrix of any 6-tuple element: entries <r|Z|s> from its power series.

    Assembled as c * E_left Gamma(Lambda) E_right^T with E_left built from
    (A, alpha) and E_right from (B, beta); exact on the window because the
    left factor lowers, Gamma preserves and the right factor raises the
    particle number.
    """
    n = p.n
    basis = _window_basis(n, cutoff)
    left = _creation_matrix(p.a, p.alpha, basis)
    right = _creation_matrix(p.b, p.beta, basis)
    gam = gamma_matrix(p.lam, cutoff, basis)
    mat = p.c * (left @ gam @ right.T)
    herm = None
    if p.is_self_adjoint(1e-12):
        mat = 0.5 * (mat + mat.conj().T)
        herm = True
    return TruncatedOperator(n, cutoff, tuple(basis), mat, hermitian=herm)
