"""Brute-force reference implementations for the test suite.

Everything here favors obvious correctness over speed and stays off the
public API: truncated polynomial arithmetic for series coefficients, the
recursive enumeration of Delta(t) that fixes phi_B's summation order,
numerical quadrature for the Gaussian integral, literal matrix
exponentials of annihilation quadratics, partial traces by direct
summation, a numerical coherent-state resolution of identity, and the
paper's mixing-kernel and direct E2 marginal formulas as cross-checks of
the production paths, and the scan over every bipartition with the paper's
sufficient condition for complete entanglement.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy import integrate

from .config import DEFAULT_TOL
from .core import c_factor, m_matrix
from .errors import UnsupportedStateError
from .fock import (
    TruncatedOperator,
    TruncatedVector,
    basis_index_map,
    basis_indices,
    multi_binomial,
    multi_factorial,
    phi,
)
from .params import E2Params
from .states import GaussianState

__all__ = [
    "series_coefficient",
    "enumerate_delta",
    "quadrature_gaussian",
    "annihilation_matrix",
    "truncated_exp_annihilation",
    "partial_trace",
    "partial_trace_vector_outer",
    "kb_resolution_check",
    "gamma_entry_enumerated",
    "mixing_kernel_element",
    "marginal_via_e2",
    "all_bipartitions",
    "complete_entanglement_certificate",
]


# ---------------------------------------------------------------------------
# truncated multivariate polynomial arithmetic (dict of exponent tuples)


def _poly_mul(p: dict, q: dict, cap: int) -> dict:
    out: dict[tuple, complex] = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            deg = sum(ea) + sum(eb)
            if deg > cap:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _poly_exp(p: dict, n: int, cap: int) -> dict:
    out = {(0,) * n: 1.0 + 0.0j}
    term = {(0,) * n: 1.0 + 0.0j}
    for m in range(1, cap + 1):
        term = _poly_mul(term, p, cap)
        if not term:
            break
        for key, val in term.items():
            out[key] = out.get(key, 0.0) + val / math.factorial(m)
    return out


def series_coefficient(b, mu, t, degree_cap: int | None = None) -> complex:
    """Coefficient of z^t / sqrt(t!) in exp(mu^T z + z^T B z).

    Computed by truncated multivariate polynomial exponentiation, fully
    independent of the closed-form phi_B machinery.
    """
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    n = b.shape[0]
    mu = np.zeros(n, dtype=complex) if mu is None else np.asarray(mu, dtype=complex).reshape(-1)
    t = tuple(int(x) for x in t)
    cap = sum(t) if degree_cap is None else int(degree_cap)
    if sum(t) > cap:
        raise ValueError("degree cap is below |t|")
    poly: dict[tuple, complex] = {}
    for i in range(n):
        if mu[i] != 0:
            e = tuple(1 if j == i else 0 for j in range(n))
            poly[e] = poly.get(e, 0.0) + mu[i]
    for i in range(n):
        for j in range(n):
            if b[i, j] != 0:
                e = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(n))
                poly[e] = poly.get(e, 0.0) + b[i, j]
    series = _poly_exp(poly, n, cap)
    return complex(series.get(t, 0.0) * math.sqrt(multi_factorial(t)))


# ---------------------------------------------------------------------------
# Delta(t) by depth-first recursion: the order of phi_B's sum, and so every
# window's bytes, follows it


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


# ---------------------------------------------------------------------------
# quadrature


def quadrature_gaussian(a, m, abs_tol: float = 1e-10) -> complex:
    """Numerical value of int exp(-x^T A x + m^T x) dx over R^1 or R^2."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    m = np.asarray(m, dtype=complex).reshape(-1)
    n = a.shape[0]
    if n not in (1, 2):
        raise ValueError("quadrature oracle supports 1 or 2 dimensions")
    if np.linalg.eigvalsh(0.5 * (a.real + a.real.T))[0] <= 0:
        raise ValueError("integrand does not decay: Re A must be positive definite")

    if n == 1:
        def f(x, part):
            val = np.exp(-a[0, 0] * x * x + m[0] * x)
            return val.real if part == 0 else val.imag

        re, _ = integrate.quad(f, -np.inf, np.inf, args=(0,), epsabs=abs_tol, limit=400)
        im, _ = integrate.quad(f, -np.inf, np.inf, args=(1,), epsabs=abs_tol, limit=400)
        return complex(re, im)

    def g(y, x, part):
        v = np.array([x, y])
        val = np.exp(-(v @ a @ v) + m @ v)
        return val.real if part == 0 else val.imag

    lim = 10.0 / math.sqrt(max(np.linalg.eigvalsh(0.5 * (a.real + a.real.T))[0], 1e-3))
    re, _ = integrate.dblquad(g, -lim, lim, -lim, lim, args=(0,), epsabs=abs_tol)
    im, _ = integrate.dblquad(g, -lim, lim, -lim, lim, args=(1,), epsabs=abs_tol)
    return complex(re, im)


# ---------------------------------------------------------------------------
# literal operator constructions


def annihilation_matrix(mode: int, n: int, cutoff: int) -> np.ndarray:
    """Truncated matrix of a_mode: a|t> = sqrt(t_mode) |t - e_mode>."""
    basis = basis_indices(n, cutoff)
    imap = basis_index_map(basis)
    dim = len(basis)
    out = np.zeros((dim, dim))
    for col, t in enumerate(basis):
        if t[mode] > 0:
            lower = t[:mode] + (t[mode] - 1,) + t[mode + 1:]
            out[imap[lower], col] = math.sqrt(t[mode])
    return out


def truncated_exp_annihilation(b, cutoff: int) -> TruncatedOperator:
    """exp(sum_rs B_rs a_r a_s) on the window, by explicit matrix exponential.

    The quadratic lowers total particle number by 2, so it is nilpotent on
    the window and the exponential series terminates: the result is exact.
    """
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if np.abs(b - b.T).max() > 1e-12 * (1.0 + np.abs(b).max()):
        raise ValueError("B must be symmetric")
    n = b.shape[0]
    basis = basis_indices(n, cutoff)
    dim = len(basis)
    ann = [annihilation_matrix(i, n, cutoff) for i in range(n)]
    q = np.zeros((dim, dim), dtype=complex)
    for r in range(n):
        for s in range(n):
            if b[r, s] != 0:
                q += b[r, s] * (ann[r] @ ann[s])
    out = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, cutoff // 2 + 1):
        term = term @ q / k
        if not np.any(term):
            break
        out += term
    return TruncatedOperator(n, cutoff, tuple(basis), out)


def partial_trace(op: TruncatedOperator, keep: list[int]) -> TruncatedOperator:
    """Trace out the modes not in `keep` by direct summation over the window."""
    keep = list(keep)
    drop = [i for i in range(op.n) if i not in keep]
    if not keep or not drop:
        raise ValueError("keep must be a nonempty proper subset of the modes")
    basis = list(op.basis)
    imap = basis_index_map(basis)
    small = basis_indices(len(keep), op.cutoff)
    smap = basis_index_map(small)
    out = np.zeros((len(small), len(small)), dtype=complex)
    for i, t in enumerate(basis):
        tk = tuple(t[m] for m in keep)
        td = tuple(t[m] for m in drop)
        for s in basis:
            if tuple(s[m] for m in drop) != td:
                continue
            sk = tuple(s[m] for m in keep)
            out[smap[tk], smap[sk]] += op.entries[i, imap[s]]
    return TruncatedOperator(len(keep), op.cutoff, tuple(small), out, op.hermitian)


def partial_trace_vector_outer(vec: TruncatedVector, keep: list[int]) -> TruncatedOperator:
    """Partial trace of |v><v| without materializing the full outer product."""
    keep = list(keep)
    drop = [i for i in range(vec.n) if i not in keep]
    if not keep or not drop:
        raise ValueError("keep must be a nonempty proper subset of the modes")
    small = basis_indices(len(keep), vec.cutoff)
    smap = basis_index_map(small)
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, t in enumerate(vec.basis):
        td = tuple(t[m] for m in drop)
        tk = tuple(t[m] for m in keep)
        groups.setdefault(td, []).append((smap[tk], i))
    out = np.zeros((len(small), len(small)), dtype=complex)
    for pairs in groups.values():
        idx_small = np.array([p[0] for p in pairs])
        amps = vec.entries[[p[1] for p in pairs]]
        out[np.ix_(idx_small, idx_small)] += np.outer(amps, amps.conj())
    return TruncatedOperator(len(keep), vec.cutoff, tuple(small), out, hermitian=True)


def kb_resolution_check(v: TruncatedVector, w: TruncatedVector,
                        radius: float = 7.0, steps: int = 240) -> complex:
    """(1/pi) int <v|psi(z)><psi(z)|w> dz over a truncated midpoint grid, n = 1.

    Approximates <v|w> by the coherent-state resolution of identity.
    """
    if v.n != 1 or w.n != 1:
        raise ValueError("resolution-of-identity check is implemented for one mode")
    xs = np.linspace(-radius, radius, steps, endpoint=False) + radius / steps
    xx, yy = np.meshgrid(xs, xs)
    z = (xx + 1j * yy).reshape(-1)
    kmax = max(v.dim, w.dim)
    ks = np.arange(kmax)
    log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
    # coherent amplitudes <k|psi(z)> = e^{-|z|^2/2} z^k / sqrt(k!)
    amp = np.exp(-0.5 * np.abs(z)[:, None] ** 2) \
        * z[:, None] ** ks[None, :] / np.exp(0.5 * log_fact)[None, :]
    va = np.zeros(kmax, dtype=complex)
    wa = np.zeros(kmax, dtype=complex)
    va[: v.dim] = v.entries
    wa[: w.dim] = w.entries
    v_psi = amp @ va.conj()  # <v|psi(z)>
    psi_w = amp.conj() @ wa  # <psi(z)|w>
    cell = (2 * radius / steps) ** 2
    return complex(np.sum(v_psi * psi_w) * cell / np.pi)


def gamma_entry_enumerated(lam, k, l) -> complex:
    """<k|Gamma(Lambda)|l> by literal contingency-table enumeration.

    The sum runs over every nonnegative integer matrix R with row sums k
    and column sums l; exponential cost, test sizes only.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=complex))
    n = lam.shape[0]
    k = tuple(int(x) for x in k)
    l = tuple(int(x) for x in l)
    if sum(k) != sum(l):
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    rows: list[list[tuple]] = []
    for ki in k:
        rows.append([comp for comp in product(range(ki + 1), repeat=n) if sum(comp) == ki])
    for choice in product(*rows):
        if tuple(sum(col) for col in zip(*choice)) != l:
            continue
        term = 1.0 + 0.0j
        for i in range(n):
            for j in range(n):
                rij = choice[i][j]
                if rij:
                    term *= lam[i, j] ** rij / math.factorial(rij)
        total += term
    return complex(math.sqrt(multi_factorial(k) * multi_factorial(l)) * total)


# ---------------------------------------------------------------------------
# the paper's closed forms, kept as cross-checks


def mixing_kernel_element(a, lam_vec, t, s, tol: float = DEFAULT_TOL) -> complex:
    """<t| rho(A, D_lambda) |s> through the mixing kernel acting on |psi_A><psi_A|.

    (c(A, D)/c(A, 0)) sum_{r <= t ^ s} sqrt(binom(t,r) binom(s,r)) lambda^r
    <t - r|psi_A><psi_A|s - r>.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    lam_vec = np.asarray(lam_vec, dtype=float).reshape(-1)
    d = np.diag(lam_vec.astype(complex))
    t = tuple(int(x) for x in t)
    s = tuple(int(x) for x in s)
    c_ratio = c_factor(a, d, tol) / c_factor(a, np.zeros_like(d), tol)
    cpure = c_factor(a, np.zeros_like(d), tol)
    total = 0.0 + 0.0j
    for r in product(*(range(min(x, y) + 1) for x, y in zip(t, s))):
        weight = math.sqrt(multi_binomial(t, r) * multi_binomial(s, r))
        lam_pow = np.prod(lam_vec ** np.array(r)) if sum(r) else 1.0
        amp_t = phi(a, tuple(x - y for x, y in zip(t, r)))
        amp_s = phi(a, tuple(x - y for x, y in zip(s, r)))
        total += weight * lam_pow * cpure * amp_t * np.conj(amp_s)
    return complex(c_ratio * total)


def marginal_via_e2(state: GaussianState, keep: list[int]) -> E2Params:
    """Reduced state on `keep` by the direct E2-parameter formula, mean-zero states.

    With blocks taken across kept (0) and traced (1) modes and
    C01 = [Lambda01 + 2 A01, i(Lambda01 - 2 A01)]:

        A0      = A00     + (1/4) C01 M(A11, Lambda11)^{-1} C01^T
        Lambda0 = Lambda00 + (1/2) C01 M(A11, Lambda11)^{-1} C01^dagger
        c0      = c(A, Lambda) / c(A11, Lambda11)

    Cross-check of states.marginal, which restricts the covariance.
    """
    keep = [int(m) for m in keep]
    drop = [m for m in range(state.n) if m not in keep]
    if not keep or not drop:
        raise ValueError("keep must be a nonempty proper subset of the modes")
    p = state.params
    if np.any(p.mu):
        raise UnsupportedStateError("E2-direct marginal implemented for mean-zero states")
    a00 = p.a[np.ix_(keep, keep)]
    a01 = p.a[np.ix_(keep, drop)]
    a11 = p.a[np.ix_(drop, drop)]
    l00 = p.lam[np.ix_(keep, keep)]
    l01 = p.lam[np.ix_(keep, drop)]
    l11 = p.lam[np.ix_(drop, drop)]
    c01 = np.hstack([l01 + 2.0 * a01, 1j * (l01 - 2.0 * a01)])
    m11_inv = np.linalg.inv(m_matrix(a11, l11, state.tol))
    a0 = a00 + 0.25 * (c01 @ m11_inv @ c01.T)
    lam0 = l00 + 0.5 * (c01 @ m11_inv @ c01.conj().T)
    c0 = c_factor(p.a, p.lam, state.tol) / c_factor(a11, l11, state.tol)
    return E2Params(c0, np.zeros(len(keep), dtype=complex),
                    0.5 * (a0 + a0.T), 0.5 * (lam0 + lam0.conj().T))


# ---------------------------------------------------------------------------
# bipartitions: the scan the weakest-split minimum cut replaces


def all_bipartitions(n: int) -> list[tuple[list[int], list[int]]]:
    """The 2^(n-1) - 1 basis-aligned splits, as (subset containing mode 0, rest)."""
    out = []
    for mask in range(0, 2 ** (n - 1) - 1):
        left = [0] + [m for m in range(1, n) if (mask >> (m - 1)) & 1]
        right = [m for m in range(1, n) if m not in left]
        out.append((left, right))
    return out


def complete_entanglement_certificate(state: GaussianState,
                                      tol: float | None = None) -> bool:
    """The paper's sufficient condition: every off-diagonal A entry nonzero and ||A|| < 1/2.

    It implies states.is_completely_entangled_pure, never the reverse.
    """
    tol = state.tol if tol is None else tol
    if not state.is_pure():
        raise UnsupportedStateError("certificate applies to pure states only")
    a = state.params.a
    n = state.n
    scale = 1.0 + np.abs(a).max()
    offdiag_ok = all(abs(a[i, j]) > tol * scale for i in range(n) for j in range(n) if i != j)
    return offdiag_ok and np.linalg.norm(a, 2) < 0.5
