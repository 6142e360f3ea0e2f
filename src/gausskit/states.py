"""High-level Gaussian-state API.

GaussianState wraps the canonical quadruple and caches the derived
covariance pair.  On top of it: characteristic function, photon-number
statistics, marginals, bipartite separability tests for pure states,
the weakest split and complete-entanglement test by one minimum cut, and
the displacement/rotation normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .core import takagi
from .errors import InvalidStateError, UnsupportedStateError
from .fock import general_truncate
from .params import (
    CovarianceParams,
    E2Params,
    cov_to_e2,
    e2_to_cov,
    is_normalized,
    is_pure,
    state_params,
    trace_of_positive,
)
from .semigroup import conjugate_by_gamma, conjugate_by_weyl, mean_of_state

__all__ = [
    "GaussianState",
    "NumberDistribution",
    "NormalForm",
    "vacuum",
    "coherent",
    "thermal",
    "smsv",
    "tmsv",
    "characteristic_function",
    "number_distribution",
    "marginal",
    "is_pure_separable",
    "is_completely_entangled_pure",
    "weakest_split",
    "normal_form",
]


class GaussianState:
    """Immutable n-mode Gaussian state, stored as E2 parameters."""

    def __init__(self, params: E2Params, tol: float = DEFAULT_TOL):
        # raises NotTraceClassError, an InvalidStateError, unless M(A, Lambda) > 0
        if not is_normalized(params, tol):
            tr = trace_of_positive(params, tol)
            raise InvalidStateError(f"parameters are not normalized: trace = {tr!r}")
        self._params = params
        self._tol = tol
        self._cov: CovarianceParams | None = None

    @property
    def n(self) -> int:
        return self._params.n

    @property
    def params(self) -> E2Params:
        return self._params

    @property
    def cov(self) -> CovarianceParams:
        if self._cov is None:
            self._cov = e2_to_cov(self._params, self._tol)
        return self._cov

    @property
    def tol(self) -> float:
        return self._tol

    @staticmethod
    def from_a_lambda(a, lam, mu=None, tol: float = DEFAULT_TOL) -> "GaussianState":
        return GaussianState(state_params(a, lam, mu, tol), tol)

    @staticmethod
    def from_cov(cov: CovarianceParams, tol: float = DEFAULT_TOL) -> "GaussianState":
        return GaussianState(cov_to_e2(cov, tol), tol)

    def mean(self) -> np.ndarray:
        return mean_of_state(self._params, self._tol)

    def is_pure(self, tol: float | None = None) -> bool:
        return is_pure(self._params, self._tol if tol is None else tol)

    def __repr__(self) -> str:
        return f"GaussianState(n={self.n}, pure={self.is_pure()})"


def vacuum(n: int) -> GaussianState:
    z = np.zeros((n, n), dtype=complex)
    return GaussianState.from_a_lambda(z, z)


def coherent(z) -> GaussianState:
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return GaussianState.from_a_lambda(zero, zero, mu=z)


def thermal(lam_diag) -> GaussianState:
    lam_diag = np.atleast_1d(np.asarray(lam_diag, dtype=float))
    n = lam_diag.shape[0]
    return GaussianState.from_a_lambda(np.zeros((n, n), dtype=complex), np.diag(lam_diag))


def smsv(alpha: complex) -> GaussianState:
    """Single-mode squeezed vacuum rho(alpha, 0), |alpha| < 1/2."""
    return GaussianState.from_a_lambda([[alpha]], [[0.0]])


def tmsv(beta: complex) -> GaussianState:
    """Two-mode squeezed vacuum with A = [[0, beta], [beta, 0]], |beta| < 1/2."""
    a = np.array([[0.0, beta], [beta, 0.0]], dtype=complex)
    return GaussianState.from_a_lambda(a, np.zeros((2, 2), dtype=complex))


def characteristic_function(state: GaussianState, z) -> complex:
    """rho^(z) = exp(-2i Im<z|m> - (x, y) S (x, y)^T) with z = x + iy."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    cov = state.cov
    xy = np.concatenate([z.real, z.imag])
    phase = -2.0 * np.imag(np.vdot(z, cov.m))
    return complex(np.exp(1j * phase - xy @ cov.s @ xy))


@dataclass(frozen=True)
class NumberDistribution:
    """Particle-count probabilities on the window plus the reported tail."""

    probs: dict[tuple, float]
    tail: float

    def __getitem__(self, t) -> float:
        return self.probs.get(tuple(int(x) for x in t), 0.0)


def number_distribution(state: GaussianState, cutoff: int) -> NumberDistribution:
    """Diagonal of the window density matrix; mass deficit goes to `tail`."""
    op = general_truncate(state.params.as_general(), cutoff)
    diag = np.clip(op.entries.diagonal().real, 0.0, None)
    probs = {t: float(pr) for t, pr in zip(op.basis, diag)}
    return NumberDistribution(probs, max(0.0, 1.0 - float(diag.sum())))


def _check_subset(n: int, modes: list[int]) -> list[int]:
    modes = [int(m) for m in modes]
    if len(set(modes)) != len(modes) or any(m < 0 or m >= n for m in modes):
        raise ValueError("modes must be distinct indices in range")
    if not modes or len(modes) == n:
        raise ValueError("modes must be a nonempty proper subset")
    return modes


def marginal(state: GaussianState, modes: list[int]) -> GaussianState:
    """Reduced state on `modes` via covariance restriction (exact for Gaussians)."""
    modes = _check_subset(state.n, modes)
    cov = state.cov
    n = state.n
    rows = np.array(modes + [n + m for m in modes])
    sub = CovarianceParams(cov.m[modes], cov.s[np.ix_(rows, rows)])
    return GaussianState.from_cov(sub, state.tol)


def _offdiag_norm(a: np.ndarray, left: list[int], right: list[int]) -> float:
    return float(np.linalg.norm(a[np.ix_(left, right)]))


def is_pure_separable(state: GaussianState, modes: list[int],
                      tol: float | None = None) -> bool:
    """Pure state separable across (modes | rest) iff the A off-block vanishes."""
    tol = state.tol if tol is None else tol
    if not state.is_pure():
        raise UnsupportedStateError("separability criterion applies to pure states only")
    left = _check_subset(state.n, modes)
    right = [m for m in range(state.n) if m not in left]
    scale = 1.0 + np.abs(state.params.a).max()
    return bool(_offdiag_norm(state.params.a, left, right) <= tol * scale)


def _min_cut(w: np.ndarray) -> tuple[float, list[int]]:
    """Weight of a global minimum cut of the graph with symmetric weights w,
    and the vertices on one side of it.

    Stoer-Wagner: each phase adds vertices in maximum-adjacency order, the
    weight joining the last one to the rest is a cut, and the last vertex
    is merged into the one added before it.  n - 1 phases, O(n^3) in all.
    The side of the best phase's cut is the set merged into its last
    vertex.  Diagonal entries are self-loops and never enter a cut.
    """
    w = np.array(w, dtype=float)
    groups = [[v] for v in range(len(w))]
    best, side = math.inf, []
    while len(w) > 1:
        m = len(w)
        added = np.zeros(m, dtype=bool)
        added[0] = True
        key = w[0].copy()
        prev = last = 0
        for _ in range(m - 1):
            weights = np.where(added, -np.inf, key)
            v = int(np.argmax(weights))
            cut = float(weights[v])
            added[v] = True
            prev, last = last, v
            key += w[v]
        if cut < best:
            best, side = cut, list(groups[last])
        groups[prev] += groups[last]
        del groups[last]
        w[prev] += w[last]
        w[:, prev] += w[:, last]
        keep = np.arange(m) != last
        w = w[np.ix_(keep, keep)]
    return best, side


def weakest_split(state: GaussianState) -> tuple[list[int], list[int]] | None:
    """The split (L | R) with the least ||A[L, R]||_F, mode 0 in L; None for one mode.

    Over all 2^(n-1) - 1 basis-aligned splits, ||A[L, R]||_F^2 is the
    weight of the cut (L | R) in the mode graph with edge weights |A_ij|^2,
    so the weakest split is that graph's global minimum cut, found exactly
    in O(n^3) by Stoer-Wagner (J. ACM 44(4), 1997).
    """
    if not state.is_pure():
        raise UnsupportedStateError("weakest split applies to pure states only")
    if state.n == 1:
        return None
    _, side = _min_cut(np.abs(state.params.a) ** 2)
    rest = [m for m in range(state.n) if m not in side]
    return (sorted(side), rest) if 0 in side else (rest, sorted(side))


def is_completely_entangled_pure(state: GaussianState, tol: float | None = None) -> bool:
    """Entangled across every basis-aligned bipartition, by is_pure_separable's test.

    A split (L | R) is separable when ||A[L, R]||_F <= tol * (1 + max |A_ij|),
    so the state is completely entangled iff its weakest split (one
    minimum cut, see weakest_split) is not separable.
    """
    tol = state.tol if tol is None else tol
    if not state.is_pure():
        raise UnsupportedStateError("complete-entanglement test applies to pure states only")
    a = state.params.a
    scale = 1.0 + np.abs(a).max()
    return bool(math.sqrt(_min_cut(np.abs(a) ** 2)[0]) > tol * scale)


@dataclass(frozen=True)
class NormalForm:
    """Transforms bringing a state to mu = 0 and diagonal Lambda (and diagonal A when pure)."""

    displacement: np.ndarray
    unitary: np.ndarray
    canonical: E2Params


def normal_form(state: GaussianState) -> NormalForm:
    """Weyl displacement to zero mean, then a second-quantized unitary.

    The unitary diagonalizes Lambda with descending eigenvalues; for pure
    states it additionally Takagi-diagonalizes A, exhibiting the state as
    a rotated product of one-mode factors.
    """
    p = state.params
    z = mean_of_state(p, state.tol)
    centered = conjugate_by_weyl(p, z)
    if state.is_pure():
        u_tak, _ = takagi(centered.a, state.tol)
        u = u_tak.conj().T
    else:
        evals, evecs = np.linalg.eigh(centered.lam)
        order = np.argsort(evals)[::-1]
        u = evecs[:, order].conj().T
    canon = conjugate_by_gamma(centered, u, state.tol)
    # scrub numerical dust so the canonical block structure is exact
    mu = canon.mu.copy()
    mu[np.abs(mu) < 1e-13] = 0.0
    return NormalForm(z, u, E2Params(canon.c, mu, canon.a, canon.lam))
