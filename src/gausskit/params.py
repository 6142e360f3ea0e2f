"""The two Gaussian-state parametrizations and the maps between them.

A positive element of the generating-function class is the quadruple
(c, mu, A, Lambda): c > 0, mu in C^n, A complex symmetric, Lambda
hermitian PSD.  The conventional description is the pair (m, S) of mean
annihilation vector and 2n x 2n real position-momentum covariance.  The
quadruple is the canonical stored form here; (m, S) is derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io
from .config import DEFAULT_TOL
from .core import (
    is_positive_semidefinite,
    m_matrix,
    symplectic_form,
)
from .errors import InvalidStateError, NotTraceClassError

__all__ = [
    "E2Params",
    "GeneralE2Params",
    "CovarianceParams",
    "AmplitudeData",
    "state_params",
    "is_valid_state",
    "normalization_c",
    "trace_of_positive",
    "is_normalized",
    "validity",
    "is_pure",
    "cov_to_e2",
    "e2_to_cov",
    "e2_from_amplitudes",
    "amplitudes_from_e2",
]

_HERM_TOL = 1e-12


def _symmetrized(a, what="A"):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square")
    scale = 1.0 + np.abs(a).max()
    if np.abs(a - a.T).max() > 1e-9 * scale:
        raise ValueError(f"{what} must be symmetric")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class E2Params:
    """Parameters (c, mu, A, Lambda) of a positive operator / Gaussian state.

    A is stored symmetrized exactly; Lambda must be hermitian to 1e-12.
    For a normalized state, c equals normalization_c(mu, A, Lambda).
    """

    c: float
    mu: np.ndarray
    a: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        c = float(self.c)
        if not c > 0:
            raise ValueError("c must be a positive real")
        mu = np.asarray(self.mu, dtype=complex).reshape(-1)
        a = _symmetrized(self.a)
        lam = np.atleast_2d(np.asarray(self.lam, dtype=complex))
        n = mu.shape[0]
        if a.shape != (n, n) or lam.shape != (n, n):
            raise ValueError("mu, A, Lambda must have matching dimensions")
        if np.abs(lam - lam.conj().T).max() > _HERM_TOL * (1.0 + np.abs(lam).max()):
            raise ValueError("Lambda must be hermitian")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", 0.5 * (lam + lam.conj().T))

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def as_general(self) -> "GeneralE2Params":
        return GeneralE2Params(
            c=self.c,
            alpha=self.mu,
            beta=self.mu.conj(),
            a=self.a,
            lam=self.lam,
            b=self.a.conj(),
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c": io.complex_pair(self.c),
            "mu": io.cvec_to_json(self.mu),
            "A": io.cmat_to_json(self.a),
            "Lambda": io.cmat_to_json(self.lam),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "E2Params":
        for key in ("n", "c", "mu", "A", "Lambda"):
            if key not in data:
                raise ValueError(f"field {key!r}: missing from E2 state file")
        n = io.int_from_json(data["n"], "n")
        try:
            c = complex(data["c"][0], data["c"][1])
        except (TypeError, IndexError, KeyError, OverflowError) as exc:
            raise ValueError("field 'c': expected an [re, im] pair") from exc
        if abs(c.imag) > 1e-12 * (1.0 + abs(c.real)):
            raise ValueError("field 'c': must be real for a positive operator")
        mu = io.cvec_from_json(data["mu"], "mu")
        a = io.cmat_from_json(data["A"], "A")
        lam = io.cmat_from_json(data["Lambda"], "Lambda")
        if mu.shape[0] != n:
            raise ValueError("field 'mu': length disagrees with n")
        return E2Params(c.real, mu, a, lam)


@dataclass(frozen=True)
class GeneralE2Params:
    """The full 6-tuple (c, alpha, beta, A, Lambda, B) of a generating function."""

    c: complex
    alpha: np.ndarray
    beta: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = complex(self.c)
        if c == 0:
            raise ValueError("c must be nonzero")
        alpha = np.asarray(self.alpha, dtype=complex).reshape(-1)
        beta = np.asarray(self.beta, dtype=complex).reshape(-1)
        a = _symmetrized(self.a)
        b = _symmetrized(self.b, "B")
        lam = np.atleast_2d(np.asarray(self.lam, dtype=complex))
        n = alpha.shape[0]
        if beta.shape[0] != n or a.shape != (n, n) or b.shape != (n, n) or lam.shape != (n, n):
            raise ValueError("parameter dimensions disagree")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    def is_self_adjoint(self, tol: float = 1e-10) -> bool:
        scale = 1.0 + max(abs(self.c), np.abs(self.alpha).max(initial=0.0),
                          np.abs(self.a).max(initial=0.0), np.abs(self.lam).max(initial=0.0))
        return (
            abs(complex(self.c).imag) <= tol * scale
            and np.abs(self.beta - self.alpha.conj()).max(initial=0.0) <= tol * scale
            and np.abs(self.b - self.a.conj()).max() <= tol * scale
            and np.abs(self.lam - self.lam.conj().T).max() <= tol * scale
        )

    def as_positive(self, tol: float = 1e-10) -> E2Params:
        """Collapse to the quadruple; requires self-adjoint structure."""
        if not self.is_self_adjoint(tol):
            raise ValueError("parameters are not self-adjoint")
        return E2Params(complex(self.c).real, self.alpha, self.a,
                        0.5 * (self.lam + self.lam.conj().T))

    def generating_function(self, u, v) -> complex:
        """Evaluate c exp(u^T alpha + beta^T v + u^T A u + u^T Lambda v + v^T B v)."""
        u = np.asarray(u, dtype=complex).reshape(-1)
        v = np.asarray(v, dtype=complex).reshape(-1)
        expo = (u @ self.alpha + self.beta @ v + u @ self.a @ u
                + u @ self.lam @ v + v @ self.b @ v)
        return complex(self.c * np.exp(expo))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c": io.complex_pair(self.c),
            "alpha": io.cvec_to_json(self.alpha),
            "beta": io.cvec_to_json(self.beta),
            "A": io.cmat_to_json(self.a),
            "Lambda": io.cmat_to_json(self.lam),
            "B": io.cmat_to_json(self.b),
        }


@dataclass(frozen=True)
class CovarianceParams:
    """Mean annihilation vector m and 2n x 2n real covariance S.

    Shape and symmetry are enforced here; the uncertainty inequality
    S + (i/2) J >= 0 is checked by consumers (see is_valid method).
    """

    m: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex).reshape(-1)
        s = np.asarray(self.s, dtype=float)
        n = m.shape[0]
        if s.shape != (2 * n, 2 * n):
            raise ValueError("S must be 2n x 2n for an n-vector m")
        if np.abs(s - s.T).max() > 1e-9 * (1.0 + np.abs(s).max()):
            raise ValueError("S must be symmetric")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", 0.5 * (s + s.T))

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        """Uncertainty relation S + (i/2) J >= 0 as a hermitian matrix."""
        j = symplectic_form(self.n)
        return is_positive_semidefinite(self.s + 0.5j * j, tol)

    def to_json_dict(self) -> dict:
        return {"m": io.cvec_to_json(self.m), "S": io.rmat_to_json(self.s)}

    @staticmethod
    def from_json_dict(data: dict) -> "CovarianceParams":
        for key in ("m", "S"):
            if key not in data:
                raise ValueError(f"field {key!r}: missing from covariance state file")
        return CovarianceParams(io.cvec_from_json(data["m"], "m"),
                                io.rmat_from_json(data["S"], "S"))


@dataclass(frozen=True)
class AmplitudeData:
    """Vacuum overlap plus 1- and 2-particle amplitude vectors/matrices of Z."""

    vac: complex
    lam_z: np.ndarray
    mu_z: np.ndarray
    a_z: np.ndarray
    b_z: np.ndarray
    lambda_z: np.ndarray

    def __post_init__(self):
        lam_z = np.asarray(self.lam_z, dtype=complex).reshape(-1)
        mu_z = np.asarray(self.mu_z, dtype=complex).reshape(-1)
        a_z = _symmetrized(self.a_z, "A_Z")
        b_z = _symmetrized(self.b_z, "B_Z")
        lambda_z = np.atleast_2d(np.asarray(self.lambda_z, dtype=complex))
        n = lam_z.shape[0]
        if mu_z.shape[0] != n or a_z.shape != (n, n) or b_z.shape != (n, n) \
                or lambda_z.shape != (n, n):
            raise ValueError("amplitude dimensions disagree")
        object.__setattr__(self, "vac", complex(self.vac))
        object.__setattr__(self, "lam_z", lam_z)
        object.__setattr__(self, "mu_z", mu_z)
        object.__setattr__(self, "a_z", a_z)
        object.__setattr__(self, "b_z", b_z)
        object.__setattr__(self, "lambda_z", lambda_z)

    @property
    def n(self) -> int:
        return self.lam_z.shape[0]


def _mu_split(mu: np.ndarray) -> np.ndarray:
    return np.concatenate([mu.real, mu.imag])


def m_spectrum(a, lam, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, bool]:
    """M(A, Lambda), its eigenvalues in ascending order, and whether M is
    strictly positive by is_positive_definite's rule on those eigenvalues."""
    m = m_matrix(a, lam, tol)
    evals = np.linalg.eigvalsh(m)
    return m, evals, bool(evals[0] > tol * (1.0 + max(abs(evals[0]), abs(evals[-1]))))


def _positive_m(a, lam, tol: float, error: type) -> tuple[np.ndarray, float]:
    """M(A, Lambda) and sqrt(det M) from one eigendecomposition; `error`
    unless M is strictly positive.  With every eigenvalue positive, c_factor's
    clip at zero does nothing, so this is its value bit for bit."""
    m, evals, positive = m_spectrum(a, lam, tol)
    if not positive:
        raise error("M(A, Lambda) is not strictly positive")
    return m, _root_det(evals)


def _root_det(evals: np.ndarray) -> float:
    return float(np.sqrt(np.prod(evals)))


def is_valid_state(a, lam, tol: float = DEFAULT_TOL) -> bool:
    """True iff M(A, Lambda) is strictly positive definite."""
    return m_spectrum(a, lam, tol)[2]


def normalization_c(mu, a, lam, tol: float = DEFAULT_TOL) -> float:
    """The value of c making (c, mu, A, Lambda) a unit-trace state; for
    mu = 0 it is c(A, Lambda) = sqrt(det M(A, Lambda))."""
    m, root_det = _positive_m(a, lam, tol, InvalidStateError)
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    quad = _mu_split(mu) @ np.linalg.solve(m, _mu_split(mu))
    return float(root_det * np.exp(-quad))


def _trace(p: E2Params, m: np.ndarray, root_det: float) -> float:
    quad = _mu_split(p.mu) @ np.linalg.solve(m, _mu_split(p.mu))
    return float(p.c / root_det * np.exp(quad))


def trace_of_positive(p: E2Params, tol: float = DEFAULT_TOL) -> float:
    """Trace of the positive operator with parameters p; finite iff M > 0."""
    return _trace(p, *_positive_m(p.a, p.lam, tol, NotTraceClassError))


def _unit_trace(trace: float) -> bool:
    return abs(trace - 1.0) <= 1e-8


def is_normalized(p: E2Params, tol: float = DEFAULT_TOL) -> bool:
    """True iff the positive operator with parameters p has unit trace (to 1e-8)."""
    return _unit_trace(trace_of_positive(p, tol))


def validity(p: E2Params, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether p is a state (M(A, Lambda) > 0 and unit trace) and the least
    eigenvalue of M, both from one eigendecomposition of M."""
    m, evals, positive = m_spectrum(p.a, p.lam, tol)
    return positive and _unit_trace(_trace(p, m, _root_det(evals))), float(evals[0])


def is_pure(p: E2Params, tol: float = DEFAULT_TOL) -> bool:
    """Pure iff Lambda vanishes."""
    return bool(np.linalg.norm(p.lam, 2) <= tol)


def state_params(a, lam, mu=None, tol: float = DEFAULT_TOL) -> E2Params:
    """Normalized state parameters from (A, Lambda) and optional mean coefficient mu."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    n = a.shape[0]
    if mu is None:
        mu = np.zeros(n, dtype=complex)
    return E2Params(normalization_c(mu, a, lam, tol), mu, a, lam)


_W: dict[int, np.ndarray] = {}


def _w(n: int) -> np.ndarray:
    """The n x 2n sandwich matrix [I  iI]."""
    if n not in _W:
        _W[n] = np.hstack([np.eye(n), 1j * np.eye(n)])
    return _W[n]


def cov_to_e2(cov: CovarianceParams, tol: float = DEFAULT_TOL) -> E2Params:
    """Quadruple (c, mu, A, Lambda) from (m, S)."""
    n = cov.n
    shalf = 0.5 * np.eye(2 * n) + cov.s
    evals = np.linalg.eigvalsh(shalf)
    if evals[0] <= tol * (1.0 + abs(evals[-1])):
        raise ValueError("(1/2)I + S is singular or not positive")
    if not cov.is_valid(max(tol, 1e-9)):
        raise InvalidStateError("S violates the uncertainty relation S + (i/2)J >= 0")
    p = np.linalg.inv(shalf)
    w = _w(n)
    a = 0.25 * (w @ p @ w.T)
    lam = np.eye(n) - 0.5 * (w @ p @ w.conj().T)
    j = symplectic_form(n)
    mtilde = np.concatenate([cov.m.real, cov.m.imag])
    mu = 1j * (w @ p @ j @ mtilde)
    c = float(np.sqrt(np.linalg.det(p)) * np.exp(mtilde @ j @ p @ j @ mtilde))
    return E2Params(c, mu, 0.5 * (a + a.T), 0.5 * (lam + lam.conj().T))


def e2_to_cov(p: E2Params, tol: float = DEFAULT_TOL) -> CovarianceParams:
    """(m, S) from the quadruple; requires validity M(A, Lambda) > 0."""
    n = p.n
    m_plus, _ = _positive_m(p.a, p.lam, tol, InvalidStateError)
    m_minus = m_matrix(-p.a, p.lam, tol)
    s = np.linalg.inv(m_minus) - 0.5 * np.eye(2 * n)
    mtilde = np.linalg.solve(m_plus, _mu_split(p.mu))
    m = mtilde[:n] + 1j * mtilde[n:]
    return CovarianceParams(m, 0.5 * (s + s.T))


def e2_from_amplitudes(amp: AmplitudeData) -> GeneralE2Params:
    """Invert the six amplitude relations; requires a nonzero vacuum overlap."""
    c = complex(amp.vac)
    if c == 0:
        raise ValueError("vacuum amplitude is zero: parameters are degenerate")
    alpha = amp.lam_z / c
    beta = amp.mu_z / c
    a = amp.a_z / c - 0.5 * np.outer(alpha, alpha)
    b = amp.b_z / c - 0.5 * np.outer(beta, beta)
    lam = amp.lambda_z / c - np.outer(alpha, beta)
    return GeneralE2Params(c, alpha, beta, a, lam, b)


def amplitudes_from_e2(p: GeneralE2Params) -> AmplitudeData:
    """Forward amplitude relations: vacuum, 1- and 2-particle amplitudes of Z."""
    c = p.c
    return AmplitudeData(
        vac=c,
        lam_z=c * p.alpha,
        mu_z=c * p.beta,
        a_z=c * (p.a + 0.5 * np.outer(p.alpha, p.alpha)),
        b_z=c * (p.b + 0.5 * np.outer(p.beta, p.beta)),
        lambda_z=c * (p.lam + np.outer(p.alpha, p.beta)),
    )
