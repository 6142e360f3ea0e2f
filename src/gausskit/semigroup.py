"""Calculus on generating-function 6-tuples.

Parameters of the standard operator families (Weyl displacements, second
quantizations, squeezing unitaries), the adjoint, the two conjugation
transforms, and multiplication of two elements in closed form via an
analytic Gaussian integral over the coherent-state resolution of identity.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL
from .core import SymplecticMap, det_invsqrt_branch
from .errors import InvalidStateError, NonComposableError
from .params import E2Params, GeneralE2Params, m_spectrum

__all__ = [
    "identity_params",
    "weyl_params",
    "second_quantization_params",
    "gamma0_params",
    "alpha_of_symplectic",
    "adjoint_params",
    "compose",
    "conjugate_by_gamma",
    "conjugate_by_weyl",
    "mean_of_state",
]


def identity_params(n: int) -> GeneralE2Params:
    zero = np.zeros(n, dtype=complex)
    zmat = np.zeros((n, n), dtype=complex)
    return GeneralE2Params(1.0, zero, zero, zmat, np.eye(n, dtype=complex), zmat)


def weyl_params(z) -> GeneralE2Params:
    """Parameters (e^{-|z|^2/2}, z, -conj(z), 0, I, 0) of the displacement W(z)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.shape[0]
    zmat = np.zeros((n, n), dtype=complex)
    c = float(np.exp(-0.5 * np.linalg.norm(z) ** 2))
    return GeneralE2Params(c, z, -z.conj(), zmat, np.eye(n, dtype=complex), zmat)


def second_quantization_params(k, tol: float = DEFAULT_TOL) -> GeneralE2Params:
    """Parameters (1, 0, 0, 0, K, 0) of Gamma(K); K must be a contraction."""
    k = np.atleast_2d(np.asarray(k, dtype=complex))
    n = k.shape[0]
    if np.linalg.norm(k, 2) > 1.0 + tol:
        raise ValueError("K must be a contraction")
    zero = np.zeros(n, dtype=complex)
    zmat = np.zeros((n, n), dtype=complex)
    return GeneralE2Params(1.0, zero, zero, zmat, k, zmat)


def alpha_of_symplectic(l: SymplecticMap) -> float:
    """alpha(L) = det((I + L0^T L0) / 2)."""
    l0 = l.l0
    return float(np.linalg.det(0.5 * (np.eye(l0.shape[0]) + l0.T @ l0)))


def gamma0_params(l: SymplecticMap) -> GeneralE2Params:
    """Parameters of the canonically normalized unitary implementing L.

    c = alpha(L)^{-1/4} > 0 (the vacuum-to-vacuum amplitude), and the
    quadratic blocks are [I iI]-sandwiches of inverses built from L0:

        A = 1/2 [I  iI] (I + (L0^{-1})^T L0^{-1})^{-1} [I;  iI]
        Lambda = [I  iI] (L0^{-1} + L0^T)^{-1} [I; -iI]
        B = 1/2 [I -iI] (I + L0^T L0)^{-1} [I; -iI]
    """
    l0 = l.l0
    n = l.n
    eye2n = np.eye(2 * n)
    wp = np.hstack([np.eye(n), 1j * np.eye(n)])  # [I  iI]
    wm = wp.conj()  # [I -iI]
    l0_inv = l.inv().l0
    c = alpha_of_symplectic(l) ** -0.25
    a = 0.5 * (wp @ np.linalg.inv(eye2n + l0_inv.T @ l0_inv) @ wp.T)
    lam = wp @ np.linalg.inv(l0_inv + l0.T) @ wm.T
    b = 0.5 * (wm @ np.linalg.inv(eye2n + l0.T @ l0) @ wm.T)
    zero = np.zeros(n, dtype=complex)
    return GeneralE2Params(c, zero, zero, 0.5 * (a + a.T), lam, 0.5 * (b + b.T))


def adjoint_params(p: GeneralE2Params) -> GeneralE2Params:
    """Parameters of Z^dagger: (conj c, conj beta, conj alpha, conj B, Lambda^dagger, conj A)."""
    return GeneralE2Params(
        c=np.conj(p.c),
        alpha=p.beta.conj(),
        beta=p.alpha.conj(),
        a=p.b.conj(),
        lam=p.lam.conj().T,
        b=p.a.conj(),
    )


def compose(p1: GeneralE2Params, p2: GeneralE2Params,
            tol: float = DEFAULT_TOL) -> GeneralE2Params:
    """Parameters of the product Z1 Z2, by completing the square.

    The product's generating function is the coherent-state integral
    (1/pi^n) int G_1(u, z) G_2(conj z, v) e^{-|z|^2} dz.  Writing
    z = x + iy turns the integrand into exp(-w^T R w + (l0 + S_u u + S_v v)^T w)
    over w = (x, y) with

        R   = [[I - B1 - A2, -i(B1 - A2)], [-i(B1 - A2), I + B1 + A2]]
        l0  = (beta1 + alpha2, i(beta1 - alpha2))
        S_u = [Lambda1^T; i Lambda1^T],  S_v = [Lambda2; -i Lambda2]

    which the Gaussian integral formula evaluates to the composed 6-tuple

        c = c1 c2 det(R)^{-1/2} exp(l0^T R^{-1} l0 / 4)
        alpha = alpha1 + S_u^T R^{-1} l0 / 2,  beta = beta2 + S_v^T R^{-1} l0 / 2
        A = A1 + S_u^T R^{-1} S_u / 4,  B = B2 + S_v^T R^{-1} S_v / 4
        Lambda = S_u^T R^{-1} S_v / 2

    with det(R)^{-1/2} on the positive-real-part square-root branch.
    Integrability (Re R > 0) is a genuine precondition: products that
    leave it raise NonComposableError rather than returning a fake limit.
    """
    if p1.n != p2.n:
        raise ValueError("mode counts disagree")
    n = p1.n
    eye = np.eye(n)
    d_plus = p1.b + p2.a
    d_minus = p1.b - p2.a
    r = np.block([
        [eye - d_plus, -1j * d_minus],
        [-1j * d_minus, eye + d_plus],
    ])
    r = 0.5 * (r + r.T)
    re_evals = np.linalg.eigvalsh(r.real)
    if re_evals[0] <= tol * (1.0 + abs(re_evals[-1])):
        raise NonComposableError(
            "product leaves the class at these parameters (Re part not positive)")
    l0 = np.concatenate([p1.beta + p2.alpha, 1j * (p1.beta - p2.alpha)])
    s_u = np.vstack([p1.lam.T, 1j * p1.lam.T])
    s_v = np.vstack([p2.lam, -1j * p2.lam])
    r_inv = np.linalg.inv(r)
    ri_l0 = r_inv @ l0
    c = p1.c * p2.c * det_invsqrt_branch(r) * np.exp(0.25 * (l0 @ ri_l0))
    alpha = p1.alpha + 0.5 * (s_u.T @ ri_l0)
    beta = p2.beta + 0.5 * (s_v.T @ ri_l0)
    a = p1.a + 0.25 * (s_u.T @ r_inv @ s_u)
    b = p2.b + 0.25 * (s_v.T @ r_inv @ s_v)
    lam = 0.5 * (s_u.T @ r_inv @ s_v)
    return GeneralE2Params(c, alpha, beta, 0.5 * (a + a.T), lam, 0.5 * (b + b.T))


def conjugate_by_gamma(p: E2Params, k, tol: float = DEFAULT_TOL) -> E2Params:
    """Parameters (c, K mu, K A K^T, K Lambda K^dagger) of Gamma(K) Z Gamma(K)^dagger."""
    k = np.atleast_2d(np.asarray(k, dtype=complex))
    if np.linalg.norm(k, 2) > 1.0 + tol:
        raise ValueError("K must be a contraction")
    return E2Params(p.c, k @ p.mu, k @ p.a @ k.T, k @ p.lam @ k.conj().T)


def conjugate_by_weyl(p: E2Params, z) -> E2Params:
    """Parameters of W(-z) Z W(z).

    A and Lambda are untouched; mu shifts by -(I - Lambda - 2AC) z and the
    scalar becomes <psi(z)| Z |psi(z)> = e^{-|z|^2} G_Z(conj z, z).
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != p.n:
        raise ValueError("z has wrong length")
    g_val = p.as_general().generating_function(z.conj(), z)
    c_new = (np.exp(-np.linalg.norm(z) ** 2) * g_val).real
    shift = z - p.lam @ z - 2.0 * (p.a @ z.conj())
    return E2Params(c_new, p.mu - shift, p.a, p.lam)


def mean_of_state(p: E2Params, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Mean annihilation vector m solving (I - Lambda - 2AC) m = mu."""
    m_mat, _, positive = m_spectrum(p.a, p.lam, tol)
    if not positive:
        raise InvalidStateError("M(A, Lambda) is not strictly positive")
    mu_split = np.concatenate([p.mu.real, p.mu.imag])
    mt = np.linalg.solve(m_mat, mu_split)
    n = p.n
    return mt[:n] + 1j * mt[n:]
