"""Seeded generator of the benchmark's inputs.

Every state is drawn from a numpy PCG64 stream, so one seed always gives
the same inputs.  A is complex symmetric with spectral norm A_NORM, which
keeps the stated margin ||2A|| = 0.3 < 1; Lambda is hermitian PSD with
spectral norm LAM_NORM; the optional mean has entries of size MEAN_SCALE.
Both are shrunk together until M(A, Lambda) > 0, and c normalizes the
state to unit trace.
"""

from __future__ import annotations

import numpy as np

from gausskit.params import E2Params, GeneralE2Params, is_valid_state, state_params

A_NORM = 0.15
LAM_NORM = 0.25
MEAN_SCALE = 0.4


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_symmetric(rng, n: int, norm: float = A_NORM) -> np.ndarray:
    a = _complex_normal(rng, (n, n))
    a = a + a.T
    return a * (norm / max(np.linalg.norm(a, 2), 1e-12))


def random_psd(rng, n: int, norm: float = LAM_NORM) -> np.ndarray:
    w = _complex_normal(rng, (n, n))
    lam = w @ w.conj().T
    return lam * (norm / max(np.linalg.norm(lam, 2), 1e-12))


def random_state(rng, n: int, mean: bool = True) -> E2Params:
    """A valid, normalized n-mode mixed state; mean-zero when `mean` is false."""
    a = random_symmetric(rng, n)
    lam = random_psd(rng, n)
    while not is_valid_state(a, lam):
        a, lam = 0.8 * a, 0.8 * lam
    mu = MEAN_SCALE * _complex_normal(rng, n) if mean else np.zeros(n, dtype=complex)
    return state_params(a, lam, mu)


def random_general(rng, n: int) -> GeneralE2Params:
    """A 6-tuple whose products with any other such tuple stay in the class.

    ||A||, ||B|| <= 0.2 keeps Re R > 0 in compose (its blocks stay within
    1 - 0.8 of the identity).
    """
    c = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    return GeneralE2Params(
        c,
        0.3 * _complex_normal(rng, n),
        0.3 * _complex_normal(rng, n),
        random_symmetric(rng, n, 0.2),
        0.3 * _complex_normal(rng, (n, n)) / n,
        random_symmetric(rng, n, 0.2),
    )


def entangled_pure_state(rng, n: int, separable: bool = False) -> E2Params:
    """Pure state with dense A (entangled across every split), or with mode 0
    decoupled (separable across the first split a scan visits)."""
    a = random_symmetric(rng, n, 0.3)
    if separable:
        a[0, 1:] = 0.0
        a[1:, 0] = 0.0
    return state_params(a, np.zeros((n, n)))
