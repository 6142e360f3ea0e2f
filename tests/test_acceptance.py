"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import math
from contextlib import contextmanager

import numpy as np

import gausskit as gk
from gausskit.core import SymplecticMap, m_matrix, symplectic_form
from gausskit.fock import (
    basis_indices,
    dmf,
    general_truncate,
    matrix_element,
    multi_factorial,
    phi,
    z1_matrix,
)
from gausskit.oracles import (
    all_bipartitions,
    mixing_kernel_element,
    partial_trace,
    series_coefficient,
)
from gausskit.params import cov_to_e2, e2_to_cov, state_params
from gausskit.semigroup import (
    adjoint_params,
    alpha_of_symplectic,
    compose,
    conjugate_by_gamma,
    gamma0_params,
    identity_params,
    second_quantization_params,
    weyl_params,
)
from gausskit.states import (
    GaussianState,
    is_completely_entangled_pure,
    is_pure_separable,
    marginal,
    number_distribution,
    smsv,
    tmsv,
)
from gausskit.tomography import (
    estimate,
    simulate_battery,
    standard_battery,
    vn_outcome_count,
)

from conftest import params6_diff, random_state, random_symmetric
from test_states import schmidt_rank_one


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {label}")


def test_criterion_01_smsv_distribution():
    with criterion(1, "SMSV photon statistics are negative binomial"):
        alpha = 0.3
        nd = number_distribution(smsv(alpha), cutoff=60)
        for t in range(21):
            want = math.sqrt(1 - 4 * alpha**2) * math.comb(2 * t, t) * alpha ** (2 * t)
            assert abs(nd[(2 * t,)] - want) <= 1e-12
            assert nd[(2 * t + 1,)] == 0.0
        assert nd.tail <= 1e-6


def test_criterion_02_tmsv():
    with criterion(2, "TMSV statistics, zero off-diagonals, thermal marginal"):
        beta = 0.35
        lam = 4 * beta**2
        st = tmsv(beta)
        nd = number_distribution(st, cutoff=30)
        for k in range(16):
            assert abs(nd[(k, k)] - (1 - lam) * lam**k) <= 1e-12
        assert all(v == 0.0 for t, v in nd.probs.items() if t[0] != t[1])
        # covariance-path marginal
        sub = marginal(st, [0]).params
        assert np.abs(sub.a).max() <= 1e-10
        assert abs(sub.lam[0, 0] - lam) <= 1e-10
        assert np.abs(sub.mu).max() <= 1e-10
        # partial-trace oracle at cutoff 30 (entries with complete traced sums)
        red = partial_trace(dmf(st.params.a, st.params.lam, 30), [0])
        for k in range(16):
            assert abs(red.element((k,), (k,)) - (1 - lam) * lam**k) <= 1e-8
        off = red.entries - np.diag(red.entries.diagonal())
        assert np.abs(off).max() <= 1e-8


def test_criterion_03_phi_oracle_equivalence(rng):
    with criterion(3, "phi_B agrees with the series oracle and closed-form families"):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            b = random_symmetric(rng, n, norm=float(rng.uniform(0.1, 0.6)))
            t = tuple(int(x) for x in rng.integers(0, 6, size=n))
            while sum(t) > 10:
                t = tuple(int(x) for x in rng.integers(0, 6, size=n))
            assert abs(phi(b, t) - series_coefficient(b, None, t)) <= 1e-12
        # triangular two-mode family
        al, be = 0.11 - 0.04j, 0.13
        a = np.array([[al, be], [be, 0.0]])
        for t in range(8):
            for k in range(t // 2 + 1):
                want = (math.sqrt(math.factorial(t) * math.factorial(t - 2 * k))
                        * al**k * (2 * be) ** (t - 2 * k)
                        / (math.factorial(k) * math.factorial(t - 2 * k)))
                assert abs(phi(a, (t, t - 2 * k)) - want) <= 1e-12
        # three-mode zero-diagonal family
        a12, a13, a23 = 0.09, 0.05 + 0.02j, -0.07j
        a3 = np.array([[0, a12, a13], [a12, 0, a23], [a13, a23, 0]])
        for t in basis_indices(3, 8):
            if sum(t) % 2:
                assert phi(a3, t) == 0.0
                continue
            k = sum(t) // 2
            if max(t) > k:
                want = 0.0
            else:
                want = (math.sqrt(multi_factorial(t)) * 2**k
                        * a12 ** (k - t[2]) * a23 ** (k - t[0]) * a13 ** (k - t[1])
                        / (math.factorial(k - t[0]) * math.factorial(k - t[1])
                           * math.factorial(k - t[2])))
            assert abs(phi(a3, t) - want) <= 1e-12


def test_criterion_04_parametrization_round_trip(rng):
    with criterion(4, "cov <-> E2 round trips are the identity"):
        for i in range(100):
            n = int(rng.integers(1, 5))
            p = random_state(rng, n, with_mean=(i % 2 == 0))
            back = cov_to_e2(e2_to_cov(p))
            assert params6_diff(back.as_general(), p.as_general()) <= 1e-10
            cov = e2_to_cov(p)
            cov_back = e2_to_cov(cov_to_e2(cov))
            assert np.abs(cov_back.s - cov.s).max() <= 1e-10
            assert np.abs(cov_back.m - cov.m).max() <= 1e-10


def test_criterion_05_uncertainty_equivalences(rng):
    with criterion(5, "M(A,0) > 0 iff ||2A|| < 1; S + iJ/2 >= 0 after conversion"):
        for i in range(200):
            n = int(rng.integers(1, 5))
            norm = float(rng.uniform(0.05, 0.45)) if i % 2 == 0 \
                else float(rng.uniform(0.5, 1.2))
            a = random_symmetric(rng, n, norm=norm)
            contraction = np.linalg.norm(2 * a, 2) < 1.0
            positive = bool(np.linalg.eigvalsh(m_matrix(a, np.zeros((n, n))))[0] > 0)
            assert contraction == positive
        for _ in range(40):
            n = int(rng.integers(1, 5))
            p = random_state(rng, n)
            cov = e2_to_cov(p)
            h = cov.s + 0.5j * symplectic_form(n)
            assert np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0] >= -1e-9


def test_criterion_06_factorization(rng):
    with criterion(6, "Z1^dagger Z1 reproduces the DMF; DMF is a density matrix"):
        cases = [1] * 10 + [2] * 9 + [3]
        for n in cases:
            p = random_state(rng, n, with_mean=False)
            cutoff = 20
            rho = dmf(p.a, p.lam, cutoff)
            z1 = z1_matrix(p, cutoff)
            frob = np.linalg.norm(z1.entries.conj().T @ z1.entries - rho.entries)
            assert frob <= 1e-10
            evals = np.linalg.eigvalsh(rho.entries)
            assert evals[0] >= -1e-10
            trace = rho.trace().real
            tail = max(0.0, 1.0 - trace)
            assert 1.0 - tail - 1e-12 <= trace <= 1.0 + 1e-10


def test_criterion_07_semigroup_laws(rng):
    with criterion(7, "Weyl/second-quantization laws, product oracle, gamma0 amplitude"):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = compose(weyl_params(u), weyl_params(v))
            want = weyl_params(u + v)
            phase = np.exp(-1j * np.imag(np.vdot(u, v)))
            want = gk.GeneralE2Params(phase * want.c, want.alpha, want.beta,
                                      want.a, want.lam, want.b)
            assert params6_diff(got, want) <= 1e-12
            k1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            k1 /= max(1.0, np.linalg.norm(k1, 2))
            k2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            k2 /= max(1.0, np.linalg.norm(k2, 2))
            assert params6_diff(
                compose(second_quantization_params(k1), second_quantization_params(k2)),
                second_quantization_params(k1 @ k2)) <= 1e-12
        # compose against the truncated-product oracle
        for _ in range(4):
            n = int(rng.integers(1, 3))
            p1 = random_state(rng, n, a_norm=0.12).as_general()
            p2 = random_state(rng, n, a_norm=0.12).as_general()
            comp = compose(p1, p2)
            m1 = general_truncate(p1, 30).entries
            m2 = general_truncate(p2, 30).entries
            mc = general_truncate(comp, 30).entries
            assert np.linalg.norm(m1 @ m2 - mc) <= 1e-6
        # gamma0 vacuum amplitude and unitarity
        from scipy.linalg import expm
        for _ in range(20):
            n = int(rng.integers(1, 4))
            l = SymplecticMap(np.eye(2 * n))
            for _ in range(3):
                h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                h = h + h.conj().T
                l = l @ SymplecticMap.from_unitary(expm(0.3j * h))
                l = l @ SymplecticMap.squeeze(0.4 * rng.normal(size=n))
            g = gamma0_params(l)
            assert abs(abs(g.c) - alpha_of_symplectic(l) ** -0.25) <= 1e-12
            assert params6_diff(compose(adjoint_params(g), g),
                                identity_params(n)) <= 1e-10


def test_criterion_08_purity_and_architecture(rng):
    with criterion(8, "tr rho^2 = 1 iff Lambda = 0; mixing kernel matches entries"):
        cases = [
            (random_symmetric(rng, 1, 0.3), 0.0, 40),
            (random_symmetric(rng, 2, 0.2), 0.0, 24),
            (random_symmetric(rng, 1, 0.2), 0.15, 40),
            (random_symmetric(rng, 2, 0.15), 0.1, 24),
        ]
        for a, lam_scale, cutoff in cases:
            n = a.shape[0]
            lam = lam_scale * np.eye(n)
            p = state_params(a, lam)
            rho = dmf(p.a, p.lam, cutoff).entries
            purity = float(np.trace(rho @ rho).real)
            assert (abs(purity - 1.0) <= 1e-8) == (lam_scale == 0.0)
        # mixing-kernel identity vs direct entries, diagonal Lambda
        for n in (1, 2):
            a = random_symmetric(rng, n, 0.14)
            lam_vec = np.array([0.22, 0.09][:n])
            lam = np.diag(lam_vec.astype(complex))
            for t in basis_indices(n, 8 if n == 1 else 5):
                for s in basis_indices(n, 8 if n == 1 else 5):
                    got = mixing_kernel_element(a, lam_vec, t, s)
                    want = matrix_element(a, lam, t, s)
                    assert abs(got - want) <= 1e-10


def test_criterion_09_entanglement(rng):
    with criterion(9, "separability matches Schmidt rank; theta family fully entangled"):
        for n in (2, 3):
            for _ in range(10):
                a = random_symmetric(rng, n, float(rng.uniform(0.1, 0.24)))
                if rng.integers(0, 3) == 0:
                    a[0, 1:] = 0.0  # force some separable splits into the mix
                    a[1:, 0] = 0.0
                st = GaussianState.from_a_lambda(a, np.zeros((n, n)))
                for left, _right in all_bipartitions(n):
                    assert is_pure_separable(st, left) == schmidt_rank_one(st, left)
        for n in (2, 3, 4):
            theta = 0.2 / (n - 1)
            a = theta * (np.ones((n, n)) - np.eye(n))
            st = GaussianState.from_a_lambda(a, np.zeros((n, n)))
            assert is_completely_entangled_pure(st)
            from itertools import permutations
            for perm in permutations(range(n)):
                p_mat = np.eye(n)[list(perm)]
                q = conjugate_by_gamma(st.params, p_mat)
                assert params6_diff(q.as_general(), st.params.as_general()) <= 1e-12


def _tomography_errors(rep, truth, include_offdiag_lambda: bool) -> np.ndarray:
    est = rep.estimates
    n = truth.n
    out = [abs(est.c.real - truth.c)]
    for j in range(n):
        d = est.alpha[j] - truth.mu[j]
        out += [abs(d.real), abs(d.imag)]
        for k in range(j, n):
            d = est.a[j, k] - truth.a[j, k]
            out += [abs(d.real), abs(d.imag)]
        out.append(abs((est.lam[j, j] - truth.lam[j, j]).real))
    if include_offdiag_lambda:
        for j in range(n):
            for k in range(j + 1, n):
                out.append(abs(est.lam[j, k] - truth.lam[j, k]))
    return np.array(out)


def test_criterion_10_tomography():
    with criterion(10, "tomography recovers the parameters; errors scale as k^-1/2"):
        truth_state = GaussianState.from_a_lambda(
            np.array([[0.0, 0.2], [0.2, 0.0]]), 0.1 * np.eye(2), [0.1, -0.05j])
        truth = truth_state.params
        n = 2
        # battery size
        specs = standard_battery(n)
        yes_no = [s for s in specs if s.outcomes == 2]
        assert len(yes_no) == 1 + 2 * n + n * (n + 1)
        assert sum(1 for s in specs if s.kind == "VN") == 1
        assert specs[-1].outcomes == vn_outcome_count(n)
        # 10^6 shots at seed 7: every parameter within 3 propagated SE
        rep = estimate(simulate_battery(truth_state, 10**6, seed=7))
        est = rep.estimates
        assert abs(est.c.real - truth.c) <= 3 * rep.stderr["c"]
        for j in range(1, n + 1):
            d = est.alpha[j - 1] - truth.mu[j - 1]
            assert abs(d.real) <= 3 * rep.stderr[f"alpha_re[{j}]"]
            assert abs(d.imag) <= 3 * rep.stderr[f"alpha_im[{j}]"]
            for k in range(j, n + 1):
                d = est.a[j - 1, k - 1] - truth.a[j - 1, k - 1]
                assert abs(d.real) <= 3 * rep.stderr[f"A_re[{j},{k}]"]
                assert abs(d.imag) <= 3 * rep.stderr[f"A_im[{j},{k}]"]
                d = est.lam[j - 1, k - 1] - truth.lam[j - 1, k - 1]
                assert abs(d.real) <= 3 * rep.stderr[f"Lambda_re[{j},{k}]"]
                if j != k:
                    assert abs(d.imag) <= 3 * rep.stderr[f"Lambda_im[{j},{k}]"]
        # scaling: quadrupling shots halves the envelope over 20 seeds.
        # The envelope runs over the sqrt(k)-consistent scalars (c, alpha, A,
        # diag Lambda); the off-diagonal Lambda entries are only quadratically
        # constrained by the battery, so no estimator is sqrt(k)-consistent
        # there (see decisions ledger).
        envelopes = {}
        for shots in (20000, 80000):
            per_seed = []
            for seed in range(20):
                r = estimate(simulate_battery(truth_state, shots, seed=100 + seed))
                errs = _tomography_errors(r, truth, include_offdiag_lambda=False)
                per_seed.append(float(np.sqrt(np.mean(errs**2))))
            envelopes[shots] = float(np.sqrt(np.mean(np.array(per_seed) ** 2)))
        ratio = envelopes[80000] / envelopes[20000]
        assert 0.4 <= ratio <= 0.6, ratio
