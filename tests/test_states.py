import math

import numpy as np
import pytest

from gausskit.errors import InvalidStateError, UnsupportedStateError
from gausskit.fock import basis_indices, dmf, pure_state_vector
from gausskit.oracles import (
    all_bipartitions,
    complete_entanglement_certificate,
    marginal_via_e2,
    partial_trace,
    partial_trace_vector_outer,
)
from gausskit.params import E2Params, state_params
from gausskit.semigroup import conjugate_by_gamma, conjugate_by_weyl
from gausskit.states import (
    GaussianState,
    characteristic_function,
    coherent,
    is_completely_entangled_pure,
    is_pure_separable,
    marginal,
    normal_form,
    number_distribution,
    smsv,
    thermal,
    tmsv,
    vacuum,
    weakest_split,
)

from conftest import params6_diff, random_state, random_symmetric


def random_pure(rng, n, norm=0.2) -> GaussianState:
    a = random_symmetric(rng, n, norm)
    return GaussianState.from_a_lambda(a, np.zeros((n, n)))


def schmidt_rank_one(state: GaussianState, left, cutoff=16) -> bool:
    # restrict to the rectangle with <= cutoff/2 particles per side, which the
    # total-number window covers completely (no truncation corner artifacts)
    right = [m for m in range(state.n) if m not in left]
    vec = pure_state_vector(state.params.a, cutoff)
    half = cutoff // 2
    bl = basis_indices(len(left), half)
    br = basis_indices(len(right), half)
    lmap = {t: i for i, t in enumerate(bl)}
    rmap = {t: i for i, t in enumerate(br)}
    mat = np.zeros((len(bl), len(br)), dtype=complex)
    for i, t in enumerate(vec.basis):
        tl = tuple(t[m] for m in left)
        tr = tuple(t[m] for m in right)
        if sum(tl) <= half and sum(tr) <= half:
            mat[lmap[tl], rmap[tr]] = vec.entries[i]
    sv = np.linalg.svd(mat, compute_uv=False)
    return bool(sv[1] / sv[0] < 1e-8)


class TestConstruction:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            GaussianState(E2Params(0.5, [0.0], [[0.0]], [[0.0]]))

    def test_rejects_invalid(self):
        with pytest.raises(InvalidStateError):
            GaussianState.from_a_lambda([[0.4]], [[0.3]])

    def test_builders(self):
        assert vacuum(2).is_pure()
        assert smsv(0.3).is_pure()
        assert tmsv(0.35).is_pure()
        assert not thermal([0.3, 0.1]).is_pure()
        st = coherent([0.5j])
        assert st.is_pure()
        np.testing.assert_allclose(st.mean(), [0.5j], atol=1e-13)


class TestCharacteristicFunction:
    def test_vacuum(self, rng):
        st = vacuum(2)
        for _ in range(5):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            want = math.exp(-0.5 * np.linalg.norm(z) ** 2)
            assert abs(characteristic_function(st, z) - want) < 1e-12

    def test_at_zero(self, rng):
        st = GaussianState(random_state(rng, 2))
        assert characteristic_function(st, np.zeros(2)) == 1.0

    def test_conjugate_symmetry_and_bound(self, rng):
        st = GaussianState(random_state(rng, 2))
        for _ in range(10):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            plus = characteristic_function(st, z)
            minus = characteristic_function(st, -z)
            assert abs(plus - np.conj(minus)) < 1e-12
            assert abs(plus) <= 1.0 + 1e-12

    def test_thermal_consistency_with_covariance(self):
        lam = 1 / 3
        st = thermal([lam])
        # S = (1+lam)/(2(1-lam)) I for one thermal mode
        s_val = (1 + lam) / (2 * (1 - lam))
        for z in (0.3, 0.2 + 0.5j, 1.0j):
            want = math.exp(-s_val * abs(z) ** 2)
            assert abs(characteristic_function(st, [z]) - want) < 1e-12

    def test_coherent_against_weyl_trace_oracle(self):
        # tr(rho W(z)) from truncated operators pins the mean-phase convention
        from gausskit.fock import general_truncate
        from gausskit.semigroup import weyl_params
        a = 0.3 + 0.5j
        st = coherent([a])
        coh = general_truncate(weyl_params([a]), 50).entries[:, 0]
        rho = np.outer(coh, coh.conj())
        for z in (0.3, 0.4j, 0.2 - 0.3j):
            w = general_truncate(weyl_params([z]), 50).entries
            got = np.trace(rho @ w)
            assert abs(got - characteristic_function(st, [z])) < 1e-12


class TestNumberDistribution:
    def test_smsv_negative_binomial(self):
        alpha = 0.3
        nd = number_distribution(smsv(alpha), 40)
        for t in range(15):
            want = math.sqrt(1 - 4 * alpha ** 2) * math.comb(2 * t, t) * alpha ** (2 * t)
            assert abs(nd[(2 * t,)] - want) < 1e-12
            assert nd[(2 * t + 1,)] == 0.0

    def test_tmsv_geometric(self):
        beta = 0.35
        nd = number_distribution(tmsv(beta), 24)
        p = 4 * beta ** 2
        for k in range(10):
            assert abs(nd[(k, k)] - (1 - p) * p ** k) < 1e-12
        assert all(v == 0.0 for t, v in nd.probs.items() if t[0] != t[1])

    def test_coherent_poisson(self):
        z = np.array([0.6, -0.3j])
        nd = number_distribution(coherent(z), 16)
        for t1 in range(4):
            for t2 in range(4):
                want = (math.exp(-abs(z[0]) ** 2) * abs(z[0]) ** (2 * t1) / math.factorial(t1)
                        * math.exp(-abs(z[1]) ** 2) * abs(z[1]) ** (2 * t2) / math.factorial(t2))
                assert abs(nd[(t1, t2)] - want) < 1e-12

    def test_nonnegative_and_tail(self, rng):
        st = GaussianState(random_state(rng, 2))
        nd = number_distribution(st, 14)
        assert all(v >= 0.0 for v in nd.probs.values())
        assert 0.0 <= nd.tail <= 1.0


class TestMarginal:
    def test_product_state_factors(self, rng):
        a1 = random_symmetric(rng, 1, 0.15)
        a2 = random_symmetric(rng, 2, 0.15)
        a = np.block([[a1, np.zeros((1, 2))], [np.zeros((2, 1)), a2]])
        lam1 = np.array([[0.2]])
        lam2 = 0.1 * np.eye(2)
        lam = np.block([[lam1, np.zeros((1, 2))], [np.zeros((2, 1)), lam2]])
        st = GaussianState.from_a_lambda(a, lam)
        sub = marginal(st, [0])
        assert params6_diff(sub.params.as_general(),
                            state_params(a1, lam1).as_general()) < 1e-10

    def test_tmsv_marginal_thermal(self):
        beta = 0.35
        sub = marginal(tmsv(beta), [0])
        assert np.abs(sub.params.a).max() < 1e-12
        assert abs(sub.params.lam[0, 0] - 4 * beta ** 2) < 1e-10
        assert abs(sub.params.c - (1 - 4 * beta ** 2)) < 1e-10

    def test_vacuum_marginal(self):
        sub = marginal(vacuum(3), [1, 2])
        assert params6_diff(sub.params.as_general(), vacuum(2).params.as_general()) < 1e-12

    def test_against_partial_trace_oracle(self, rng):
        for n, keep in ((2, [0]), (3, [0, 2]), (3, [1])):
            p = random_state(rng, n, with_mean=False, a_norm=0.12, lam_norm=0.15)
            st = GaussianState(p)
            sub = marginal(st, keep)
            cutoff = 20
            rho = dmf(p.a, p.lam, cutoff)
            red = partial_trace(rho, keep)
            direct = dmf(sub.params.a, sub.params.lam, cutoff)
            # compare entries well inside the window, where the traced sum is complete
            inner = [i for i, t in enumerate(red.basis) if sum(t) <= 6]
            diff = np.abs(red.entries[np.ix_(inner, inner)]
                          - direct.entries[np.ix_(inner, inner)]).max()
            assert diff < 1e-8

    def test_e2_oracle_matches_covariance_path(self, rng):
        # the direct E2 formula (1/4 on A, 1/2 on Lambda) against marginal()
        beta = 0.35
        assert abs(marginal_via_e2(tmsv(beta), [0]).lam[0, 0] - 4 * beta ** 2) < 1e-12
        for _ in range(40):
            n = int(rng.integers(2, 6))
            st = GaussianState(random_state(rng, n, with_mean=False))
            keep = sorted(rng.permutation(n)[: int(rng.integers(1, n))].tolist())
            want = marginal(st, keep).params
            got = marginal_via_e2(st, keep)
            assert abs(got.c - want.c) < 1e-12
            assert np.abs(got.a - want.a).max() < 1e-12
            assert np.abs(got.lam - want.lam).max() < 1e-12

    def test_rejects_bad_subsets(self):
        st = vacuum(2)
        with pytest.raises(ValueError):
            marginal(st, [])
        with pytest.raises(ValueError):
            marginal(st, [0, 1])


class TestSeparability:
    def test_tmsv_entangled(self):
        assert not is_pure_separable(tmsv(0.3), [0])

    def test_block_diagonal_separable(self, rng):
        a1 = random_symmetric(rng, 1, 0.2)
        a2 = random_symmetric(rng, 1, 0.2)
        a = np.block([[a1, np.zeros((1, 1))], [np.zeros((1, 1)), a2]])
        st = GaussianState.from_a_lambda(a, np.zeros((2, 2)))
        assert is_pure_separable(st, [0])

    def test_matches_schmidt_rank(self, rng):
        for n in (2, 3):
            for _ in range(10):
                st = random_pure(rng, n)
                for left, _right in all_bipartitions(n):
                    assert is_pure_separable(st, left) == schmidt_rank_one(st, left)

    def test_rejects_mixed(self):
        with pytest.raises(UnsupportedStateError):
            is_pure_separable(thermal([0.3, 0.2]), [0])


def offdiag_norm(st: GaussianState, split) -> float:
    left, right = split
    return float(np.linalg.norm(st.params.a[np.ix_(left, right)]))


class TestCompleteEntanglement:
    def test_theta_family(self):
        for n in range(2, 7):
            theta = 0.2 / (n - 1)
            a = theta * (np.ones((n, n)) - np.eye(n))
            st = GaussianState.from_a_lambda(a, np.zeros((n, n)))
            assert is_completely_entangled_pure(st)
            assert complete_entanglement_certificate(st)
            scale = 1.0 + np.abs(a).max()
            assert offdiag_norm(st, weakest_split(st)) > st.tol * scale

    def test_block_diagonal_not_complete(self, rng):
        a1 = random_symmetric(rng, 1, 0.2)
        a2 = random_symmetric(rng, 2, 0.2)
        a = np.block([[a1, np.zeros((1, 2))], [np.zeros((2, 1)), a2]])
        st = GaussianState.from_a_lambda(a, np.zeros((3, 3)))
        assert not is_completely_entangled_pure(st)
        assert not complete_entanglement_certificate(st)
        assert weakest_split(st) == ([0], [1, 2])

    def test_certificate_implies_complete(self, rng):
        certified = 0
        for n in range(2, 7):
            for trial in range(20):
                a = random_symmetric(rng, n, 0.2)
                if trial % 2:
                    a[rng.random((n, n)) < 0.15] = 0.0
                    a = np.triu(a) + np.triu(a, 1).T
                st = GaussianState.from_a_lambda(a, np.zeros((n, n)))
                if complete_entanglement_certificate(st):
                    certified += 1
                    assert is_completely_entangled_pure(st)
        assert 0 < certified < 100

    def test_three_mode_zero_diagonal(self, rng):
        a = np.array([[0.0, 0.11, 0.06 - 0.02j],
                      [0.11, 0.0, 0.08j],
                      [0.06 - 0.02j, 0.08j, 0.0]])
        assert np.linalg.norm(a, 2) < 0.5
        st = GaussianState.from_a_lambda(a, np.zeros((3, 3)))
        assert is_completely_entangled_pure(st)

    def test_min_cut_matches_split_scan(self, rng):
        def scan(st, tol):
            return all(not is_pure_separable(st, left, tol)
                       for left, _ in all_bipartitions(st.n))

        tol = 1e-3
        seen = set()
        for n in range(2, 8):
            for trial in range(30):
                a = random_symmetric(rng, n, 0.2)
                if n == 2 or trial % 3 == 0:
                    drop = rng.random((n, n)) < 0.4
                    a[drop | drop.T] = 0.0
                else:
                    # band state: every crossing entry below tol * scale and
                    # the block norm 0.6 or 1.3 times it (|L||R| >= 2)
                    perm = rng.permutation(n)
                    left = perm[: int(rng.integers(1, n))]
                    right = perm[len(left):]
                    a[np.ix_(left, right)] = 0.0
                    a[np.ix_(right, left)] = 0.0
                    scale = 1.0 + np.abs(a).max()
                    factor = 0.6 if trial % 3 == 1 else 1.3
                    eps = factor * tol * scale / math.sqrt(len(left) * len(right))
                    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (len(left), len(right))))
                    a[np.ix_(left, right)] = eps * phases
                    a[np.ix_(right, left)] = eps * phases.T
                    assert 1.0 + np.abs(a).max() == scale
                    assert eps < tol * scale
                st = GaussianState.from_a_lambda(a, np.zeros((n, n)))
                want = scan(st, tol)
                seen.add(want)
                assert is_completely_entangled_pure(st, tol) is want
                least = min(offdiag_norm(st, split) for split in all_bipartitions(n))
                left, right = weakest_split(st)
                assert left[0] == 0 and left == sorted(left) and right == sorted(right)
                assert sorted(left + right) == list(range(n))
                assert offdiag_norm(st, (left, right)) == pytest.approx(least, rel=1e-12)
        assert seen == {True, False}

    def test_sixteen_modes(self, rng):
        st = random_pure(rng, 16)
        assert is_completely_entangled_pure(st) is True

    def test_weakest_split_of_tmsv(self):
        st = tmsv(0.3)
        assert weakest_split(st) == ([0], [1])
        assert not is_pure_separable(st, [0])
        assert offdiag_norm(st, weakest_split(st)) == pytest.approx(0.3)

    def test_weakest_split_needs_pure_and_two_modes(self):
        assert weakest_split(smsv(0.2)) is None
        with pytest.raises(UnsupportedStateError):
            weakest_split(thermal([0.3, 0.2]))


class TestNormalForm:
    def test_canonical_fixed_point(self):
        st = thermal([0.4, 0.2])
        nf = normal_form(st)
        assert np.abs(nf.displacement).max() < 1e-12
        np.testing.assert_allclose(np.abs(nf.unitary), np.eye(2), atol=1e-9)
        assert params6_diff(nf.canonical.as_general(), st.params.as_general()) < 1e-10

    def test_pure_state_becomes_product_of_singular_values(self, rng):
        st = random_pure(rng, 3)
        nf = normal_form(st)
        d = np.linalg.svd(st.params.a, compute_uv=False)
        np.testing.assert_allclose(np.diag(nf.canonical.a).real, d, atol=1e-10)
        off = nf.canonical.a - np.diag(np.diag(nf.canonical.a))
        assert np.abs(off).max() < 1e-10

    def test_round_trip(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 4))
            p = random_state(rng, n)
            st = GaussianState(p)
            nf = normal_form(st)
            assert np.abs(nf.canonical.mu).max() < 1e-10
            lam_diag = np.diag(nf.canonical.lam).real
            assert np.all(np.diff(lam_diag) <= 1e-10)
            back = conjugate_by_gamma(nf.canonical, nf.unitary.conj().T)
            back = conjugate_by_weyl(back, -nf.displacement)
            assert params6_diff(back.as_general(), p.as_general()) < 1e-9


class TestPartialTraceVectorOracle:
    def test_matches_dense_partial_trace(self, rng):
        st = random_pure(rng, 2, 0.18)
        vec = pure_state_vector(st.params.a, 12)
        fast = partial_trace_vector_outer(vec, [0])
        dense = partial_trace(dmf(st.params.a, st.params.lam, 12), [0])
        np.testing.assert_allclose(fast.entries, dense.entries, atol=1e-10)
