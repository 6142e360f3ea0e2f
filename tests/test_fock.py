import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausskit import fock, io
from gausskit.core import c_factor
from gausskit.errors import InvalidStateError
from gausskit.fock import (
    basis_indices,
    dmf,
    e_a_matrix,
    gamma_matrix,
    general_truncate,
    matrix_element,
    multi_binomial,
    multi_factorial,
    phi,
    pure_state_vector,
    z1_matrix,
)
from gausskit.oracles import (
    enumerate_delta,
    gamma_entry_enumerated,
    mixing_kernel_element,
    series_coefficient,
    truncated_exp_annihilation,
)
from gausskit.params import GeneralE2Params, state_params
from gausskit.semigroup import weyl_params

from conftest import random_state, random_symmetric, random_psd


occupations = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4)


class TestMultiIndex:
    def test_conventions(self):
        assert multi_factorial((3, 0, 2)) == 12
        assert multi_binomial((3, 2), (1, 2)) == 3
        assert multi_binomial((3, 2), (1, 3)) == 0

    @settings(max_examples=50, deadline=None)
    @given(occupations, st.data())
    def test_binomial_symmetry(self, t, data):
        s = data.draw(st.lists(st.integers(min_value=0, max_value=6),
                               min_size=len(t), max_size=len(t)))
        # binom(t, s) = binom(t, t - s) when s <= t
        if all(x <= y for x, y in zip(s, t)):
            diff = tuple(y - x for x, y in zip(s, t))
            assert multi_binomial(t, s) == multi_binomial(t, diff)

    def test_basis_graded_lex(self):
        basis = basis_indices(2, 3)
        assert basis[0] == (0, 0)
        degrees = [sum(t) for t in basis]
        assert degrees == sorted(degrees)
        assert len(basis) == math.comb(3 + 2, 2)
        assert basis.index((0, 2)) < basis.index((1, 1)) < basis.index((2, 0))


def deltas(tuples) -> list[list[tuple]]:
    """Delta(t) per tuple as fock._delta lays it out, each R as row tuples."""
    occ = np.array(tuples, dtype=np.int64).reshape(len(tuples), -1)
    (pi, pj, pr), slots, scale, width, place = fock._delta(occ)
    mats = np.zeros((len(scale), occ.shape[1], occ.shape[1]), dtype=np.int64)
    for rows, key in slots:
        mats[rows, pi[key], pj[key]] = pr[key]
    out = [[] for _ in tuples]
    for at, r in sorted(zip(place.tolist(), mats.tolist())):  # by t, then summation order
        out[at // width].append(tuple(map(tuple, r)))
    return out


def delta(t) -> list[tuple]:
    return deltas([t])[0]


class TestDelta:
    def test_one_mode(self):
        assert delta((4,)) == [((2,),)]
        assert delta((7,)) == []

    def test_two_mode_count(self):
        for k in range(4):
            for l in range(4):
                assert len(delta((2 * k, 2 * l))) == min(k, l) + 1
                assert len(delta((2 * k + 1, 2 * l + 1))) == min(k, l) + 1

    def test_odd_total_empty(self):
        assert delta((1, 2)) == []
        assert delta((3, 0, 2)) == []

    def test_row_column_sums(self):
        for r in delta((2, 3, 1)):
            arr = np.array(r)
            tilde = arr.sum(axis=0) + arr.sum(axis=1)
            np.testing.assert_array_equal(tilde, [2, 3, 1])

    def test_deterministic_order(self):
        assert delta((2, 2)) == delta((2, 2))

    def test_oracle_order(self, rng):
        # phi_B sums in this order, so window bytes depend on it; the tuples
        # are enumerated together, as a window's basis is
        for n in range(1, 7):
            tuples = [tuple(int(x) for x in rng.multinomial(rng.integers(0, 9), [1 / n] * n))
                      for _ in range(10)] + [(0,) * n, (1,) + (0,) * (n - 1)]
            assert any(sum(t) % 2 for t in tuples)
            assert deltas(tuples) == [enumerate_delta(t) for t in tuples]


class TestPhi:
    def test_one_mode_closed_form(self):
        alpha = 0.21 - 0.1j
        for k in range(9):
            want = math.sqrt(math.comb(2 * k, k)) * alpha ** k
            assert abs(phi([[alpha]], (2 * k,)) - want) < 1e-12
            assert phi([[alpha]], (2 * k + 1,)) == 0.0

    def test_tmsv_diagonal_support(self):
        beta = 0.2 + 0.1j
        b = np.array([[0.0, beta], [beta, 0.0]])
        for k in range(7):
            assert abs(phi(b, (k, k)) - (2 * beta) ** k) < 1e-12
        assert phi(b, (2, 1)) == 0.0
        assert phi(b, (1, 3)) == 0.0

    def test_triangular_family(self):
        # A = [[alpha, beta], [beta, 0]]: support t2 <= t1 with t1 - t2 even
        alpha, beta = 0.1 - 0.05j, 0.17
        a = np.array([[alpha, beta], [beta, 0.0]])
        for t in range(7):
            for k in range(t // 2 + 1):
                want = (math.sqrt(math.factorial(t) * math.factorial(t - 2 * k))
                        * alpha ** k * (2 * beta) ** (t - 2 * k)
                        / (math.factorial(k) * math.factorial(t - 2 * k)))
                assert abs(phi(a, (t, t - 2 * k)) - want) < 1e-12
        assert phi(a, (1, 2)) == 0.0

    def test_three_mode_zero_diagonal(self):
        a12, a13, a23 = 0.11, 0.07 - 0.03j, 0.09j
        a = np.array([[0, a12, a13], [a12, 0, a23], [a13, a23, 0]])
        for t in [(1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 2, 1), (4, 3, 1), (2, 0, 2)]:
            k, rem = divmod(sum(t), 2)
            assert rem == 0
            if max(t) > k:
                want = 0.0
            else:
                want = (math.sqrt(multi_factorial(t)) * 2 ** k
                        * a12 ** (k - t[2]) * a23 ** (k - t[0]) * a13 ** (k - t[1])
                        / (math.factorial(k - t[0]) * math.factorial(k - t[1])
                           * math.factorial(k - t[2])))
            assert abs(phi(a, t) - want) < 1e-12

    def test_against_series_oracle(self, rng):
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            b = random_symmetric(rng, n, norm=float(rng.uniform(0.1, 0.6)))
            t = tuple(int(x) for x in rng.integers(0, 5, size=n))
            if sum(t) > 10:
                continue
            worst = max(worst, abs(phi(b, t) - series_coefficient(b, None, t)))
        assert worst <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(occupations, st.integers(min_value=0, max_value=10**6))
    def test_odd_parity_vanishes(self, t, seed):
        rng = np.random.default_rng(seed)
        b = random_symmetric(rng, len(t), 0.4)
        if sum(t) % 2:
            assert phi(b, t) == 0.0


def gamma_entry(lam, k, l) -> complex:
    """<k|Gamma(Lambda)|l> read from the window matrix."""
    lam = np.atleast_2d(lam)
    basis = basis_indices(lam.shape[0], max(sum(k), sum(l)))
    gm = gamma_matrix(lam, max(sum(k), sum(l)))
    return complex(gm[basis.index(tuple(k)), basis.index(tuple(l))])


class TestGammaEntries:
    def test_vacuum(self):
        assert gamma_entry(np.eye(2), (0, 0), (0, 0)) == 1.0

    def test_diagonal(self):
        lam = np.diag([0.3, 0.7])
        assert abs(gamma_entry(lam, (2, 1), (2, 1)) - 0.3**2 * 0.7) < 1e-14
        assert gamma_entry(lam, (2, 1), (1, 2)) == 0.0

    def test_particle_number_mismatch(self):
        assert gamma_entry(np.ones((2, 2)), (1, 0), (1, 1)) == 0.0

    def test_against_enumeration(self, rng):
        lam = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for k in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
            for l in [(0, 1), (1, 1), (1, 2), (2, 2), (2, 2)]:
                got = gamma_entry(lam, k, l)
                want = gamma_entry_enumerated(lam, k, l)
                assert abs(got - want) < 1e-12

    def test_matrix_blocks(self, rng):
        lam = random_psd(rng, 2, 0.8)
        basis = basis_indices(2, 5)
        gm = gamma_matrix(lam, 5)
        for i, k in enumerate(basis):
            for j, l in enumerate(basis):
                if sum(k) != sum(l):
                    assert gm[i, j] == 0.0
                elif sum(k) <= 3:
                    assert abs(gm[i, j] - gamma_entry_enumerated(lam, k, l)) < 1e-12


class TestEA:
    def test_zero_gives_identity(self):
        op = e_a_matrix(np.zeros((2, 2)), 4)
        np.testing.assert_array_equal(op.entries, np.eye(op.dim))

    def test_unit_lower_triangular(self, rng):
        op = e_a_matrix(random_symmetric(rng, 2, 0.3), 5)
        np.testing.assert_allclose(np.diagonal(op.entries), 1.0)
        upper = np.triu(op.entries, 1)
        assert np.abs(upper).max() == 0.0  # graded order makes E_A lower triangular

    def test_two_particle_entry(self):
        alpha = 0.13 - 0.22j
        op = e_a_matrix([[alpha]], 4)
        assert abs(op.element((2,), (0,)) - math.sqrt(2) * alpha) < 1e-14

    def test_against_exp_oracle(self, rng):
        b = random_symmetric(rng, 2, 0.4)
        direct = e_a_matrix(b, 7)
        exp_op = truncated_exp_annihilation(b, 7)
        # <s|exp(a^T B a)|t> = E_B(t, s)
        np.testing.assert_allclose(exp_op.entries, direct.entries.T, atol=1e-12)


class TestDMF:
    def test_vacuum_projector(self):
        rho = dmf(np.zeros((2, 2)), np.zeros((2, 2)), 3)
        want = np.zeros((rho.dim, rho.dim))
        want[0, 0] = 1.0
        np.testing.assert_array_equal(rho.entries, want)

    def test_thermal_diagonal(self):
        lam = 0.45
        rho = dmf([[0.0]], [[lam]], 15)
        np.testing.assert_allclose(rho.entries.diagonal().real,
                                   (1 - lam) * lam ** np.arange(16), atol=1e-14)
        assert np.abs(rho.entries - np.diag(rho.entries.diagonal())).max() == 0.0

    def test_one_mode_mixed_entries(self):
        # entry formula with (alpha, lambda) = (0.2, 0.3), t, t' <= 10
        alpha, lam = 0.2, 0.3
        rho = dmf([[alpha]], [[lam]], 10)
        c = math.sqrt((1 - lam) ** 2 - 4 * alpha ** 2)
        for t in range(11):
            for tp in range(11):
                total = 0.0
                for s in range(min(t, tp) + 1):
                    if (t - s) % 2 or (tp - s) % 2:
                        continue
                    total += (math.sqrt(math.factorial(t) * math.factorial(tp))
                              / (math.factorial(s) * math.factorial((t - s) // 2)
                                 * math.factorial((tp - s) // 2))
                              * alpha ** ((t - s) // 2) * alpha ** ((tp - s) // 2)
                              * lam ** s)
                assert abs(rho.element((t,), (tp,)) - c * total) < 1e-12

    def test_hermitian_psd_unit_trace_monotone(self, rng):
        p = random_state(rng, 2, with_mean=False)
        traces = []
        for cutoff in (4, 8, 12, 16):
            rho = dmf(p.a, p.lam, cutoff)
            evals = np.linalg.eigvalsh(rho.entries)
            assert evals[0] >= -1e-10
            traces.append(rho.trace().real)
        assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(traces, traces[1:]))
        assert traces[-1] <= 1.0 + 1e-10

    def test_rejects_invalid(self):
        with pytest.raises(InvalidStateError):
            dmf([[0.3]], [[0.5]], 4)

    def test_nearly_hermitian_lambda_gives_hermitian_window(self, rng):
        # Lambda hermitian to ~3e-12: inside tol, outside the 1e-12 self-adjointness test
        p = random_state(rng, 2, with_mean=False)
        lam = p.lam.copy()
        lam[0, 1] += 3e-12
        rho = dmf(p.a, lam, 6)
        assert rho.hermitian is True
        assert np.array_equal(rho.entries, rho.entries.conj().T)

    def test_mixing_kernel_oracle(self, rng):
        # oracles.mixing_kernel_element builds entries from phi_A and c(A, .) alone
        for n, cutoff in ((1, 10), (2, 6)):
            a = random_symmetric(rng, n, 0.14)
            lam_vec = rng.uniform(0.05, 0.3, size=n)
            rho = dmf(a, np.diag(lam_vec), cutoff)
            for i, j in rng.integers(0, rho.dim, size=(30, 2)):
                t, s = rho.basis[i], rho.basis[j]
                assert abs(rho.entries[i, j] - mixing_kernel_element(a, lam_vec, t, s)) < 1e-12


class TestPreflight:
    def test_cutoff_170_is_the_last_served(self):
        assert np.isfinite(dmf([[0.1]], [[0.2]], 170).entries).all()
        assert np.isfinite(pure_state_vector([[0.2]], 170).entries).all()

    def test_cutoff_above_170_refused(self):
        with pytest.raises(ValueError, match="cutoff 171"):
            dmf([[0.1]], [[0.2]], 171)
        with pytest.raises(ValueError, match="cutoff 171"):
            pure_state_vector([[0.2]], 171)

    def test_window_beyond_memory_refused_before_enumeration(self, monkeypatch):
        monkeypatch.setattr(fock, "basis_indices", lambda *args: pytest.fail("enumerated"))
        zero = np.zeros((6, 6))
        with pytest.raises(ValueError, match="dimension 9366819"):
            dmf(zero, zero, 40)
        with pytest.raises(ValueError, match="dimension 9366819"):
            general_truncate(state_params(zero, zero, np.full(6, 0.1)).as_general(), 40)


class TestWindowMemory:
    """A window build holds no more dense dim x dim arrays than check_window
    budgets for it (its shape's index structure is cached beforehand)."""

    @pytest.mark.parametrize("n, cutoff", [(3, 12), (4, 9)])
    def test_peak_within_preflight_budget(self, rng, n, cutoff):
        zero, displaced = random_state(rng, n, with_mean=False), random_state(rng, n)
        builds = {"dmf": lambda: dmf(zero.a, zero.lam, cutoff),
                  "general_truncate": lambda: general_truncate(displaced.as_general(), cutoff)}
        for build in builds.values():
            build()
        budget = fock._LIVE_MATRICES * 16 * fock._shape(n, cutoff).dim ** 2
        for name, build in builds.items():
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget, f"{name}: {peak / budget:.2f} of the budget"


class TestIndexStructure:
    """The per-(n, cutoff) structure caches: bounded, rebuilt bit for bit,
    never shared with callers, and counted by the memory preflight."""

    @staticmethod
    def caches():
        return [f for f in vars(fock).values() if hasattr(f, "cache_info")]

    def test_bounded_and_rebuilt_bit_equal(self, rng):
        p = random_state(rng, 2)
        q = random_state(rng, 1, with_mean=False)
        first = general_truncate(p.as_general(), 4).entries
        first_dmf = dmf(q.a, q.lam, 5).entries
        for cache in self.caches():
            bound = cache.cache_info().maxsize
            for cutoff in range(6, 6 + bound + 2):  # more one-mode shapes than the bound
                general_truncate(state_params(q.a, q.lam, [0.3 - 0.1j]).as_general(), cutoff)
                assert cache.cache_info().currsize <= bound
        misses = fock._shape.cache_info().misses
        again = general_truncate(p.as_general(), 4).entries
        again_dmf = dmf(q.a, q.lam, 5).entries
        assert fock._shape.cache_info().misses == misses + 2  # both shapes were rebuilt
        assert again.tobytes() == first.tobytes()
        assert again_dmf.tobytes() == first_dmf.tobytes()

    def test_many_modes(self):
        # C(2n, n) overflows int64 at n = 70; the ranking never needs more than dim
        np.testing.assert_allclose(gamma_matrix(np.eye(70), 2), np.eye(math.comb(72, 2)),
                                   rtol=0, atol=1e-15)

    def test_many_modes_state_vector(self, rng):
        # Delta(t) is enumerated without recursion, however many cells B has
        n = 70
        a = random_symmetric(rng, n, 0.3)
        root_c = math.sqrt(c_factor(a, np.zeros((n, n))))
        want = {(0,) * n: 1.0}
        for j in range(n):
            for k in range(j, n):
                t = [0] * n
                t[j] += 1
                t[k] += 1
                want[tuple(t)] = math.sqrt(2) * a[j, j] if j == k else 2 * a[j, k]
        vec = pure_state_vector(a, 2)
        expected = np.array([root_c * want.get(t, 0.0) for t in vec.basis])
        np.testing.assert_allclose(vec.entries, expected, rtol=1e-15, atol=0)

    def test_basis_indices_returns_a_new_list(self):
        basis = basis_indices(2, 3)
        want = list(basis)
        basis[0] = (9, 9)
        basis.append((7, 7))
        assert basis_indices(2, 3) == want
        assert dmf(np.zeros((2, 2)), np.zeros((2, 2)), 3).basis == tuple(want)

    def test_preflight_counts_index_structure(self, monkeypatch):
        seen = []
        monkeypatch.setattr(fock, "check_memory", lambda nbytes, what: seen.append((nbytes, what)))
        fock.check_window(2, 30)
        fock.check_window(2, 30, square=False)
        dim = math.comb(32, 2)
        held = sum(x.nbytes for x in fock._shape(2, 30).pairs[:4])
        assert seen[0][0] >= 16 * 4 * dim * dim + held
        assert seen[1][0] >= 16 * dim + held
        assert "index structure" in seen[0][1]

    def test_refused_window_builds_no_structure(self):
        fock._shape.cache_clear()
        zero = np.zeros((6, 6))
        with pytest.raises(ValueError, match="dimension 9366819"):
            dmf(zero, zero, 40)
        assert fock._shape.cache_info().currsize == 0


class TestTupleLengths:
    def test_phi_names_the_expected_length(self):
        b = [[0.1, 0.02], [0.02, 0.05]]
        with pytest.raises(ValueError, match="t must hold 2 occupation numbers"):
            phi(b, (2,))
        with pytest.raises(ValueError, match="t must hold 2 occupation numbers"):
            phi(b, (2, 0, 0))

    def test_matrix_element_names_the_expected_length(self, rng):
        p = random_state(rng, 2, with_mean=False)
        with pytest.raises(ValueError, match="t must hold 2 occupation numbers"):
            matrix_element(p.a, p.lam, (1,), (1,))
        with pytest.raises(ValueError, match="t must hold 2 occupation numbers"):
            matrix_element(p.a, p.lam, (1, 0, 1), (1,))
        with pytest.raises(ValueError, match="s must hold 2 occupation numbers"):
            matrix_element(p.a, p.lam, (1, 0), (1,))


class TestMatrixElement:
    def test_matches_window(self, rng):
        a = random_symmetric(rng, 2, 0.12)
        lam = random_psd(rng, 2, 0.3)
        rho = dmf(a, lam, 6)
        for t in [(0, 0), (1, 1), (2, 0), (3, 2), (1, 2)]:
            for s in [(0, 0), (2, 0), (2, 2), (1, 1)]:
                assert abs(matrix_element(a, lam, t, s) - rho.element(t, s)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_series_oracle(self, rng, n):
        a = random_symmetric(rng, n, 0.12)
        lam = random_psd(rng, n, 0.3)  # hermitian with complex off-diagonal entries
        q = np.block([[a, 0.5 * lam], [0.5 * lam.T, a.conj()]])
        c = c_factor(a, lam)
        for _ in range(12):
            t = tuple(int(x) for x in rng.multinomial(rng.integers(0, 4), [1 / n] * n))
            s = tuple(int(x) for x in rng.multinomial(rng.integers(0, 4), [1 / n] * n))
            want = c * series_coefficient(q, None, t + s)
            assert abs(matrix_element(a, lam, t, s) - want) < 1e-13

    def test_six_modes_matches_window(self, rng):
        p = random_state(rng, 6, with_mean=False)
        rho = dmf(p.a, p.lam, 4)
        t, s = (1, 0, 2, 0, 1, 0), (0, 1, 1, 0, 0, 2)
        assert abs(rho.element(t, s)) > 1e-8
        assert abs(matrix_element(p.a, p.lam, t, s) - rho.element(t, s)) < 1e-12

    def test_mixing_kernel_identity(self, rng):
        for n in (1, 2):
            a = random_symmetric(rng, n, 0.14)
            lam_vec = np.abs(rng.uniform(0.05, 0.3, size=n))
            lam = np.diag(lam_vec.astype(complex))
            for _ in range(20):
                t = tuple(int(x) for x in rng.integers(0, 8, size=n))
                s = tuple(int(x) for x in rng.integers(0, 8, size=n))
                got = mixing_kernel_element(a, lam_vec, t, s)
                want = matrix_element(a, lam, t, s)
                assert abs(got - want) < 1e-10


class TestPureStateVector:
    def test_vacuum(self):
        vec = pure_state_vector(np.zeros((2, 2)), 3)
        want = np.zeros(vec.dim)
        want[0] = 1.0
        np.testing.assert_array_equal(vec.entries, want)

    def test_smsv_amplitudes(self):
        alpha = 0.3
        vec = pure_state_vector([[alpha]], 12)
        for t in range(6):
            want = (1 - 4 * alpha ** 2) ** 0.25 * math.sqrt(math.comb(2 * t, t)) * alpha ** t
            assert abs(vec.element((2 * t,)) - want) < 1e-13
            assert vec.element((2 * t + 1,)) == 0.0

    def test_tmsv_amplitudes(self):
        beta = 0.25
        a = np.array([[0.0, beta], [beta, 0.0]])
        vec = pure_state_vector(a, 12)
        for k in range(6):
            want = math.sqrt(1 - abs(2 * beta) ** 2) * (2 * beta) ** k
            assert abs(vec.element((k, k)) - want) < 1e-13
        assert vec.element((1, 2)) == 0.0

    def test_three_mode_closed_form(self):
        theta = 0.08
        a = theta * (np.ones((3, 3)) - np.eye(3))
        vec = pure_state_vector(a, 8)
        root_c = math.sqrt(c_factor(a, np.zeros((3, 3))))
        for t in [(0, 0, 0), (1, 1, 0), (2, 2, 2), (2, 1, 1), (3, 2, 1), (2, 2, 0)]:
            k = sum(t) // 2
            if max(t) > k:
                want = 0.0
            else:
                want = (root_c * 2 ** k * theta ** (3 * k - sum(t))
                        * math.sqrt(multi_factorial(t))
                        / (math.factorial(k - t[0]) * math.factorial(k - t[1])
                           * math.factorial(k - t[2])))
            assert abs(vec.element(t) - want) < 1e-12

    def test_norm_deficit_is_tail(self):
        vec = pure_state_vector([[0.2]], 30)
        assert vec.norm() <= 1.0 + 1e-12
        assert 1.0 - vec.norm() ** 2 < 1e-12

    def test_rejects_non_contraction(self):
        with pytest.raises(InvalidStateError):
            pure_state_vector([[0.5]], 4)

    def test_displaced_outer_product_is_window(self, rng):
        for n in (1, 2, 3):
            for _ in range(3):
                a = random_symmetric(rng, n, 0.2)
                mu = 0.4 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                p = state_params(a, np.zeros((n, n)), mu)
                vec = pure_state_vector(a, 6, mu=mu)
                rho = general_truncate(p.as_general(), 6).entries
                assert np.abs(np.outer(vec.entries, vec.entries.conj()) - rho).max() <= 1e-15


class TestZ1:
    def test_lambda_zero_row_structure(self, rng):
        a = random_symmetric(rng, 2, 0.15)
        p = state_params(a, np.zeros((2, 2)))
        z1 = z1_matrix(p, 6)
        # Gamma(0) leaves only the vacuum row: row 0 = sqrt(c) phi_conj(A)(t)
        table = [phi(a.conj(), t) for t in z1.basis]
        np.testing.assert_allclose(z1.entries[0, :],
                                   math.sqrt(p.c) * np.array(table), atol=1e-12)
        assert np.abs(z1.entries[1:, :]).max() == 0.0

    def test_action_formula(self, rng):
        # Z1|t> = sqrt(c) sum_s sqrt(binom(t, s)) phi_conj(A)(t - s) sqrtLam^(x)|s>
        a = random_symmetric(rng, 1, 0.12)
        lam = np.array([[0.3]])
        p = state_params(a, lam)
        z1 = z1_matrix(p, 8)
        root = math.sqrt(0.3)
        for t in range(6):
            col = np.zeros(9, dtype=complex)
            for s in range(t + 1):
                if (t - s) % 2:
                    continue
                col[s] = (math.sqrt(p.c) * math.sqrt(math.comb(t, s))
                          * phi(a.conj(), (t - s,)) * root ** s)
            np.testing.assert_allclose(z1.entries[:, t], col, atol=1e-12)

    def test_factorization(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 3))
            p = random_state(rng, n, with_mean=False)
            z1 = z1_matrix(p, 12)
            rho = dmf(p.a, p.lam, 12)
            assert np.abs(z1.entries.conj().T @ z1.entries - rho.entries).max() < 1e-12

    def test_factorization_with_mean(self, rng):
        p = random_state(rng, 2, with_mean=True)
        z1 = z1_matrix(p, 10)
        window = general_truncate(p.as_general(), 10)
        assert np.abs(z1.entries.conj().T @ z1.entries - window.entries).max() < 1e-12


class TestGeneralTruncate:
    def test_identity_params(self):
        from gausskit.semigroup import identity_params
        op = general_truncate(identity_params(2), 4)
        np.testing.assert_allclose(op.entries, np.eye(op.dim), atol=1e-14)

    def test_weyl_vacuum_entry(self):
        z = 0.37 - 0.41j
        op = general_truncate(weyl_params([z]), 6)
        assert abs(op.element((0,), (0,)) - np.exp(-abs(z) ** 2 / 2)) < 1e-14

    def test_weyl_column_is_coherent_state(self):
        z = 0.3 + 0.2j
        op = general_truncate(weyl_params([z]), 20)
        coh = np.exp(-abs(z) ** 2 / 2) * np.array(
            [z ** k / math.sqrt(math.factorial(k)) for k in range(21)])
        np.testing.assert_allclose(op.entries[:, 0], coh, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_six_tuple_against_series_oracle(self, rng, n):
        # <t|Z|s> = c * sqrt(t! s!) [u^t v^s] exp(l^T x + x^T Q x), x = (u, v)
        p = _six_tuple(rng, n)
        q = np.block([[p.a, 0.5 * p.lam], [0.5 * p.lam.T, p.b]])
        op = general_truncate(p, 4)
        for i, j in rng.integers(0, op.dim, size=(12, 2)):
            t, s = op.basis[i], op.basis[j]
            want = p.c * series_coefficient(q, np.concatenate([p.alpha, p.beta]), t + s)
            assert abs(op.entries[i, j] - want) < 1e-13

    def test_matches_dmf_for_states(self, rng):
        p = random_state(rng, 2, with_mean=False)
        got = general_truncate(p.as_general(), 8)
        want = dmf(p.a, p.lam, 8)
        np.testing.assert_allclose(got.entries, want.entries, atol=1e-12)
        assert got.hermitian


class TestExports:
    def test_operator_json_round_trip(self):
        rho = dmf([[0.1]], [[0.2]], 3)
        data = json.loads(io.dumps(rho.to_json_dict()))
        assert data["n"] == 1 and data["cutoff"] == 3
        flat = [complex(re, im) for re, im in data["entries"]]
        np.testing.assert_allclose(np.array(flat).reshape(rho.dim, rho.dim),
                                   rho.entries)

    def test_operator_csv_shape(self):
        rho = dmf([[0.1]], [[0.2]], 2)
        lines = rho.to_csv().strip().split("\n")
        assert lines[0] == "t1,s1,re,im"
        assert len(lines) == 1 + rho.dim ** 2

    def test_vector_csv(self):
        vec = pure_state_vector([[0.2]], 2)
        lines = vec.to_csv().strip().split("\n")
        assert lines[0] == "t1,re,im"
        assert len(lines) == 1 + vec.dim


class TestCarrierReads:
    """`index`/`element` against a map built here, on a 3-mode cutoff-6 window."""

    @pytest.fixture
    def carriers(self):
        a = [[0.1, 0.05, 0.0], [0.05, -0.08, 0.02], [0.0, 0.02, 0.06]]
        lam = np.diag([0.2, 0.1, 0.05])
        return dmf(a, lam, 6), pure_state_vector(a, 6)

    def test_reads_match_enumerate_map(self, carriers):
        op, vec = carriers
        imap = {t: i for i, t in enumerate(basis_indices(3, 6))}
        for t, i in imap.items():
            assert op.index(t) == vec.index(t) == i
            assert vec.element(t) == vec.entries[i]
            for s, j in imap.items():
                assert op.element(t, s) == op.entries[i, j]
        assert op.index(np.array([1, 2, 3])) == imap[(1, 2, 3)]

    def test_map_built_once_per_carrier(self, carriers, monkeypatch):
        calls = []
        build = fock.basis_index_map
        monkeypatch.setattr(fock, "basis_index_map", lambda basis: calls.append(1) or build(basis))
        op, vec = carriers
        for t in op.basis[:40]:
            op.index(t)
            op.element(t, op.basis[-1])
            vec.element(t)
        assert len(calls) == 2
        op.dagger().element(op.basis[1], op.basis[2])
        assert len(calls) == 3

    def test_csv_refuses_non_finite(self):
        vec = pure_state_vector([[0.2]], 2)
        vec.entries[1] = complex(math.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            vec.to_csv()


def _six_tuple(rng, n) -> GeneralE2Params:
    """A random element that is not self-adjoint, with complex non-hermitian Lambda."""
    lam = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    return GeneralE2Params(c=0.7 - 0.4j, alpha=0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                           beta=0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                           a=random_symmetric(rng, n, 0.2), lam=lam, b=random_symmetric(rng, n, 0.2))


def _window_case(name: str, rng) -> np.ndarray:
    """Entries of one seeded window; `name` is kind-modes-cutoff."""
    kind, n, cutoff = name.rsplit("-", 2)
    n, cutoff = int(n), int(cutoff)
    if kind == "dmf":
        p = random_state(rng, n, with_mean=False)
        return dmf(p.a, p.lam, cutoff).entries
    if kind in ("zero", "displaced", "tomo"):
        p = random_state(rng, n, with_mean=kind != "zero")
        return general_truncate(p.as_general(), cutoff).entries
    if kind == "real-mu":
        p = random_state(rng, n, with_mean=False)
        return general_truncate(state_params(p.a, p.lam, rng.normal(size=n)).as_general(),
                                cutoff).entries
    if kind == "one-zero-mu":  # mu^k vanishes exactly for every k reaching the last mode
        p = random_state(rng, n)
        mu = p.mu.copy()
        mu[-1] = 0.0
        return general_truncate(state_params(p.a, p.lam, mu).as_general(), cutoff).entries
    if kind == "six-tuple":
        return general_truncate(_six_tuple(rng, n), cutoff).entries
    if kind == "e_a":
        return e_a_matrix(random_symmetric(rng, n, 0.3), cutoff).entries
    if kind == "gamma":
        return gamma_matrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), cutoff)
    if kind == "gamma-diag-zeros":
        return gamma_matrix(np.diag(np.r_[rng.uniform(0.2, 0.9, size=n - 1), 0.0]), cutoff)
    if kind == "gamma-decoupled":  # mode n // 2 couples to no mode: a zero row and column
        lam = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lam[n // 2, :] = lam[:, n // 2] = 0.0
        return gamma_matrix(lam, cutoff)
    if kind == "gamma-block":  # modes [0, n // 2) and [n // 2, n) do not couple
        lam = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lam[:n // 2, n // 2:] = lam[n // 2:, :n // 2] = 0.0
        return gamma_matrix(lam, cutoff)
    if kind == "z1":
        return z1_matrix(random_state(rng, n), cutoff).entries
    if kind == "statevec":
        return pure_state_vector(random_symmetric(rng, n, 0.2), cutoff).entries
    if kind == "statevec-displaced":
        mu = 0.4 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        return pure_state_vector(random_symmetric(rng, n, 0.2), cutoff, mu=mu).entries
    raise KeyError(name)


class TestWindowBytes:
    """sha256 of the entries of seeded windows from every window builder:
    how the work is vectorized must not move a single bit."""

    DIGESTS = {
        "dmf-1-12": "cd97592f865b63a0303c959e984052d29bf4febd64d5aa17acaa70fb5b1ffd96",
        "zero-1-12": "d80458d0df25b7d6ccbdc4c62af510b73aab26511a95c59d9a164ad308ae8e31",
        "displaced-1-12": "cb45b899aac5c9e8585e339800ebf066938c3e173afa51501662733786e03201",
        "six-tuple-1-12": "8c48936a91a8e6115bff40a91f34c836edcaa1447636fc52f78f4bee8f3763da",
        "real-mu-1-12": "4cee997a0facfc98e509192892632969dab5bdd9cc3738d39b8c2cc081323362",
        "gamma-1-12": "effb334d88c15267816f10371aea96f10d370dc4ae3bd6f5c24a14531746f347",
        "e_a-1-12": "12f71c2e88668ce3aed2b61f680f4a93699c0cb5ff48d1a39c57d17666f1b8b0",
        "z1-1-12": "e6f60138c1adf201b168eb7aeddb905a7150b2a47596ba6ee21db70d262edf49",
        "dmf-2-6": "c6d4c32a14a3c85c2f8fb0d8a3d83675972d66d861cdc5abd0495f01359f21d7",
        "zero-2-6": "7473301fe09e53708e29054c44410ee5325a15bcff2f73ae1a20d437d0b486da",
        "displaced-2-6": "5746319cbffc3b252767a8239b7568c809c9300d9275491f3d7ee8cb2ed0c939",
        "six-tuple-2-6": "3d2e3c4d2b6ba85ae8a0d9225932aed143a60cb0fb11ef9622628f38f322722d",
        "real-mu-2-6": "9871d715e40f6312dbb060eb33824b63e38a9872b7b6097576ee3dc389984323",
        "gamma-2-6": "5f7283300586eb4070319d0ee2794581afe75593502d90cc857743fb19daca8d",
        "e_a-2-6": "d8ba0a713970bdc0cf7dbe071ce1cbb25954027b013fbf8bbdaaff9a83a32be7",
        "z1-2-6": "faf709417de8a19f6ce7e66048bf2fafec577075de77d6747825d2bbeabdcce0",
        "dmf-3-4": "7956c71926c08c389806ea9514357ed7ead61c7ac96f7a6158e15be323ee5fbe",
        "zero-3-4": "524ab53678bace92ad9ad28d75ce44561251b93e83569af33ec2b1c0317fb198",
        "displaced-3-4": "207ce9a96dc377cb0ea13196b8bcbc94fca9c7ded62d01257f64d029e61c8910",
        "six-tuple-3-4": "0e92475ce99b8b94d480264d9802d9f606c37a42750952dc4c824699065b5259",
        "real-mu-3-4": "0e9c8d9690dc2bc8a1c96d8091b6a52649baf9dfd1ed302ab3a368b27eac403b",
        "gamma-3-4": "d3a4760da4264a766d3015881f6b4921d7334c2b97af6fa906d54626560c6dbc",
        "e_a-3-4": "3401d80704f507a52d816f079f1e3f043497f94331dce0a8877f4a265deca0a0",
        "z1-3-4": "2977a71b877ef89d6d0272d52c26dd1b63099ab8cb41dc1882a63154631f39b9",
        "displaced-1-40": "b41582dd5822c437e222b20aefd267bae1640f22a3fca3b14bdb8a15e0aae2ec",
        "displaced-2-10": "515dc22b1c93c2cc4723fb6920351d85db23cb1c3bd88efae7876b7b80712e30",
        "one-zero-mu-2-6": "6411464bc94a595e4f4c808aa732081acd999f73c476bfa1c6c0a87e21dd9383",
        "one-zero-mu-3-4": "57f39c8f13cea81735b122dbd0159a8922d180402c6dbe12f2da97f7d574b824",
        "gamma-diag-zeros-2-6": "c80032b7226448e0bf361ef8988d783ab046112c24a20ecb988f6434cef2603f",
        "gamma-diag-zeros-3-5": "cfb882db9fc027b2d969c42865656e3b180270162ee114d91da0327dc0146abf",
        "statevec-2-8": "6f6721804340424952419546b0124924c3e42a5f16ac5a5f4f446eef7d5bfa0a",
        "statevec-3-5": "bb3714684416e0a06088f863aa0505195417489be679f89fd0d4f18f22a29796",
        "statevec-displaced-1-20": "95da5547286393eead9d1d0471604d8ae9b36f56fb2ecf71062fc27aa2637bcb",
        "statevec-displaced-2-8": "97a3356918742e7021ed77f2af251ea7ef508fe12702957030b664bcf7d1f422",
        "statevec-displaced-3-5": "5aaab1c87f4af9fa08fbaaf6ffc361b66371f504c48f41c418d012137d6a868b",
        "tomo-2-2": "d13fe7c53560ed54a5f00f2e799e337c0a5dfd2da7dced85a0e2bae2af9906a6",
        "tomo-3-2": "dc151668e5825a2ce0b5a786def099bb2676269e41e97151ecc23a51ecf62c63",
        "tomo-4-2": "a135be1326c148bc013e24cf6c804ce377e710bcc250a822c1457aebefa910c6",
        "tomo-5-2": "c2e2d98e1fa810f3a90da4a5c494e46d8878079f48597000080c4ed5e7ced92c",
        "tomo-6-2": "f5e25d43c9099f607d21b927593c51ab3ccc8d965b7673e8ed9c592557d7b450",
        "displaced-3-6": "49bca23fc10c32478a24b712ec673a01bcaa3ddba0242aafb8eaa37d6dc53f54",
        "six-tuple-2-8": "cc0ccba8773514d66f502c37f0d051198bfec83ee0ed140e4e55d44904f8d56a",
        "dmf-4-4": "4db5659e395fcc713d840db243af0c9f1646a9bf40c3731b95a90840ac86eaf2",
        "gamma-4-4": "7b10e460cda91222b9dfd237ca9b5816633775bf0b831ffbd11ba90b8d0f7ab6",
        "six-tuple-4-3": "c233e400d35096c8abe4cc3bc160e513c764475bae00de9f9fa66bd76effaa40",
        "gamma-4-9": "5d24fc4eeb1adeeffe91af1a544f2d53b98938e6b5c747b25c9b850615b5de37",
        "dmf-5-7": "b71fbba7b209ca6940028b94e7e71552b7a4242509e5b521f18eb31acb9893cb",
        "six-tuple-4-9": "49bfef6c619aac0cbf1ae7e5a294307156aabe741635f12f85020f12f764e340",
        # Gamma's zero-skip paths (Lambda_ji = 0 rows and l_i = 0 columns)
        # and its wide cutoff-2 sectors
        "gamma-decoupled-3-5": "fe1aaa68aa12ff5338f33d32fc4796c54d69a5056c8246f013324bf878f4dd28",
        "gamma-decoupled-4-4": "c1d042a5d4c53411eac8f7d92a58f2893d29f81f7bfaa7ad8c83ae4d0b3df165",
        "gamma-decoupled-6-2": "142cf3b166697c6b1fe35222dfcfd188dfcd0b38075c0acd9ccce13486e48f75",
        "gamma-block-4-4": "a37df2db0ec85acaff715fa394417d4a4d98a40aec4190e1317286ebebf0180e",
        "gamma-block-5-3": "44d32a22ff6779fa2024e094df9fa796594dc5e6068cd785837a84abe0c18065",
        "gamma-8-2": "89e1bd2377506bef074167c9b74973e218461b78332873757d4e8e55a314d841",
        "gamma-10-2": "29fe03071f36ae8d12d997c52b79acf638d166ea15b6dbfea08b21fb3ec27566",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_entries_bytes(self, name):
        rng = np.random.default_rng([19, *name.encode()])
        entries = _window_case(name, rng)
        assert entries.dtype == complex and entries.flags.c_contiguous
        assert hashlib.sha256(entries.tobytes()).hexdigest() == self.DIGESTS[name]


def _entry_case(name: str, rng) -> np.ndarray:
    """Seeded single entries; `name` is kind-modes.  phi reads take twelve
    tuples with |t| <= 10, odd totals included; element reads are
    matrix_element at |t|, |s| <= 4, or one read with |t| + |s| = 6 at six
    modes."""
    kind, n = name.rsplit("-", 1)
    n = int(n)
    if kind == "element":
        p = random_state(rng, n, with_mean=False)
        reads = []
        for _ in range(1 if n == 6 else 9):
            if n == 6:
                t, s = (rng.multinomial(3, [1 / n] * n) for _ in range(2))
            else:
                t, s = (rng.multinomial(rng.integers(0, 5), [1 / n] * n) for _ in range(2))
            reads.append(matrix_element(p.a, p.lam, tuple(map(int, t)), tuple(map(int, s))))
        return np.array(reads)
    b = random_symmetric(rng, n, 0.3)
    if kind == "phi-real":
        b = b.real
    elif kind == "phi-zeros":  # exact zeros on the diagonal and in the corner
        b[0, 0] = 0.0
        b[0, -1] = b[-1, 0] = 0.0
    tuples = [rng.multinomial(rng.integers(0, 11), [1 / n] * n) for _ in range(12)]
    return np.array([phi(b, tuple(map(int, t))) for t in tuples])


class TestEntryBytes:
    """sha256 of seeded phi values and matrix_element reads: how the sum
    over Delta(t) is enumerated and vectorized must not move a single bit."""

    DIGESTS = {
        "phi-1": "fefba06f1d99e5133cee2670c955b73046da6eaece1118aa385ff34eee97a406",
        "phi-2": "f3575cdecde82705de72f85f227cb95fca45c0e6e323420f4883649d1922adc5",
        "phi-3": "9bdab80e5941689ef2ab0f4e8670b185097b9ee9f7be0a408254e9dd867e5fda",
        "phi-4": "674415245dc6ebd7a7dec25002bf587e5a4e37fddc37ac47533169ad92b8ca26",
        "phi-real-1": "13aa44840ae5e70d69a241411ab2857875c101fc3a0bd814c4b48dc7ee5fb74d",
        "phi-real-2": "97af137711feeab82050339a5cfa42f8e39ef337ec7b82f75d7340505039c49c",
        "phi-real-3": "792253b8165a959e684a1e8d745b2ea8c0c8ce0c4dac6990173db0d630febc72",
        "phi-real-4": "73c3cfdb67853518360a6c49d5e1512605d8a42e98a5f344b6a80ef994e389a6",
        "phi-zeros-1": "338678c7d7dfecef5642c776db00072fb9ed008074e76c6f34db90292567f5dd",
        "phi-zeros-2": "5d89f056865052bcb89c910d2d62872e029fb273c3db03f8968a52a41593c1b5",
        "phi-zeros-3": "9c1975bf23e1d7ae615b747011eb5d2a5225693d5fe2835cf311360012c99ebd",
        "phi-zeros-4": "f0f7f65e4c0836f5c2cdf0960c0861720ecadea308473051a701f77798c1654d",
        "element-1": "622733f1b07de2f615d175ee00718407bab63c131780080cc6f99aa209264260",
        "element-2": "0c2d87e5d90df1c03fdbdd39623248cb7b198a82d5366d2e6ff927dbe64dec74",
        "element-3": "ec512355722b33dae76017fce613cc13531d7cfb0fa00f58633e1c2237b21a33",
        "element-6": "299fd1c1a23c8f55003cd7dbdc764e2cb0e139d174ea34ca5cfaef538c3c2a69",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_entries_bytes(self, name):
        rng = np.random.default_rng([20, *name.encode()])
        entries = _entry_case(name, rng)
        assert entries.dtype == complex
        assert hashlib.sha256(entries.tobytes()).hexdigest() == self.DIGESTS[name]
