"""Oracle self-tests, plus the manifest of oracle-vs-closed-form wiring.

Every closed-form operation is checked against at least one independent
brute-force reference:

- core.gaussian_integral       <- quadrature_gaussian (test_core, here)
- core.takagi                  <- reconstruction + numpy SVD singular values (test_core)
- params e2<->cov conversions  <- tr(rho W(z)) from truncated operators (test_params)
- fock.phi                     <- series_coefficient (test_fock, acceptance 3)
- fock._delta (Delta(t) order) <- enumerate_delta (test_fock)
- fock.e_a_matrix              <- truncated_exp_annihilation (test_fock)
- fock.gamma_matrix            <- gamma_entry_enumerated (test_fock)
- fock.general_truncate        <- series_coefficient on the 2n-variable form of a
                                  generic 6-tuple, closed forms (identity, Weyl operator,
                                  coherent column)
- fock.dmf                     <- mixing_kernel_element, closed-form one-mode entries
                                  (it is general_truncate of its 6-tuple, so a comparison
                                  with general_truncate checks only the tuple)
- fock.z1_matrix               <- phi row and action formula; Z1^dagger Z1 = the window
- fock.matrix_element          <- series_coefficient on the 2n-variable form, dmf window
- fock.pure_state_vector       <- kb_resolution_check norm, closed-form families;
                                  with mu, v v^dagger vs the general_truncate window
- states.marginal              <- partial_trace / partial_trace_vector_outer, marginal_via_e2
- states.weakest_split         <- min over the all_bipartitions scan (test_states)
- states.is_completely_entangled_pure <- all_bipartitions scan of is_pure_separable,
                                  implied by complete_entanglement_certificate
- semigroup.compose            <- truncated matrix products + quadrature_gaussian
- semigroup.gamma0_params      <- vacuum image vs pure_state_vector, unitarity
"""

import math

import numpy as np
import pytest

from gausskit.fock import basis_indices, multi_binomial, multi_factorial, phi, pure_state_vector
from gausskit.oracles import (
    annihilation_matrix,
    kb_resolution_check,
    partial_trace,
    quadrature_gaussian,
    series_coefficient,
    truncated_exp_annihilation,
)
from gausskit.fock import TruncatedVector, dmf

from conftest import random_symmetric


class TestSeriesCoefficient:
    def test_plain_exponential(self):
        mu = np.array([0.4 - 0.2j, 0.3])
        for t in [(0, 0), (1, 0), (2, 1), (3, 3)]:
            want = (mu[0] ** t[0] * mu[1] ** t[1]) / multi_factorial(t) \
                * math.sqrt(multi_factorial(t))
            got = series_coefficient(np.zeros((2, 2)), mu, t)
            assert abs(got - want) < 1e-12

    def test_equals_phi_for_mu_zero(self, rng):
        b = random_symmetric(rng, 3, 0.5)
        for t in [(0, 0, 0), (2, 0, 0), (1, 1, 0), (2, 2, 2), (3, 1, 2)]:
            assert abs(series_coefficient(b, None, t) - phi(b, t)) < 1e-12

    def test_tmsv_coefficients(self):
        beta = 0.21
        b = np.array([[0.0, beta], [beta, 0.0]])
        for k in range(5):
            assert abs(series_coefficient(b, None, (k, k)) - (2 * beta) ** k) < 1e-13

    def test_degree_cap_guard(self):
        with pytest.raises(ValueError):
            series_coefficient(np.zeros((1, 1)), None, (4,), degree_cap=2)


class TestQuadrature:
    def test_unit_gaussian(self):
        assert abs(quadrature_gaussian([[1.0]], [0.0]) - math.sqrt(math.pi)) < 1e-9

    def test_shifted_closed_form(self):
        got = quadrature_gaussian([[0.3]], [1.0])
        want = math.sqrt(math.pi / 0.3) * math.exp(1.0 / 1.2)
        assert abs(got - want) < 1e-8

    def test_rejects_non_decaying(self):
        with pytest.raises(ValueError):
            quadrature_gaussian([[1j]], [0.0])


class TestExpAnnihilation:
    def test_zero_is_identity(self):
        op = truncated_exp_annihilation(np.zeros((2, 2)), 4)
        np.testing.assert_array_equal(op.entries, np.eye(op.dim))

    def test_entries_match_binomial_phi(self, rng):
        b = random_symmetric(rng, 2, 0.4)
        op = truncated_exp_annihilation(b, 6)
        basis = basis_indices(2, 6)
        for i, s in enumerate(basis):
            for j, t in enumerate(basis):
                want = 0.0
                if all(x <= y for x, y in zip(s, t)):
                    want = math.sqrt(multi_binomial(t, s)) \
                        * phi(b, tuple(y - x for x, y in zip(s, t)))
                assert abs(op.entries[i, j] - want) < 1e-12

    def test_adjoint_is_creation_side(self, rng):
        # exp(a^T B a)^dagger has the E_{conj(B)} creation structure
        b = random_symmetric(rng, 2, 0.3)
        op = truncated_exp_annihilation(b, 5)
        from gausskit.fock import e_a_matrix
        np.testing.assert_allclose(op.dagger().entries,
                                   e_a_matrix(b.conj(), 5).entries, atol=1e-12)

    def test_annihilation_matrix_action(self):
        a0 = annihilation_matrix(0, 2, 3)
        basis = basis_indices(2, 3)
        imap = {t: i for i, t in enumerate(basis)}
        assert a0[imap[(1, 1)], imap[(2, 1)]] == math.sqrt(2)
        assert a0[imap[(0, 0)], imap[(1, 0)]] == 1.0


class TestPartialTrace:
    def test_product_state(self, rng):
        a1 = random_symmetric(rng, 1, 0.15)
        a = np.block([[a1, np.zeros((1, 1))], [np.zeros((1, 1)), np.zeros((1, 1))]])
        lam = np.diag([0.0, 0.3])
        rho = dmf(a, lam, 14)
        red = partial_trace(rho, [0])
        factor = dmf(a1, np.zeros((1, 1)), 14)
        inner = [i for i, t in enumerate(red.basis) if sum(t) <= 6]
        # traced thermal mode leaves a lambda^(cutoff-|t|) window tail ~ 1e-6
        np.testing.assert_allclose(red.entries[np.ix_(inner, inner)],
                                   factor.entries[np.ix_(inner, inner)],
                                   rtol=0, atol=1e-5)

    def test_trace_preserved(self, rng):
        a = random_symmetric(rng, 2, 0.12)
        rho = dmf(a, 0.1 * np.eye(2), 10)
        red = partial_trace(rho, [1])
        assert abs(red.trace() - rho.trace()) < 1e-12

    def test_tmsv_thermal(self):
        beta = 0.35
        a = np.array([[0.0, beta], [beta, 0.0]])
        rho = dmf(a, np.zeros((2, 2)), 30)
        red = partial_trace(rho, [0])
        lam = 4 * beta ** 2
        for k in range(16):
            assert abs(red.element((k,), (k,)) - (1 - lam) * lam ** k) < 1e-8
        off = red.entries - np.diag(red.entries.diagonal())
        assert np.abs(off).max() < 1e-12

    def test_rejects_trivial_subsets(self):
        rho = dmf(np.zeros((2, 2)), np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            partial_trace(rho, [0, 1])


class TestResolutionOfIdentity:
    def _vec(self, entries, cutoff):
        basis = tuple(basis_indices(1, cutoff))
        return TruncatedVector(1, cutoff, basis, np.asarray(entries, dtype=complex))

    def test_vacuum_normalization(self):
        vac = self._vec([1.0] + [0.0] * 10, 10)
        assert abs(kb_resolution_check(vac, vac) - 1.0) < 1e-6

    def test_orthogonal_basis_vectors(self):
        e0 = self._vec([1.0, 0.0, 0.0], 2)
        e2 = self._vec([0.0, 0.0, 1.0], 2)
        assert abs(kb_resolution_check(e0, e2)) < 1e-6

    def test_random_overlap(self, rng):
        v = self._vec(rng.normal(size=7) + 1j * rng.normal(size=7), 6)
        w = self._vec(rng.normal(size=7) + 1j * rng.normal(size=7), 6)
        want = np.vdot(v.entries, w.entries)
        assert abs(kb_resolution_check(v, w) - want) < 1e-5 * (1 + abs(want))

    def test_smsv_norm(self):
        vec = pure_state_vector([[0.22]], 24)
        assert abs(kb_resolution_check(vec, vec) - 1.0) < 1e-5
