import json

import numpy as np
import pytest

from gausskit import core, io, params
from gausskit.cli import main
from gausskit.core import is_positive_semidefinite, m_matrix, symplectic_form
from gausskit.errors import InvalidStateError, NotTraceClassError
from gausskit.fock import dmf, general_truncate, matrix_element
from gausskit.params import (
    AmplitudeData,
    CovarianceParams,
    E2Params,
    GeneralE2Params,
    amplitudes_from_e2,
    cov_to_e2,
    e2_from_amplitudes,
    e2_to_cov,
    is_pure,
    is_valid_state,
    normalization_c,
    state_params,
    trace_of_positive,
)
from gausskit.states import GaussianState

from conftest import random_state, random_symmetric, params6_diff


class TestValidity:
    def test_contraction_is_valid(self, rng):
        a = random_symmetric(rng, 3, norm=0.49 / 2)
        assert is_valid_state(a, np.zeros((3, 3)))

    def test_lambda_eigenvalue_one_invalid(self):
        lam = np.diag([1.0, 0.3])
        assert not is_valid_state(np.zeros((2, 2)), lam)

    def test_one_mode_boundary(self):
        # valid iff |alpha| < (1 - lambda)/2
        assert not is_valid_state([[0.4]], [[0.3]])
        assert is_valid_state([[0.34]], [[0.3]])


class TestConversions:
    def test_vacuum_collapses(self):
        p = cov_to_e2(CovarianceParams(np.zeros(2), 0.5 * np.eye(4)))
        assert abs(p.c - 1.0) < 1e-14
        assert np.abs(p.mu).max() < 1e-14
        assert np.abs(p.a).max() < 1e-14
        assert np.abs(p.lam).max() < 1e-14

    def test_one_mode_thermal(self):
        p = cov_to_e2(CovarianceParams([0.0], np.eye(2)))
        assert abs(p.c - 2 / 3) < 1e-12
        assert abs(p.lam[0, 0] - 1 / 3) < 1e-12
        assert np.abs(p.a).max() < 1e-14

    def test_e2_to_cov_identity_params(self):
        cov = e2_to_cov(E2Params(1.0, [0.0], [[0.0]], [[0.0]]))
        np.testing.assert_allclose(cov.s, 0.5 * np.eye(2), atol=1e-14)
        assert np.abs(cov.m).max() == 0.0

    def test_one_mode_squeezed_l_matrix(self):
        # S = (1/2) L(-A) with L(A) = 2 M(A,0)^{-1} - I and L(A)^{-1} = L(-A);
        # confirmed against tr(rho W(z)) computed from truncated Fock matrices
        # (see the operator-level check below).
        alpha = 0.2
        p = state_params([[alpha]], [[0.0]])
        cov = e2_to_cov(p)
        l_minus = 2 * np.linalg.inv(m_matrix([[-alpha]], [[0.0]])) - np.eye(2)
        np.testing.assert_allclose(cov.s, 0.5 * l_minus, atol=1e-12)
        np.testing.assert_allclose(
            cov.s, 0.5 * np.diag([(1 - 2 * alpha) / (1 + 2 * alpha),
                                  (1 + 2 * alpha) / (1 - 2 * alpha)]), atol=1e-12)

    def test_covariance_against_weyl_trace_oracle(self):
        # quantum characteristic function from explicit truncated operators
        from gausskit.fock import general_truncate, pure_state_vector
        from gausskit.semigroup import weyl_params
        alpha = 0.2
        vec = pure_state_vector([[alpha]], 60)
        rho = np.outer(vec.entries, vec.entries.conj())
        cov = e2_to_cov(state_params([[alpha]], [[0.0]]))
        for z in (0.4, 0.4j, 0.3 + 0.2j):
            w = general_truncate(weyl_params([z]), 60)
            got = np.trace(rho @ w.entries)
            xy = np.array([np.real(z), np.imag(z)])
            assert abs(got - np.exp(-xy @ cov.s @ xy)) < 1e-10

    def test_mu_zero_iff_mean_zero(self, rng):
        for _ in range(10):
            p = random_state(rng, int(rng.integers(1, 4)), with_mean=True)
            cov = e2_to_cov(p)
            assert (np.abs(p.mu).max() < 1e-12) == (np.abs(cov.m).max() < 1e-10)
        p0 = random_state(rng, 2, with_mean=False)
        assert np.abs(e2_to_cov(p0).m).max() < 1e-12

    def test_round_trips(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = random_state(rng, n, with_mean=bool(rng.integers(0, 2)))
            back = cov_to_e2(e2_to_cov(p))
            assert params6_diff(back.as_general(), p.as_general()) < 1e-10
            cov = e2_to_cov(p)
            cov_back = e2_to_cov(cov_to_e2(cov))
            assert np.abs(cov_back.s - cov.s).max() < 1e-10
            assert np.abs(cov_back.m - cov.m).max() < 1e-10

    def test_uncertainty_after_conversion(self, rng):
        j2 = symplectic_form(3)
        for _ in range(20):
            p = random_state(rng, 3)
            cov = e2_to_cov(p)
            h = cov.s + 0.5j * j2
            assert np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0] >= -1e-9
            # equivalent operator form of the uncertainty relation
            g = np.linalg.inv(m_matrix(-p.a, p.lam)) - 0.5 * (np.eye(6) - 1j * j2)
            assert is_positive_semidefinite(0.5 * (g + g.conj().T), 1e-9)

    def test_invalid_covariance_rejected(self):
        with pytest.raises(InvalidStateError):
            cov_to_e2(CovarianceParams([0.0], 0.1 * np.eye(2)))

    def test_singular_shalf_rejected(self):
        with pytest.raises(ValueError):
            cov_to_e2(CovarianceParams([0.0], -0.5 * np.eye(2)))

    def test_invalid_e2_rejected(self):
        with pytest.raises(InvalidStateError):
            e2_to_cov(E2Params(1.0, [0.0], [[0.3]], [[0.5]]))


class TestPurity:
    def test_pure_iff_lambda_zero(self, rng):
        a = random_symmetric(rng, 2, 0.2)
        assert is_pure(state_params(a, np.zeros((2, 2))))
        assert not is_pure(state_params(a * 0.5, 0.2 * np.eye(2)))

    def test_covariance_block_shape(self, rng):
        # (1/2 I + S)^{-1} = [[P, Q], [Q, 2I - P]] exactly for pure states
        for lam_scale in (0.0, 0.2):
            p = state_params(random_symmetric(rng, 2, 0.18), lam_scale * np.eye(2))
            cov = e2_to_cov(p)
            inv = np.linalg.inv(0.5 * np.eye(4) + cov.s)
            pp, qq = inv[:2, :2], inv[:2, 2:]
            rr = inv[2:, 2:]
            pure_shape = (np.abs(pp + rr - 2 * np.eye(2)).max() < 1e-9
                          and np.abs(qq - qq.T).max() < 1e-9)
            assert pure_shape == (lam_scale == 0.0)

    def test_purity_against_truncated_square(self, rng):
        for lam_scale in (0.0, 0.15):
            p = state_params(random_symmetric(rng, 1, 0.15), lam_scale * np.eye(1))
            rho = dmf(p.a, p.lam, 40).entries
            purity = np.trace(rho @ rho).real
            assert (abs(purity - 1.0) < 1e-8) == is_pure(p)


class TestTraceAndNormalization:
    def test_normalized_state_has_unit_trace(self, rng):
        for _ in range(10):
            p = random_state(rng, int(rng.integers(1, 4)))
            assert abs(trace_of_positive(p) - 1.0) < 1e-12

    def test_trace_linear_in_c(self, rng):
        p = random_state(rng, 2)
        doubled = E2Params(2 * p.c, p.mu, p.a, p.lam)
        assert abs(trace_of_positive(doubled) - 2.0) < 1e-12

    def test_one_mode_thermal_trace(self):
        p = E2Params(1.0, [0.0], [[0.0]], [[0.5]])
        assert abs(trace_of_positive(p) - 2.0) < 1e-14

    def test_normalization_mu_zero(self, rng):
        a = random_symmetric(rng, 2, 0.15)
        from gausskit.core import c_factor
        assert abs(normalization_c(np.zeros(2), a, np.zeros((2, 2)))
                   - c_factor(a, np.zeros((2, 2)))) < 1e-14

    def test_coherent_normalization(self):
        z = np.array([0.7 - 0.2j, 0.1j])
        c = normalization_c(z, np.zeros((2, 2)), np.zeros((2, 2)))
        assert abs(c - np.exp(-np.linalg.norm(z) ** 2)) < 1e-13

    def test_not_trace_class(self):
        with pytest.raises(NotTraceClassError):
            trace_of_positive(E2Params(1.0, [0.0], [[0.3]], [[0.6]]))

    def test_not_trace_class_is_no_state(self):
        # so that GaussianState needs only the trace to refuse M(A, Lambda) not > 0
        assert issubclass(NotTraceClassError, InvalidStateError)
        with pytest.raises(InvalidStateError):
            GaussianState(E2Params(1.0, [0.0], [[0.3]], [[0.6]]))


class TestOneCheckPerCall:
    """Each call builds M(A, Lambda) and its eigenvalues once."""

    @pytest.fixture
    def m_calls(self, monkeypatch):
        calls = []
        build = core.m_matrix
        for module in (core, params):
            monkeypatch.setattr(module, "m_matrix",
                                lambda *args, **kwargs: calls.append(1) or build(*args, **kwargs))
        return calls

    def test_library_calls(self, rng, m_calls):
        p = random_state(rng, 2)
        zero = random_state(rng, 2, with_mean=False)
        for call in (lambda: GaussianState(p), lambda: state_params(p.a, p.lam, p.mu),
                     lambda: dmf(zero.a, zero.lam, 3),
                     lambda: matrix_element(zero.a, zero.lam, (1, 0), (0, 1))):
            m_calls.clear()
            call()
            assert len(m_calls) == 1
        m_calls.clear()
        general_truncate(p.as_general(), 3)  # the stored c: no check at all
        assert m_calls == []

    def test_cli_window_request(self, rng, m_calls, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(io.dumps(random_state(rng, 2, with_mean=False).to_json_dict()))
        m_calls.clear()
        assert main(["dmf", "--state", str(path), "--cutoff", "3"]) == 0
        assert len(m_calls) == 2  # the state file's check, then dmf's c(A, Lambda)
        capsys.readouterr()

    def test_cli_validate_request(self, rng, m_calls, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(io.dumps(random_state(rng, 2).to_json_dict()))
        m_calls.clear()
        assert main(["validate", "--state", str(path)]) == 0
        assert len(m_calls) == 1  # min_eig_M, positivity and the trace from one M
        capsys.readouterr()


class TestAmplitudes:
    def test_vacuum_projector(self):
        amp = AmplitudeData(1.0, [0, 0], [0, 0], np.zeros((2, 2)),
                            np.zeros((2, 2)), np.zeros((2, 2)))
        p = e2_from_amplitudes(amp)
        assert params6_diff(p, GeneralE2Params(
            1.0, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
            np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0

    def test_smsv_two_particle_amplitude(self):
        # <chi_11|rho|Omega> = sqrt(2) c a_11 for mu = 0
        alpha = 0.21
        p = state_params([[alpha]], [[0.0]])
        amp = amplitudes_from_e2(p.as_general())
        assert abs(amp.a_z[0, 0] - p.c * alpha) < 1e-14
        from gausskit.fock import dmf as build
        rho = build(p.a, p.lam, 4)
        assert abs(np.sqrt(2) * amp.a_z[0, 0] - rho.element((2,), (0,))) < 1e-13

    def test_round_trip(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = GeneralE2Params(
                c=complex(rng.normal(), rng.normal()) or 1.0,
                alpha=rng.normal(size=n) + 1j * rng.normal(size=n),
                beta=rng.normal(size=n) + 1j * rng.normal(size=n),
                a=random_symmetric(rng, n, 1.0),
                lam=rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                b=random_symmetric(rng, n, 1.0),
            )
            assert params6_diff(e2_from_amplitudes(amplitudes_from_e2(p)), p) < 1e-12

    def test_zero_vacuum_rejected(self):
        amp = AmplitudeData(0.0, [0], [0], [[0.0]], [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            e2_from_amplitudes(amp)


class TestJson:
    def test_e2_round_trip(self, rng):
        p = random_state(rng, 2)
        text = io.dumps(p.to_json_dict())
        back = E2Params.from_json_dict(json.loads(text))
        assert params6_diff(back.as_general(), p.as_general()) == 0.0

    def test_cov_round_trip(self, rng):
        cov = e2_to_cov(random_state(rng, 3))
        text = io.dumps(cov.to_json_dict())
        back = CovarianceParams.from_json_dict(json.loads(text))
        assert np.abs(back.s - cov.s).max() == 0.0
        assert np.abs(back.m - cov.m).max() == 0.0

    def test_missing_field_names_offender(self):
        with pytest.raises(ValueError, match="Lambda"):
            E2Params.from_json_dict({"n": 1, "c": [1.0, 0.0], "mu": [[0.0, 0.0]],
                                     "A": [[[0.0, 0.0]]]})

    def test_seventeen_digit_floats(self):
        x = 0.1 + 0.2  # 0.30000000000000004
        assert json.loads(io.dumps({"x": x}))["x"] == x
