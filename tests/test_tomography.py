import json
import math

import numpy as np
import pytest

from gausskit import io
from gausskit.errors import EstimationError
from gausskit.fock import general_truncate
from gausskit.states import GaussianState, smsv, vacuum
from gausskit.tomography import (
    MeasurementSpec,
    estimate,
    make_spec,
    outcome_label,
    outcome_probabilities,
    sample,
    simulate_battery,
    standard_battery,
    vn_outcome_count,
)

from conftest import random_state


def criterion_state() -> GaussianState:
    a = np.array([[0.0, 0.2], [0.2, 0.0]])
    return GaussianState.from_a_lambda(a, 0.1 * np.eye(2), [0.1, -0.05j])


def projector_terms(spec) -> list[list]:
    """Each projector of `spec` as its (occupation tuple, coefficient) terms,
    written out from the definitions of the kinds, chi before the vacuum."""
    def occ(*modes):
        t = [0] * spec.n
        for m in modes:
            t[m - 1] += 1
        return tuple(t)

    modes = range(1, spec.n + 1)
    if spec.kind == "VN":
        return [[(occ(), 1.0)]] + [[(occ(r), 1.0)] for r in modes] \
            + [[(occ(j, k), 1.0)] for j in modes for k in range(j, spec.n + 1)]
    chi, vac = occ(*(m for m in (spec.j, spec.k) if m is not None)), occ()
    h = 1 / math.sqrt(2.0)
    return [{"M0": [(vac, 1.0)], "Mj": [(chi, 1.0)],
             "Mj0": [(chi, h), (vac, h)], "Mj0'": [(chi, h), (vac, 1j * h)],
             "Mjk0": [(chi, h), (vac, h)], "Mjk0'": [(chi, h), (vac, 1j * h)]}[spec.kind]]


class TestSpecs:
    def test_battery_size(self):
        for n in (1, 2, 3, 4):
            specs = standard_battery(n)
            yes_no = [s for s in specs if s.outcomes == 2]
            vn = [s for s in specs if s.kind == "VN"]
            assert len(yes_no) == 1 + 2 * n + n * (n + 1)
            assert len(vn) == 1
            assert vn[0].outcomes == vn_outcome_count(n)
            assert len(specs) == len(yes_no) + 1

    def test_labels_bijective(self):
        for n in (1, 2, 3, 4):
            items = [None] + list(range(1, n + 1)) \
                + [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)] + ["rest"]
            labels = [outcome_label(x, n) for x in items]
            assert labels == list(range(vn_outcome_count(n)))

    def test_labels_two_modes(self):
        assert outcome_label((1, 1), 2) == 3
        assert outcome_label((1, 2), 2) == 4
        assert outcome_label((2, 2), 2) == 5
        assert outcome_label("rest", 2) == 6

    def test_vn_projectors_orthonormal(self):
        import gausskit.tomography as tomo
        for n in (1, 2, 3, 4):
            pairs, coefs = tomo._projectors(make_spec("VN", n))
            vecs = np.zeros((len(pairs), math.comb(n + 2, 2)), dtype=complex)
            for row, (u, v), (a, b) in zip(vecs, pairs, coefs):
                row[u] += a
                row[v] += b
            assert len(vecs) == vn_outcome_count(n) - 1
            assert np.array_equal(vecs.conj() @ vecs.T, np.eye(len(vecs)))

    def test_spec_json_round_trip(self):
        for spec in standard_battery(2) + standard_battery(3) + [make_spec("Mj", 2, 1)]:
            back = MeasurementSpec.from_json_dict(json.loads(io.dumps(spec.to_json_dict())))
            assert back == spec

    @pytest.mark.parametrize("key, value", [("n", None), ("n", "2"), ("n", 1.5), ("n", True),
                                            ("j", None), ("j", "1"), ("k", [2])])
    def test_from_json_names_bad_integers(self, key, value):
        data = {"kind": "Mjk0", "n": 2, "j": 1, "k": 2, key: value}
        with pytest.raises(ValueError, match=f"'{key}'"):
            MeasurementSpec.from_json_dict(data)

    def test_from_json_refuses_huge_n(self):
        with pytest.raises(ValueError, match="cutoff 2"):
            MeasurementSpec.from_json_dict({"kind": "VN", "n": 1e300})

    def test_from_json_takes_integral_floats(self):
        assert MeasurementSpec.from_json_dict({"kind": "Mj0", "n": 2.0, "j": 1.0}).name == "Mj0(1)"

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            make_spec("Mj0", 2, 3)
        with pytest.raises(ValueError):
            make_spec("Mjk0", 2, 2, 1)
        with pytest.raises(ValueError):
            make_spec("bogus", 2)


class TestProbabilities:
    def test_vacuum_vn(self):
        spec = make_spec("VN", 2)
        p = outcome_probabilities(vacuum(2), spec)
        assert p[0] == 1.0 and p[1:].max() == 0.0

    def test_m0_yes_probability_is_c(self, rng):
        st = GaussianState(random_state(rng, 2))
        p = outcome_probabilities(st, make_spec("M0", 2))
        assert abs(p[0] - st.params.c) < 1e-14
        assert abs(p.sum() - 1.0) < 1e-14

    def test_smsv_vn_matches_amplitudes(self):
        alpha = 0.3
        st = smsv(alpha)
        p = outcome_probabilities(st, make_spec("VN", 1))
        c = math.sqrt(1 - 4 * alpha ** 2)
        assert abs(p[outcome_label(None, 1)] - c) < 1e-13
        assert p[outcome_label(1, 1)] == 0.0
        assert abs(p[outcome_label((1, 1), 1)] - c * 2 * alpha ** 2) < 1e-13

    def test_polarization_identity_exact(self, rng):
        # reconstruct <u|rho|v> from the four diagonal expectations exactly
        st = GaussianState(random_state(rng, 2))
        window = general_truncate(st.params.as_general(), 2)
        imap = {t: i for i, t in enumerate(window.basis)}
        for j in range(1, 3):
            e_pp = outcome_probabilities(st, make_spec("Mj0", 2, j))[0]
            e_ip = outcome_probabilities(st, make_spec("Mj0'", 2, j))[0]
            e_uu = outcome_probabilities(st, make_spec("Mj", 2, j))[0]
            e_vv = outcome_probabilities(st, make_spec("M0", 2))[0]
            got = e_pp - 1j * e_ip - 0.5 * (1 - 1j) * (e_uu + e_vv)
            chi = tuple(1 if m == j - 1 else 0 for m in range(2))
            want = window.entries[imap[chi], imap[(0, 0)]]
            assert abs(got - want) < 1e-12


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_spec_matches_dense_projectors(self, n):
        # Re(z^H W z) per projector z, then the remainder, for every kind
        st = GaussianState(random_state(np.random.default_rng(40 + n), n))
        window = general_truncate(st.params.as_general(), 2)
        specs = standard_battery(n) + [make_spec("Mj", n, j) for j in range(1, n + 1)]
        for spec in specs:
            terms = projector_terms(spec)
            z = np.zeros((len(terms), window.dim), dtype=complex)
            for row, zeta in zip(z, terms):
                for t, coef in zeta:
                    row[window.index(t)] = coef
            want = np.einsum("ij,jk,ik->i", z.conj(), window.entries, z).real
            got = outcome_probabilities(st, spec)
            assert got.shape == (spec.outcomes,)
            assert np.abs(got[:-1] - want).max() <= 1e-15
            assert abs(got[-1] - (1.0 - want.sum())) <= 1e-15
            # bit for bit the entry-by-entry bracket over the terms, in their order
            loop = [sum(np.conj(ct) * window.element(t, s) * cs
                        for t, ct in zeta for s, cs in zeta).real for zeta in terms]
            loop = [min(max(p, 0.0), 1.0) for p in loop]
            assert got.tolist() == loop + [max(1.0 - sum(loop), 0.0)]

    def test_battery_reads_no_single_entries(self, monkeypatch):
        from gausskit.fock import TruncatedOperator
        calls = []
        element = TruncatedOperator.element
        monkeypatch.setattr(TruncatedOperator, "element",
                            lambda self, *t: calls.append(t) or element(self, *t))
        simulate_battery(GaussianState(random_state(np.random.default_rng(9), 3)), 100, seed=1)
        assert calls == []


class TestSampling:
    def test_degenerate_distribution(self):
        counts = sample([1.0, 0.0, 0.0], 1000, seed=3)
        assert counts.tolist() == [1000, 0, 0]

    def test_deterministic_for_fixed_seed(self):
        p = [0.25, 0.5, 0.25]
        assert sample(p, 10000, seed=11).tolist() == sample(p, 10000, seed=11).tolist()
        assert sample(p, 10000, seed=11).tolist() != sample(p, 10000, seed=12).tolist()

    def test_frequencies_converge(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        counts = sample(p, 10**6, seed=5)
        assert np.abs(counts / 10**6 - p).max() < 5e-3

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            sample([0.5, 0.4], 10, seed=0)
        with pytest.raises(ValueError):
            sample([1.5, -0.5], 10, seed=0)
        # NaN passes both a sign test and a sum test; so does a 2-D array
        for bad in ([math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0], [[0.5, 0.5]], 1.0):
            with pytest.raises(ValueError, match="nonnegative and sum to 1"):
                sample(bad, 10, seed=0)

    @staticmethod
    def reference_counts(p, k, seed) -> np.ndarray:
        """Inverse CDF by one binary search per draw: a draw at or above
        cdf[-1] (possible when it rounds below 1) goes to the last outcome."""
        u = np.random.Generator(np.random.PCG64(seed)).random(k)
        idx = np.minimum(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1)
        return np.bincount(idx, minlength=len(p))

    @pytest.mark.parametrize("case", range(40))
    def test_matches_binary_search_reference(self, case):
        rng = np.random.default_rng([31, case])
        size = [1, 2, 3, 7, 29][case % 5]
        p = rng.random(size) * (rng.random(size) < 0.6)  # zero-probability outcomes
        if not p.any():
            p[-1] = 1.0
        p /= p.sum()
        if case % 4 == 1:
            p *= 1.0 - 4e-10  # cdf[-1] < 1: the draws above it land in the last outcome
        k = [1, 2, 50, 10**4][case % 4 if case % 3 else 0]
        seed = (np.random.SeedSequence(entropy=case, spawn_key=(case % 7,)) if case % 2
                else int(rng.integers(2**63)))
        got, want = sample(p, k, seed), self.reference_counts(p, k, seed)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_draws_on_an_edge_or_above_the_last(self, monkeypatch):
        # a draw equal to a CDF edge belongs to the next outcome with nonzero
        # probability; one at or above cdf[-1] < 1 to the last outcome
        p = np.array([0.25, 0.0, 0.5, 0.25 - 6e-10])
        cdf = np.cumsum(p)
        draws = np.array([0.0, cdf[0], np.nextafter(cdf[0], 0), cdf[2], cdf[-1],
                          np.nextafter(1.0, 0), 0.6])

        class Draws:
            def __init__(self, bit_generator):
                pass

            def random(self, k):
                return draws[:k].copy()

        monkeypatch.setattr(np.random, "Generator", Draws)
        want = self.reference_counts(p, len(draws), 0)
        assert want.tolist() == [2, 0, 2, 3]
        assert sample(p, len(draws), 0).tolist() == want.tolist()


class TestEstimation:
    def test_exact_probabilities_recover_exact_parameters(self):
        st = criterion_state()
        shots = 10**6
        runs = [{"spec": s, "counts": outcome_probabilities(st, s) * shots, "shots": shots}
                for s in standard_battery(2)]
        rep = estimate(runs)
        est = rep.estimates
        assert abs(est.c - st.params.c) < 1e-12
        assert np.abs(est.alpha - st.params.mu).max() < 1e-12
        assert np.abs(est.a - st.params.a).max() < 1e-12
        assert np.abs(est.lam - st.params.lam).max() < 1e-10

    def test_uses_mj_counts_when_present(self):
        st = criterion_state()
        shots = 10**6
        specs = standard_battery(2) + [make_spec("Mj", 2, 1), make_spec("Mj", 2, 2)]
        runs = [{"spec": s, "counts": outcome_probabilities(st, s) * shots, "shots": shots}
                for s in specs]
        rep = estimate(runs)
        assert abs(rep.estimates.c - st.params.c) < 1e-12
        assert np.abs(rep.estimates.lam - st.params.lam).max() < 1e-10

    def test_sampled_run_within_three_sigma(self):
        st = criterion_state()
        truth = st.params
        rep = estimate(simulate_battery(st, 10**6, seed=7))
        est = rep.estimates
        assert abs(est.c.real - truth.c) <= 3 * rep.stderr["c"]
        for j in range(1, 3):
            d = est.alpha[j - 1] - truth.mu[j - 1]
            assert abs(d.real) <= 3 * rep.stderr[f"alpha_re[{j}]"]
            assert abs(d.imag) <= 3 * rep.stderr[f"alpha_im[{j}]"]
            for k in range(j, 3):
                d = est.a[j - 1, k - 1] - truth.a[j - 1, k - 1]
                assert abs(d.real) <= 3 * rep.stderr[f"A_re[{j},{k}]"]
                assert abs(d.imag) <= 3 * rep.stderr[f"A_im[{j},{k}]"]
                d = est.lam[j - 1, k - 1] - truth.lam[j - 1, k - 1]
                assert abs(d.real) <= 3 * rep.stderr[f"Lambda_re[{j},{k}]"]
                if j != k:
                    assert abs(d.imag) <= 3 * rep.stderr[f"Lambda_im[{j},{k}]"]

    def test_battery_reads_one_window(self, monkeypatch):
        # counts equal per-spec sampling of outcome_probabilities, bit for bit
        import gausskit.tomography as tomo
        st = criterion_state()
        want = [sample(outcome_probabilities(st, s), 5000, tomo._stream_seed(11, i))
                for i, s in enumerate(standard_battery(2))]
        calls = []
        monkeypatch.setattr(tomo, "general_truncate",
                            lambda *a: calls.append(a) or general_truncate(*a))
        got = simulate_battery(st, 5000, seed=11)
        assert len(calls) == 1
        assert [r["counts"].tolist() for r in got] == [w.tolist() for w in want]

    def test_nonpositive_shots_rejected(self):
        st = criterion_state()
        for shots in (0, -5):
            with pytest.raises(ValueError, match="shots"):
                simulate_battery(st, shots, seed=0)
        runs = simulate_battery(st, 1000, seed=0)
        runs[3] = dict(runs[3], shots=0)
        with pytest.raises(ValueError, match=r"Mj0\(2\)"):
            estimate(runs)

    @pytest.mark.parametrize("index, field, value, match", [
        (1, "counts", [-50.0, 150.0], "Mj0\\(1\\): counts"),
        (1, "counts", [math.inf, 2.0], "Mj0\\(1\\): counts"),
        (0, "counts", [math.nan, 2.0], "M0: counts"),
        (-1, "counts", [1.0, 2.0], "VN: 2 counts for 7 outcomes"),
        (0, "counts", [2500.0, 500.0], "M0: counts sum to 3000.0, not to its 1000.0 shots"),
        (2, "shots", math.inf, "Mj0'\\(1\\): shots"),
        (2, "shots", math.nan, "Mj0'\\(1\\): shots")])
    def test_bad_numbers_named(self, index, field, value, match):
        runs = simulate_battery(criterion_state(), 1000, seed=0)
        runs[index] = dict(runs[index], **{field: value})
        with pytest.raises(ValueError, match=match):
            estimate(runs)

    def test_repeated_spec_rejected(self):
        runs = simulate_battery(criterion_state(), 10**4, seed=1)
        runs.append({"spec": make_spec("M0", 2), "counts": np.array([4000, 6000]),
                     "shots": 10**4})
        with pytest.raises(ValueError, match=r"M0: given more than once"):
            estimate(runs)

    def test_mixed_mode_counts_rejected(self):
        runs = simulate_battery(criterion_state(), 1000, seed=0)
        runs[-1] = dict(runs[-1], spec=make_spec("VN", 3),
                        counts=np.ones(vn_outcome_count(3)))
        with pytest.raises(ValueError, match="VN: n = 3, but M0 has n = 2"):
            estimate(runs)

    def test_missing_measurement_rejected(self):
        st = criterion_state()
        runs = simulate_battery(st, 1000, seed=0)[:-2]
        with pytest.raises(ValueError):
            estimate(runs)

    def test_tiny_vacuum_overlap_rejected(self):
        st = criterion_state()
        runs = simulate_battery(st, 200, seed=0)
        runs[0] = {"spec": runs[0]["spec"], "counts": np.array([0, 200]), "shots": 200}
        with pytest.raises(EstimationError):
            estimate(runs)

    def test_report_json(self):
        st = criterion_state()
        rep = estimate(simulate_battery(st, 10**4, seed=1))
        data = json.loads(io.dumps(rep.to_json_dict()))
        assert "estimates" in data and "stderr" in data
        assert data["estimates"]["n"] == 2
