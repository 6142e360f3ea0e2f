"""Simulated tomography: projector batteries, sampling, and estimation.

The battery consists of yes-no measurements built from the vacuum and the
one- and two-particle basis vectors (and their +1/+i superpositions with
the vacuum), plus one von Neumann measurement over the whole <=2-particle
subspace.  The polarization identity turns the measured diagonal
expectations into the off-diagonal brackets <u|rho|v> that determine the
parameters, which are then recovered by back-substitution
c -> alpha -> (A, Lambda).

Off-diagonal Lambda entries are a special case: the battery constrains
them only through the two-particle von Neumann diagonals, one real
equation per pair, so they are recovered as the minimum-modulus solution
of that equation (exact when the true entry is the smallest solution,
e.g. for diagonal Lambda).  Their standard errors are propagated
numerically and are honest about the weak constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import io
from .errors import EstimationError
from .fock import TruncatedOperator, check_memory, check_window, general_truncate
from .params import GeneralE2Params
from .states import GaussianState

__all__ = [
    "MeasurementSpec",
    "EstimationReport",
    "make_spec",
    "standard_battery",
    "outcome_label",
    "vn_outcome_count",
    "outcome_probabilities",
    "sample",
    "simulate_battery",
    "estimate",
]

_SQ2 = math.sqrt(2.0)
_PROB_TOL = 1e-9  # rounding allowed outside [0, 1] in an exact outcome probability
_SHOT_BYTES = 24  # per-shot sampling arrays: the uniforms, their bins, the clipped bins


def _chi(n: int, j: int, k: int | None = None) -> tuple:
    """Occupation tuple of chi_j (k=None) or chi_jk; 1-based mode labels."""
    t = [0] * n
    t[j - 1] += 1
    if k is not None:
        t[k - 1] += 1
    return tuple(t)


def vn_outcome_count(n: int) -> int:
    """N = (n+1)(n+2)/2 + 1 outcomes of the von Neumann measurement."""
    return (n + 1) * (n + 2) // 2 + 1


def outcome_label(item, n: int) -> int:
    """Label of a von Neumann outcome: None -> 0 (vacuum), r -> r,
    (j, k) -> n + (2n-j)(j-1)/2 + k, "rest" -> N - 1."""
    if item is None:
        return 0
    if item == "rest":
        return vn_outcome_count(n) - 1
    if isinstance(item, int):
        if not 1 <= item <= n:
            raise ValueError("mode index out of range")
        return item
    j, k = item
    if not 1 <= j <= k <= n:
        raise ValueError("need 1 <= j <= k <= n")
    return n + (2 * n - j) * (j - 1) // 2 + k


@dataclass(frozen=True)
class MeasurementSpec:
    """One measurement: a list of projector vectors plus the remainder outcome.

    Each projector vector is a dict occupation-tuple -> coefficient in the
    <=2-particle window.  Yes-no specs carry one vector (2 outcomes); the
    VN spec carries N-1 orthonormal vectors (N outcomes).
    """

    kind: str
    n: int
    j: int | None = None
    k: int | None = None
    vectors: tuple = field(default=(), repr=False)

    @property
    def outcomes(self) -> int:
        return len(self.vectors) + 1

    @property
    def name(self) -> str:
        if self.j is None:
            return self.kind
        if self.k is None:
            return f"{self.kind}({self.j})"
        return f"{self.kind}({self.j},{self.k})"

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n}
        if self.j is not None:
            out["j"] = self.j
        if self.k is not None:
            out["k"] = self.k
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "MeasurementSpec":
        for key in ("kind", "n"):
            if key not in data:
                raise ValueError(f"field {key!r}: missing from measurement spec")
        ints = {key: io.int_from_json(data[key], key) for key in ("n", "j", "k") if key in data}
        return make_spec(data["kind"], ints["n"], ints.get("j"), ints.get("k"))


def _vn_vectors(n: int) -> tuple:
    vecs = [{(0,) * n: 1.0 + 0.0j}]
    for r in range(1, n + 1):
        vecs.append({_chi(n, r): 1.0 + 0.0j})
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            vecs.append({_chi(n, j, k): 1.0 + 0.0j})
    return tuple(vecs)


def make_spec(kind: str, n: int, j: int | None = None, k: int | None = None) -> MeasurementSpec:
    """Construct a measurement of a given kind; indices are 1-based."""
    check_window(n, 2)  # every projector vector lives in the cutoff-2 window
    if j is not None:
        j = int(j)
    if k is not None:
        k = int(k)
    vac = (0,) * n
    if kind == "M0":
        vectors = ({vac: 1.0 + 0.0j},)
        j = k = None
    elif kind == "VN":
        vectors = _vn_vectors(n)
        j = k = None
    elif kind in ("Mj", "Mj0", "Mj0'"):
        if j is None or not 1 <= j <= n:
            raise ValueError(f"{kind} needs a mode index 1..n")
        chi = _chi(n, j)
        if kind == "Mj":
            vectors = ({chi: 1.0 + 0.0j},)
        elif kind == "Mj0":
            vectors = ({chi: 1 / _SQ2, vac: 1 / _SQ2},)
        else:
            vectors = ({chi: 1 / _SQ2, vac: 1j / _SQ2},)
        k = None
    elif kind in ("Mjk0", "Mjk0'"):
        if j is None or k is None or not 1 <= j <= k <= n:
            raise ValueError(f"{kind} needs indices 1 <= j <= k <= n")
        chi = _chi(n, j, k)
        if kind == "Mjk0":
            vectors = ({chi: 1 / _SQ2, vac: 1 / _SQ2},)
        else:
            vectors = ({chi: 1 / _SQ2, vac: 1j / _SQ2},)
    else:
        raise ValueError(f"unknown measurement kind {kind!r}")
    return MeasurementSpec(kind, n, j, k, vectors)


def standard_battery(n: int) -> list[MeasurementSpec]:
    """The 1 + 2n + n(n+1) yes-no measurements plus the von Neumann spec.

    The chi_j and chi_jk diagonal expectations come from the VN outcomes,
    so no separate Mj specs are emitted; make_spec("Mj", ...) remains
    available and estimate() will use such counts when supplied.
    """
    specs = [make_spec("M0", n)]
    for j in range(1, n + 1):
        specs.append(make_spec("Mj0", n, j))
        specs.append(make_spec("Mj0'", n, j))
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            specs.append(make_spec("Mjk0", n, j, k))
            specs.append(make_spec("Mjk0'", n, j, k))
    specs.append(make_spec("VN", n))
    return specs


def _bracket(window: TruncatedOperator, zeta_l: dict, zeta_r: dict) -> complex:
    out = 0.0 + 0.0j
    for t, ct in zeta_l.items():
        for s, cs in zeta_r.items():
            out += np.conj(ct) * window.element(t, s) * cs
    return out


def _window(state: GaussianState) -> TruncatedOperator:
    """The cutoff-2 window.

    Every projector vector lives in the <=2-particle subspace, where the
    window is exact, so one window gives exact probabilities for every spec.
    """
    return general_truncate(state.params.as_general(), 2)


def _spec_probabilities(window: TruncatedOperator, spec: MeasurementSpec) -> np.ndarray:
    probs = []
    for zeta in spec.vectors:
        p = _bracket(window, zeta, zeta).real
        if p < -_PROB_TOL or p > 1.0 + _PROB_TOL:
            raise EstimationError(f"projector expectation {p!r} outside [0, 1]")
        probs.append(min(max(p, 0.0), 1.0))
    rest = 1.0 - sum(probs)
    if rest < -_PROB_TOL:
        raise EstimationError("outcome probabilities exceed 1")
    probs.append(max(rest, 0.0))
    return np.array(probs)


def outcome_probabilities(state: GaussianState, spec: MeasurementSpec) -> np.ndarray:
    """Exact outcome distribution of `spec` in `state`."""
    return _spec_probabilities(_window(state), spec)


def sample(probabilities, k: int, seed) -> np.ndarray:
    """k i.i.d. draws by inverse CDF on a seeded PCG64 stream; returns counts.

    `seed` is a 64-bit integer or a numpy SeedSequence (for substreams).
    Shots whose sampling arrays exceed physical memory are refused first.
    """
    p = np.asarray(probabilities, dtype=float)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    k = int(k)
    check_memory(_SHOT_BYTES * k, f"{k} shots: the sampling arrays")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(p)
    idx = np.searchsorted(cdf, rng.random(k), side="right")
    idx = np.minimum(idx, len(p) - 1)
    return np.bincount(idx, minlength=len(p))


def _stream_seed(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(stream,))


def simulate_battery(state: GaussianState, shots: int, seed: int) -> list[dict]:
    """Sampled counts for every spec of the standard battery; one independent
    substream per spec."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    window = _window(state)
    out = []
    for i, spec in enumerate(standard_battery(state.n)):
        p = _spec_probabilities(window, spec)
        counts = sample(p, shots, _stream_seed(seed, i))
        out.append({"spec": spec, "counts": counts, "shots": int(shots)})
    return out


@dataclass(frozen=True)
class EstimationReport:
    """Recovered parameters with per-scalar standard errors and raw counts."""

    estimates: GeneralE2Params
    stderr: dict
    counts: dict
    shots: dict

    def to_json_dict(self) -> dict:
        return {
            "estimates": self.estimates.to_json_dict(),
            "stderr": self.stderr,
            "shots": {name: int(s) for name, s in self.shots.items()},
        }


def _freq(counts, shots) -> np.ndarray:
    return np.asarray(counts, dtype=float) / float(shots)


def _se(p: float, shots: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / shots)


def _polarize(e_plus, e_imag, e_uu, e_vv) -> complex:
    """<u|rho|v> from the four diagonal expectations of the polarization identity."""
    return e_plus - 1j * e_imag - 0.5 * (1 - 1j) * (e_uu + e_vv)


def _chi_entry(params: GeneralE2Params, t: tuple) -> float:
    return general_truncate(params, 2).element(t, t).real


def estimate(measurements: list[dict]) -> EstimationReport:
    """Back-substitution estimator c -> alpha -> (A, Lambda).

    `measurements` holds dicts {"spec": MeasurementSpec, "counts": ...,
    "shots": ...}; counts may be floats (e.g. exact probabilities times
    shots) for consistency checks.  Requires M0, all Mj0/Mj0', all
    Mjk0/Mjk0' and the VN measurement; Mj counts are used when present.
    """
    by_name: dict[str, dict] = {}
    for m in measurements:
        spec = m["spec"]
        counts = np.asarray(m["counts"], dtype=float)
        shots = float(m["shots"])
        if not (math.isfinite(shots) and shots > 0):
            raise ValueError(f"measurement {spec.name}: shots must be finite and > 0")
        if counts.shape != (spec.outcomes,):
            raise ValueError(f"measurement {spec.name}: {counts.size} counts "
                             f"for {spec.outcomes} outcomes")
        if not (np.isfinite(counts).all() and (counts >= 0).all()):
            raise ValueError(f"measurement {spec.name}: counts must be finite and >= 0")
        by_name[spec.name] = m
    if "M0" not in by_name or "VN" not in by_name:
        raise ValueError("measurement battery must include M0 and VN")
    n = by_name["M0"]["spec"].n
    for name, m in by_name.items():
        if m["spec"].n != n:
            raise ValueError(f"measurement {name}: n = {m['spec'].n}, but M0 has n = {n}")
    for j in range(1, n + 1):
        for name in (f"Mj0({j})", f"Mj0'({j})"):
            if name not in by_name:
                raise ValueError(f"missing measurement {name}")
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            for kind in ("Mjk0", "Mjk0'"):
                if f"{kind}({j},{k})" not in by_name:
                    raise ValueError(f"missing measurement {kind}({j},{k})")

    def yes(name: str) -> tuple[float, float]:
        m = by_name[name]
        shots = float(m["shots"])
        p = float(m["counts"][0]) / shots
        return p, _se(p, shots)

    vn = by_name["VN"]
    vn_shots = float(vn["shots"])
    vn_freq = _freq(vn["counts"], vn_shots)

    def vn_prob(item) -> tuple[float, float]:
        p = float(vn_freq[outcome_label(item, n)])
        return p, _se(p, vn_shots)

    stderr: dict[str, float] = {}

    # c from the vacuum yes-no measurement
    c_hat, c_se = yes("M0")
    stderr["c"] = c_se
    if c_hat <= max(10.0 * c_se, 1e-12):
        raise EstimationError("vacuum overlap too small: estimates would be noise-dominated")

    def chi_diag(j: int) -> tuple[float, float]:
        name = f"Mj({j})"
        if name in by_name:
            return yes(name)
        return vn_prob(j)

    # alpha by polarization on (chi_j, Omega)
    alpha = np.zeros(n, dtype=complex)
    alpha_se = np.zeros(n)
    for j in range(1, n + 1):
        e_pp, se_pp = yes(f"Mj0({j})")
        e_ip, se_ip = yes(f"Mj0'({j})")
        e_uu, se_uu = chi_diag(j)
        m_j = _polarize(e_pp, e_ip, e_uu, c_hat)
        var_re = se_pp**2 + 0.25 * (se_uu**2 + c_se**2)
        var_im = se_ip**2 + 0.25 * (se_uu**2 + c_se**2)
        a_j = m_j / c_hat
        alpha[j - 1] = a_j
        se_re = math.sqrt(var_re / c_hat**2 + (m_j.real / c_hat**2) ** 2 * c_se**2)
        se_im = math.sqrt(var_im / c_hat**2 + (m_j.imag / c_hat**2) ** 2 * c_se**2)
        stderr[f"alpha_re[{j}]"] = se_re
        stderr[f"alpha_im[{j}]"] = se_im
        alpha_se[j - 1] = math.hypot(se_re, se_im)

    # A by polarization on (chi_jk, Omega), then the amplitude relations
    a_mat = np.zeros((n, n), dtype=complex)
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            e_pp, se_pp = yes(f"Mjk0({j},{k})")
            e_ip, se_ip = yes(f"Mjk0'({j},{k})")
            e_uu, se_uu = vn_prob((j, k))
            m_jk = _polarize(e_pp, e_ip, e_uu, c_hat)
            var_re = se_pp**2 + 0.25 * (se_uu**2 + c_se**2)
            var_im = se_ip**2 + 0.25 * (se_uu**2 + c_se**2)
            weight = _SQ2 if j == k else 2.0
            prod = alpha[j - 1] * alpha[k - 1]
            a_jk = m_jk / (weight * c_hat) - 0.5 * prod
            a_mat[j - 1, k - 1] = a_jk
            a_mat[k - 1, j - 1] = a_jk
            var_prod = 0.25 * (abs(alpha[k - 1]) ** 2 * alpha_se[j - 1] ** 2
                               + abs(alpha[j - 1]) ** 2 * alpha_se[k - 1] ** 2)
            se_re = math.sqrt(var_re / (weight * c_hat) ** 2
                              + (m_jk.real / (weight * c_hat**2)) ** 2 * c_se**2
                              + var_prod)
            se_im = math.sqrt(var_im / (weight * c_hat) ** 2
                              + (m_jk.imag / (weight * c_hat**2)) ** 2 * c_se**2
                              + var_prod)
            stderr[f"A_re[{j},{k}]"] = se_re
            stderr[f"A_im[{j},{k}]"] = se_im

    # Lambda diagonal from the chi_j diagonal expectations
    lam = np.zeros((n, n), dtype=complex)
    for j in range(1, n + 1):
        p_j, se_j = chi_diag(j)
        lam[j - 1, j - 1] = p_j / c_hat - abs(alpha[j - 1]) ** 2
        stderr[f"Lambda_re[{j},{j}]"] = math.sqrt(
            se_j**2 / c_hat**2 + (p_j / c_hat**2) ** 2 * c_se**2
            + 4.0 * abs(alpha[j - 1]) ** 2 * alpha_se[j - 1] ** 2)

    # Lambda off-diagonal from the two-particle VN diagonals (min-modulus circle).
    # The VN probability at (j, k) depends on w = Lambda_jk exactly through
    # P(w) = K + c(|w|^2 + 2 Re(conj(delta) w)); the data fixes the circle
    # |w + delta|^2 = (P_meas - K)/c + |delta|^2 and we take its point of
    # smallest modulus.  The standard error folds in both the counting noise
    # of P_meas and the uncertainty of K inherited from (c, alpha, A,
    # diag Lambda), evaluated by first-order perturbation of the predictor.
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            p_meas, se_meas = vn_prob((j, k))

            def predict(w: complex, c_v=None, alpha_v=None, a_v=None, lam_v=None) -> float:
                trial = (lam if lam_v is None else lam_v).copy()
                trial[j - 1, k - 1] = w
                trial[k - 1, j - 1] = np.conj(w)
                al = alpha if alpha_v is None else alpha_v
                am = a_mat if a_v is None else a_v
                params = GeneralE2Params(c_hat if c_v is None else c_v,
                                         al, al.conj(), am, trial, am.conj())
                return _chi_entry(params, _chi(n, j, k))

            p0 = predict(0.0)
            coef_re = predict(1.0) - p0 - c_hat
            coef_im = predict(1.0j) - p0 - c_hat
            delta = (coef_re + 1j * coef_im) / (2.0 * c_hat)

            # K-uncertainty by perturbing each upstream estimate by its SE
            var_k = 0.0
            var_k += (predict(0.0, c_v=c_hat + c_se) - p0) ** 2
            for idx in (j - 1, k - 1):
                for unit in (1.0, 1.0j):
                    bumped = alpha.copy()
                    bumped[idx] += unit * alpha_se[idx]
                    var_k += 0.5 * (predict(0.0, alpha_v=bumped) - p0) ** 2
                lam_b = lam.copy()
                lam_b[idx, idx] += stderr[f"Lambda_re[{idx + 1},{idx + 1}]"]
                var_k += (predict(0.0, lam_v=lam_b) - p0) ** 2
            for (r, s) in ((j - 1, k - 1), (j - 1, j - 1), (k - 1, k - 1)):
                se_rs = math.hypot(stderr[f"A_re[{r + 1},{s + 1}]"],
                                   stderr[f"A_im[{r + 1},{s + 1}]"])
                for unit in (1.0, 1.0j):
                    bumped = a_mat.copy()
                    bumped[r, s] += unit * se_rs
                    bumped[s, r] = bumped[r, s]
                    var_k += 0.5 * (predict(0.0, a_v=bumped) - p0) ** 2
            se_r = math.sqrt(se_meas**2 + var_k) / c_hat

            rhs = (p_meas - p0) / c_hat + abs(delta) ** 2
            radius = math.sqrt(max(rhs, 0.0))
            if abs(delta) >= 1e-14:
                w_hat = delta * (radius / abs(delta) - 1.0)
            else:
                w_hat = 0.0 + 0.0j  # phase unidentified; modulus folded into SE
            slope = 0.5 / math.sqrt(max(rhs, abs(delta) ** 2, se_r, 1e-300))
            se_w = max(se_r * slope, abs(w_hat) / 3.0 if abs(delta) < 1e-14 else 0.0)
            lam[j - 1, k - 1] = w_hat
            lam[k - 1, j - 1] = np.conj(w_hat)
            stderr[f"Lambda_re[{j},{k}]"] = se_w
            stderr[f"Lambda_im[{j},{k}]"] = se_w

    estimates = GeneralE2Params(c_hat, alpha, alpha.conj(), a_mat, lam, a_mat.conj())
    counts = {name: np.asarray(m["counts"]) for name, m in by_name.items()}
    shots = {name: m["shots"] for name, m in by_name.items()}
    return EstimationReport(estimates, stderr, counts, shots)

