"""Simulated tomography: projector batteries, sampling, and estimation.

The battery holds yes-no measurements on the vacuum, the one- and
two-particle basis vectors and their +1/+i superpositions with the vacuum,
plus one von Neumann measurement over the <=2-particle subspace.  A spec is
its kind and mode indices; a table keyed by kind gives its projectors
a|u> + b|v> on the cutoff-2 basis, and every probability is read from one
gather of the cutoff-2 window.  The polarization identity turns the
measured diagonals into the brackets <u|rho|v> that determine the
parameters, recovered by back-substitution c -> alpha -> (A, Lambda).

Off-diagonal Lambda entries are constrained only through the two-particle
von Neumann diagonals, one real equation per complex entry, and are taken
as its minimum-modulus solution.  That is exact only when the true entry is
that solution (e.g. diagonal Lambda, as in criterion 10); on generic states
the error far exceeds the reported standard error (ROADMAP item 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_SHOTS_TOL = 1e-9  # relative mismatch allowed between a measurement's counts and shots
_SHOT_BYTES = 9  # per shot, the most sample holds at once: its uniform and one mask byte

_H = 1 / _SQ2
# kind -> (mode indices it takes, (a, b)): its projector is a|chi> + b|vac>,
# chi the vacuum, chi_j or chi_jk; VN projects on each <=2-particle basis vector
_KINDS = {"M0": (0, (1.0, 0.0)), "Mj": (1, (1.0, 0.0)), "VN": (0, (1.0, 0.0)),
          "Mj0": (1, (_H, _H)), "Mj0'": (1, (_H, 1j * _H)),
          "Mjk0": (2, (_H, _H)), "Mjk0'": (2, (_H, 1j * _H))}


def _chi_index(n: int, j, k=None):
    """Cutoff-2 basis index of chi_j (k None) or chi_jk, 1 <= j <= k <= n (or
    integer arrays).  The basis is graded lexicographic: the vacuum, chi_n, ...,
    chi_1, then chi_jk in blocks j = n, ..., 1, each ordered k = n, ..., j."""
    if k is None:
        return 1 + n - j
    return 1 + 2 * n - k + (n - j) * (n - j + 1) // 2


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
    """One measurement (build with make_spec): the projectors of its kind plus
    the remainder outcome, so 2 outcomes for yes-no kinds and N for VN."""

    kind: str
    n: int
    j: int | None = None
    k: int | None = None

    @property
    def outcomes(self) -> int:
        return vn_outcome_count(self.n) if self.kind == "VN" else 2

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


def make_spec(kind: str, n: int, j: int | None = None, k: int | None = None) -> MeasurementSpec:
    """Construct a measurement of a given kind; indices are 1-based."""
    check_window(n, 2)  # every projector vector lives in the cutoff-2 window
    if kind not in _KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    takes = _KINDS[kind][0]
    j = int(j) if takes > 0 and j is not None else None
    k = int(k) if takes > 1 and k is not None else None
    if takes == 1 and (j is None or not 1 <= j <= n):
        raise ValueError(f"{kind} needs a mode index 1..n")
    if takes == 2 and (j is None or k is None or not 1 <= j <= k <= n):
        raise ValueError(f"{kind} needs indices 1 <= j <= k <= n")
    return MeasurementSpec(kind, n, j, k)


def standard_battery(n: int) -> list[MeasurementSpec]:
    """The 1 + 2n + n(n+1) yes-no measurements plus the von Neumann spec.

    The chi_j and chi_jk diagonal expectations come from the VN outcomes,
    so no separate Mj specs are emitted; make_spec("Mj", ...) remains
    available and estimate() will use such counts when supplied.
    """
    modes = range(1, n + 1)
    return ([make_spec("M0", n)]
            + [make_spec(kind, n, j) for j in modes for kind in ("Mj0", "Mj0'")]
            + [make_spec(kind, n, j, k) for j in modes for k in range(j, n + 1)
               for kind in ("Mjk0", "Mjk0'")]
            + [make_spec("VN", n)])


def _projectors(spec: MeasurementSpec) -> tuple[np.ndarray, np.ndarray]:
    """The spec's projectors a|u> + b|v>, one row each, as index pairs (u, v)
    into the cutoff-2 basis and coefficients (a, b); v is the vacuum."""
    n = spec.n
    if spec.kind == "VN":  # in outcome_label order
        j, k = np.triu_indices(n)
        u = np.concatenate(([0], _chi_index(n, np.arange(1, n + 1)),
                            _chi_index(n, j + 1, k + 1)))
    else:
        u = np.array([0 if spec.j is None else _chi_index(n, spec.j, spec.k)])
    pairs = np.stack([u, np.zeros_like(u)], axis=1)
    return pairs, np.tile(np.array(_KINDS[spec.kind][1], dtype=complex), (len(u), 1))


def _window(state: GaussianState) -> TruncatedOperator:
    """The cutoff-2 window: exact on the <=2-particle subspace, where every
    projector lives, so it gives exact probabilities for every spec."""
    return general_truncate(state.params.as_general(), 2)


def _with_rest(yes: np.ndarray) -> np.ndarray:
    """One spec's projector probabilities, clipped to [0, 1], and the remainder."""
    bad = yes[(yes < -_PROB_TOL) | (yes > 1.0 + _PROB_TOL)]
    if bad.size:
        raise EstimationError(f"projector expectation {float(bad[0])!r} outside [0, 1]")
    yes = np.clip(yes, 0.0, 1.0)
    rest = 1.0 - np.cumsum(yes)[-1]  # summed in outcome order
    if rest < -_PROB_TOL:
        raise EstimationError("outcome probabilities exceed 1")
    return np.append(yes, max(rest, 0.0))


def _probabilities(window: TruncatedOperator, specs: list) -> list[np.ndarray]:
    """Outcome distributions of `specs` from one gather of the window: per
    projector z = a|u> + b|v>, Re(conj(z)^T W z) over the 2x2 block W at
    (u, v), summed in the order uu, uv, vu, vv.  Each coefficient is real or
    imaginary, so each product rounds once however numpy vectorizes it."""
    pairs, coefs = (np.concatenate(parts) for parts in zip(*map(_projectors, specs)))
    block = window.entries[pairs[:, :, None], pairs[:, None, :]]
    terms = (coefs.conj()[:, :, None] * block * coefs[:, None, :]).real
    yes = terms[:, 0, 0] + terms[:, 0, 1] + terms[:, 1, 0] + terms[:, 1, 1]
    ends = np.cumsum([spec.outcomes - 1 for spec in specs])[:-1]
    return [_with_rest(part) for part in np.split(yes, ends)]


def outcome_probabilities(state: GaussianState, spec: MeasurementSpec) -> np.ndarray:
    """Exact outcome distribution of `spec` in `state`."""
    return _probabilities(_window(state), [spec])[0]


def sample(probabilities, k: int, seed) -> np.ndarray:
    """k i.i.d. draws by inverse CDF on a seeded PCG64 stream; returns counts.

    A draw u lands in the first outcome whose CDF exceeds it, and in the
    last outcome when none does.  `seed` is a 64-bit integer or a numpy
    SeedSequence (for substreams).  Shots whose sampling arrays exceed
    physical memory are refused first.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or not np.isfinite(p).all() or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    k = int(k)
    check_memory(_SHOT_BYTES * k, f"{k} shots: the sampling arrays")
    u = np.random.Generator(np.random.PCG64(seed)).random(k)
    below = [np.count_nonzero(u < edge) for edge in np.cumsum(p)[:-1]]  # per edge: draws below it
    return np.diff([0, *below, k])


def _stream_seed(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(stream,))


def simulate_battery(state: GaussianState, shots: int, seed: int) -> list[dict]:
    """Sampled counts for every spec of the standard battery; one independent
    substream per spec."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    specs = standard_battery(state.n)
    probs = _probabilities(_window(state), specs)
    return [{"spec": spec, "counts": sample(p, shots, _stream_seed(seed, i)), "shots": int(shots)}
            for i, (spec, p) in enumerate(zip(specs, probs))]


@dataclass(frozen=True)
class EstimationReport:
    """Recovered parameters with per-scalar standard errors and the shots per spec."""

    estimates: GeneralE2Params
    stderr: dict
    shots: dict

    def to_json_dict(self) -> dict:
        return {"estimates": self.estimates.to_json_dict(), "stderr": self.stderr,
                "shots": {name: int(s) for name, s in self.shots.items()}}


def _se(p: float, shots: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / shots)


def _polarize(e_plus, e_imag, e_uu, e_vv) -> complex:
    """<u|rho|v> from the four diagonal expectations of the polarization identity."""
    return e_plus - 1j * e_imag - 0.5 * (1 - 1j) * (e_uu + e_vv)


def _chi_entry(params: GeneralE2Params, j: int, k: int) -> float:
    i = _chi_index(params.n, j, k)  # a Python float: numpy's complex / real rounds otherwise
    return float(general_truncate(params, 2).entries[i, i].real)


def estimate(measurements: list[dict]) -> EstimationReport:
    """Back-substitution estimator c -> alpha -> (A, Lambda).

    `measurements` holds dicts {"spec": MeasurementSpec, "counts": ...,
    "shots": ...}; counts may be floats (e.g. exact probabilities times
    shots) for consistency checks, but must sum to shots.  Requires every
    spec of standard_battery, none twice; Mj counts are used when present.
    """
    by_name: dict[str, dict] = {}
    for m in measurements:
        spec = m["spec"]
        counts = np.asarray(m["counts"], dtype=float)
        shots = float(m["shots"])
        if spec.name in by_name:
            raise ValueError(f"measurement {spec.name}: given more than once")
        if not (math.isfinite(shots) and shots > 0):
            raise ValueError(f"measurement {spec.name}: shots must be finite and > 0")
        if counts.shape != (spec.outcomes,):
            raise ValueError(f"measurement {spec.name}: {counts.size} counts "
                             f"for {spec.outcomes} outcomes")
        if not (np.isfinite(counts).all() and (counts >= 0).all()):
            raise ValueError(f"measurement {spec.name}: counts must be finite and >= 0")
        by_name[spec.name] = m
    if "M0" not in by_name:
        raise ValueError("missing measurement M0")
    n = by_name["M0"]["spec"].n
    for name, m in by_name.items():
        if m["spec"].n != n:
            raise ValueError(f"measurement {name}: n = {m['spec'].n}, but M0 has n = {n}")
        total, shots = float(np.sum(m["counts"])), float(m["shots"])
        if abs(total - shots) > _SHOTS_TOL * shots:
            raise ValueError(f"measurement {name}: counts sum to {total!r}, not to "
                             f"its {shots!r} shots")
    for spec in standard_battery(n):
        if spec.name not in by_name:
            raise ValueError(f"missing measurement {spec.name}")

    def yes(name: str) -> tuple[float, float]:
        m = by_name[name]
        shots = float(m["shots"])
        p = float(m["counts"][0]) / shots
        return p, _se(p, shots)

    vn = by_name["VN"]
    vn_shots = float(vn["shots"])
    vn_freq = np.asarray(vn["counts"], dtype=float) / vn_shots

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
                return _chi_entry(params, j, k)

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
    shots = {name: m["shots"] for name, m in by_name.items()}
    return EstimationReport(estimates, stderr, shots)

