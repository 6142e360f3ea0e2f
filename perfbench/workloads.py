"""The four workloads: inputs, the fixed mix of one pass, and output checks.

Every workload is a closed loop with one client: the runner performs the
operations of a pass one after another, each only after the previous one
has finished.  An operation is one CLI request (a whole `gausskit`
process) or one library call.  `ops(p, traced)` returns the operations of
pass p; its inputs depend only on the seed and p.

CLI outputs are checked byte for byte: the sha256 of each request's stdout
must equal the one recorded from the seed commit in data/pool.json (whose
recording also checked that every JSON output is strict RFC 8259 JSON).
Library results are checked against oracles and against reference values
in data/pool.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gen
from measure import THREAD_VARS
from gausskit import core, fock, io, params, semigroup, states
from gausskit.oracles import series_coefficient

POOL = Path(__file__).resolve().parent / "data" / "pool.json"


@dataclass
class Op:
    family: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the result is correct, else why not


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def load_pool() -> dict:
    with open(POOL, encoding="utf-8") as fh:
        return json.load(fh)


def close(x, ref, rel: float, scale: float = 0.0) -> bool:
    """|x - ref| <= rel * |ref| + scale, elementwise."""
    x, ref = np.asarray(x), np.asarray(ref)
    return x.shape == ref.shape and bool(np.all(np.abs(x - ref) <= rel * np.abs(ref) + scale))


def general_from_json(d: dict) -> params.GeneralE2Params:
    return params.GeneralE2Params(
        complex(*d["c"]), io.cvec_from_json(d["alpha"]), io.cvec_from_json(d["beta"]),
        io.cmat_from_json(d["A"]), io.cmat_from_json(d["Lambda"]), io.cmat_from_json(d["B"]))


def general_array(p: params.GeneralE2Params) -> np.ndarray:
    return np.concatenate([[p.c], p.alpha, p.beta, p.a.ravel(), p.lam.ravel(), p.b.ravel()])


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# CLI requests


class Cli:
    """Runs one gausskit request as its own process, stdout to a file."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.env = child_env(root)
        self.spans = work / "spans"
        self.spans.mkdir(parents=True, exist_ok=True)

    def command(self, args: list[str], traced: bool, request: int) -> list[str]:
        if traced:
            out = self.spans / f"{request}.json"
            return [sys.executable, str(self.root / "perfbench" / "cli_traced.py"), str(out), *args]
        return [sys.executable, "-m", "gausskit.cli", *args]

    def run(self, args: list[str], out: Path, traced: bool = False, request: int = 0):
        with open(out, "wb") as fh:
            proc = subprocess.run(self.command(args, traced, request), stdout=fh,
                                  stderr=subprocess.PIPE, env=self.env, cwd=self.work,
                                  timeout=120)
        return proc.returncode, proc.stderr

    def import_time(self) -> float:
        """Wall time of a bare `import gausskit.cli` process."""
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gausskit.cli"], env=self.env,
                       cwd=self.work, check=True, timeout=120)
        return time.perf_counter() - t


def check_cli(result, out: Path, sha: str) -> str | None:
    code, stderr = result
    if code != 0:
        return f"exit {code}: {stderr[-200:]!r}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    got = sha256_file(out)
    return None if got == sha else f"stdout sha256 {got[:12]} != reference {sha[:12]}"


class Workload:
    """A workload writes only under `work`; `process` names whose peak RSS counts.

    PASS_SECONDS is the nominal time of one pass of the mix on the machine
    the benchmark was tuned on; it sets how many passes fill a run.
    """


    name = ""
    process = "self"

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work.resolve(), seed


class CliWorkload(Workload):
    """Shared setup of the CLI workloads: state files from the pool."""

    process = "children"
    request = 0

    def setup(self) -> None:
        pool = load_pool()[self.name]
        rng = np.random.default_rng(self.seed)
        states_dir = self.work / "states"
        states_dir.mkdir(parents=True, exist_ok=True)
        self.items = {}
        for cat, items in pool.items():
            order = rng.permutation(len(items))
            self.items[cat] = []
            for k in order:
                path = states_dir / f"{cat}-{k}.json"
                path.write_text(io.dumps(items[k]["state"]), encoding="utf-8")
                self.items[cat].append((path, items[k]))
        (self.work / "out").mkdir(exist_ok=True)
        self.cli = Cli(self.root, self.work)
        warm = self.items[next(iter(self.items))][0][0]
        code, err = self.cli.run(["validate", "--state", str(warm)], self.work / "out" / "warm")
        if code != 0:
            raise RuntimeError(f"warm-up request failed: {err[-200:]!r}")

    def request_op(self, family: str, args: list[str], sha: str, traced: bool,
                   out: Path | None = None) -> Op:
        self.request += 1
        request = self.request
        out = out or self.work / "out" / f"{family}.out"
        return Op(family, lambda: self.cli.run(args, out, traced, request),
                  lambda result: check_cli(result, out, sha))


class CliWindow(CliWorkload):
    """Sequential `gausskit dmf` requests on 3-mode states at cutoff 12.

    Mean-zero states give windows with about half their entries exactly
    zero; displaced states give dense windows of longer floats.  One
    request in six asks for CSV, and one is a 2-mode cutoff-20 window.
    """

    name = "cli-window"
    # category -> (modes, mean, request arguments, pool size)
    CATEGORIES = {
        "mz3": (3, False, ["dmf", "--cutoff", "12"], 6),
        "d3": (3, True, ["dmf", "--cutoff", "12"], 6),
        "csv3": (3, False, ["dmf", "--cutoff", "12", "--format", "csv"], 4),
        "c20": (2, True, ["dmf", "--cutoff", "20"], 4),
    }
    PASS = ["mz3", "d3", "mz3", "d3", "csv3", "c20"]
    PASS_SECONDS = 12.0

    def ops(self, p: int, traced: bool) -> list[Op]:
        out = []
        for slot, cat in enumerate(self.PASS):
            items = self.items[cat]
            uses = self.PASS.count(cat)
            path, item = items[(p * uses + self.PASS[:slot].count(cat)) % len(items)]
            args = [*self.CATEGORIES[cat][2], "--state", str(path)]
            out.append(self.request_op(cat, args, item["sha256"], traced))
        return out


class TomoBattery(CliWorkload):
    """`tomo-simulate --shots 100000`, then `tomo-estimate` on its saved
    stdout, for displaced mixed states at n = 2, 4 and 6."""

    name = "tomo-battery"
    MODES = (2, 4, 6)
    POOL_SIZE = 4
    SHOTS = 100000
    PASS_SECONDS = 3.6

    def ops(self, p: int, traced: bool) -> list[Op]:
        out = []
        for n in self.MODES:
            items = self.items[str(n)]
            path, item = items[p % len(items)]
            counts = self.work / "out" / f"simulate-{n}.json"
            sim = ["tomo-simulate", "--state", str(path), "--shots", str(self.SHOTS),
                   "--seed", str(item["seed"])]
            out.append(self.request_op(f"simulate{n}", sim, item["simulate_sha256"], traced,
                                       counts))
            out.append(self.request_op(f"estimate{n}", ["tomo-estimate", "--counts", str(counts)],
                                       item["estimate_sha256"], traced))
        return out


# ---------------------------------------------------------------------------
# library: Fock windows and point reads


def window_oracle(state: params.E2Params, t: tuple, s: tuple) -> complex:
    """<t|rho|s> = c * (normalized coefficient of u^t v^s) of the generating
    function c exp(l.(u, v) + (u, v)^T Q (u, v)), by series expansion."""
    g = state.as_general()
    q = np.block([[g.a, 0.5 * g.lam], [0.5 * g.lam.T, g.b]])
    return g.c * series_coefficient(q, np.concatenate([g.alpha, g.beta]), tuple(t) + tuple(s))


def check_window(op, ref: dict, oracle: list) -> str | None:
    rho = op.entries
    scale = np.abs(rho).max()
    if np.abs(rho - rho.conj().T).max() > 1e-12 * scale:
        return "window is not hermitian"
    if not close(np.trace(rho).real, ref["trace"], 1e-12):
        return f"trace {np.trace(rho).real!r} != reference {ref['trace']!r}"
    if not close(np.linalg.norm(rho), ref["fro"], 1e-12):
        return f"Frobenius norm {np.linalg.norm(rho)!r} != reference {ref['fro']!r}"
    imap = {t: i for i, t in enumerate(op.basis)}
    for t, s, value in oracle:
        if not close(rho[imap[t], imap[s]], value, 1e-12, 1e-14 * scale):
            return f"entry {t},{s} = {rho[imap[t], imap[s]]!r} != oracle {value!r}"
    return None


class LibFock(Workload):
    """In-process window builds over the (modes, cutoff) grid, each followed
    by point reads of the window at seeded indices.

    Each grid point is built once per pass from a mean-zero state (dmf) and
    once from a displaced state (general_truncate), each state new to the
    run.  Two builds per pass (REUSE) rebuild a state of that pass at
    cutoff - 2, so their phi tables may still be cached; FRESH_READS
    matrix_element calls on new 2-mode states push more than 128 distinct
    A matrices through the phi-table cache in a run.
    """

    name = "lib-fock"
    GRID = [(1, 80), (2, 30), (3, 14), (4, 10), (5, 8), (6, 6)]
    KINDS = ("dmf", "general")
    REUSE = [(2, 30, "general"), (4, 10, "dmf")]
    PASS_SECONDS = 10.0
    POOL_SIZE = 6
    ELEMENT_READS = 20
    INDEX_READS = 20
    STATE_READS = 2      # matrix_element on the state just built (dmf builds)
    FRESH_READS = 32     # matrix_element on new 2-mode states, per pass
    ORACLE_ENTRIES = 2   # window entries per build checked by series expansion
    ORACLE_DEGREE = 3    # highest |t| + |s| of those entries

    @staticmethod
    def key(n: int, cutoff: int, kind: str) -> str:
        return f"{n}x{cutoff}-{kind}"

    def setup(self) -> None:
        pool = load_pool()[self.name]
        rng = np.random.default_rng(self.seed)
        self.items = {}
        for key, items in pool.items():
            self.items[key] = [(params.E2Params.from_json_dict(items[k]["state"]), items[k]["ref"])
                               for k in rng.permutation(len(items))]
        self.bases = {(n, k): fock.basis_indices(n, k) for n, cutoff in self.GRID
                      for k in (cutoff, cutoff - 2)}
        warm = gen.random_state(rng, 2, mean=True)
        op = fock.general_truncate(warm.as_general(), 4)
        op.element(op.basis[1], op.basis[2])
        op.index(op.basis[3])
        fock.dmf(warm.a, warm.lam, 4)
        fock.matrix_element(warm.a, warm.lam, op.basis[1], op.basis[2])

    def _builds(self, rng, n, cutoff, kind, state, ref, cur) -> list[Op]:
        basis = self.bases[(n, cutoff)]
        imap = {t: i for i, t in enumerate(basis)}
        low = [t for t in basis if sum(t) <= self.ORACLE_DEGREE]
        pairs = []
        while len(pairs) < self.ORACLE_ENTRIES:
            t, s = low[rng.integers(len(low))], low[rng.integers(len(low))]
            if sum(t) + sum(s) <= self.ORACLE_DEGREE:
                pairs.append((t, s))

        def build():
            if kind == "dmf":
                cur["op"] = fock.dmf(state.a, state.lam, cutoff)
            else:
                cur["op"] = fock.general_truncate(state.as_general(), cutoff)
            return cur["op"]

        def check(op):
            if op.dim != len(basis):
                return f"window dim {op.dim} != {len(basis)}"
            return check_window(op, ref[str(cutoff)],
                                [(t, s, window_oracle(state, t, s)) for t, s in pairs])

        reads = []
        for _ in range(self.ELEMENT_READS):
            t, s = basis[rng.integers(len(basis))], basis[rng.integers(len(basis))]
            reads.append(Op("element", lambda t=t, s=s: cur["op"].element(t, s),
                            lambda x, t=t, s=s: None if x == cur["op"].entries[imap[t], imap[s]]
                            else f"element {t},{s} = {x!r}"))
        for _ in range(self.INDEX_READS):
            t = basis[rng.integers(len(basis))]
            reads.append(Op("index", lambda t=t: cur["op"].index(t),
                            lambda x, t=t: None if x == imap[t] else f"index {t} = {x!r}"))
        if kind == "dmf":
            for t, s in pairs[:self.STATE_READS]:
                reads.append(Op(
                    "matrix_element", lambda t=t, s=s: fock.matrix_element(state.a, state.lam, t, s),
                    lambda x, t=t, s=s: None if close(x, cur["op"].entries[imap[t], imap[s]], 1e-12,
                                                      1e-14 * abs(cur["op"].entries[0, 0]))
                    else f"matrix_element {t},{s} = {x!r}"))
        rng.shuffle(reads)
        return [Op(f"build{n}x{cutoff}-{kind}", build, check), *reads]

    def _fresh_read(self, rng) -> Op:
        state = gen.random_state(rng, 2, mean=False)
        low = fock.basis_indices(2, 2)
        t, s = low[rng.integers(len(low))], low[rng.integers(len(low))]
        return Op("matrix_element_fresh", lambda: fock.matrix_element(state.a, state.lam, t, s),
                  lambda x: None if close(x, window_oracle(state, t, s), 1e-12, 1e-16)
                  else f"matrix_element {t},{s} = {x!r}")

    def ops(self, p: int, traced: bool) -> list[Op]:
        rng = np.random.default_rng([self.seed, p])
        cur: dict = {}
        groups, used = [], {}
        for n, cutoff in self.GRID:
            for kind in self.KINDS:
                items = self.items[self.key(n, cutoff, kind)]
                used[(n, cutoff, kind)] = items[p % len(items)]
                groups.append(self._builds(rng, n, cutoff, kind, *used[(n, cutoff, kind)], cur))
        for n, cutoff, kind in self.REUSE:
            groups.append(self._builds(rng, n, cutoff - 2, kind, *used[(n, cutoff, kind)], cur))
        fresh = [self._fresh_read(rng) for _ in range(self.FRESH_READS)]
        out = []
        for i, group in enumerate(groups):
            out += group
            out += fresh[i * len(fresh) // len(groups):(i + 1) * len(fresh) // len(groups)]
        return out


# ---------------------------------------------------------------------------
# library: parameter calculus


class ParamCalculus(Workload):
    """In-process parameter-calculus calls that build no Fock window.

    COUNTS weighs the families so that none takes much more than half of a
    pass: the entanglement scans take about half, the other families split
    the rest about evenly.
    """

    name = "param-calculus"
    MODES = (2, 3, 4, 5, 6)
    STATES_PER_N = 8
    COUNTS = {
        "convert": 1400, "validate": 800, "compose": 1000, "conjugate": 2800,
        "marginal": 500, "normal_form": 700, "charfn": 2800, "core": 3200, "parse": 5600,
    }
    CHARFN_BATCH = 8
    PASS_SECONDS = 8.0
    # (modes, separable) of the complete-entanglement scans of one pass
    SCANS = [(12, False)] * 4 + [(14, False), (16, False), (12, True)]

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.states = []
        for n in self.MODES:
            for _ in range(self.STATES_PER_N):
                p = gen.random_state(rng, n, mean=True)
                st = states.GaussianState(p)
                self.states.append((p, st, st.cov, p.to_json_dict()))
        self.pairs = [(general_from_json(c["p1"]), general_from_json(c["p2"]),
                       general_array(general_from_json(c["out"])))
                      for c in load_pool()["compose"]]
        self.scans = {key: states.GaussianState(gen.entangled_pure_state(rng, *key))
                      for key in dict.fromkeys(self.SCANS)}
        for op in [self._one(family, i, rng) for family in self.COUNTS for i in range(4)]:
            op.check(op.run())

    def _one(self, family: str, i: int, rng) -> Op:
        """Operation i of a family; i picks the variant, so a pass's counts are fixed."""
        p, st, cov, d = self.states[rng.integers(len(self.states))]
        n = p.n
        if family == "convert":
            if i % 2:
                return Op(family, lambda: params.cov_to_e2(cov),
                          lambda q: None if close(e2_array(q), e2_array(p), 1e-9, 1e-12)
                          else "cov_to_e2 round trip")
            return Op(family, lambda: params.e2_to_cov(p),
                      lambda c: None if close(c.s, cov.s, 1e-9, 1e-12) and close(c.m, cov.m, 1e-9, 1e-12)
                      else "e2_to_cov round trip")
        if family == "validate":
            return Op(family, lambda: states.GaussianState(p),
                      lambda s: None if s.params is p else "GaussianState changed its parameters")
        if family == "compose":
            p1, p2, ref = self.pairs[rng.integers(len(self.pairs))]
            return Op(family, lambda: semigroup.compose(p1, p2),
                      lambda q: None if close(general_array(q), ref, 1e-12, 1e-14)
                      else "compose differs from the recorded reference")
        if family == "conjugate":
            if i % 2:
                u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                return Op(family, lambda: semigroup.conjugate_by_gamma(p, u),
                          lambda q: None if close(e2_array(semigroup.conjugate_by_gamma(
                              q, u.conj().T)), e2_array(p), 1e-9, 1e-12)
                          else "conjugate_by_gamma round trip")
            z = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            return Op(family, lambda: semigroup.conjugate_by_weyl(p, z),
                      lambda q: None if close(e2_array(semigroup.conjugate_by_weyl(q, -z)),
                                              e2_array(p), 1e-9, 1e-12)
                      else "conjugate_by_weyl round trip")
        if family == "marginal":
            modes = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            rows = modes + [n + m for m in modes]
            return Op(family, lambda: states.marginal(st, modes),
                      lambda sub: None if close(sub.cov.s, cov.s[np.ix_(rows, rows)], 1e-9, 1e-12)
                      and close(sub.cov.m, cov.m[modes], 1e-9, 1e-12) else "marginal covariance")
        if family == "normal_form":
            def canonical(nf):
                c = nf.canonical
                off = c.lam - np.diag(np.diag(c.lam))
                ok = np.abs(c.mu).max() < 1e-9 and np.abs(off).max() < 1e-9
                return None if ok else "normal form is not canonical"
            return Op(family, lambda: states.normal_form(st), canonical)
        if family == "charfn":
            zs = 0.5 * (rng.normal(size=(self.CHARFN_BATCH, n))
                        + 1j * rng.normal(size=(self.CHARFN_BATCH, n)))
            xy = np.concatenate([zs.real, zs.imag], axis=1)
            ref = np.exp(-2j * np.imag(zs.conj() @ cov.m) - np.einsum("ij,jk,ik->i", xy, cov.s, xy))
            return Op(family, lambda: [states.characteristic_function(st, z) for z in zs],
                      lambda v: None if close(v, ref, 1e-12, 1e-15) else "characteristic function")
        if family == "core":
            which = i % 4
            if which == 0:
                return Op(family, lambda: core.m_matrix(p.a, p.lam),
                          lambda m: None if close(m, m_reference(p), 1e-12, 1e-14) else "m_matrix")
            if which == 1:
                return Op(family, lambda: core.c_factor(p.a, p.lam),
                          lambda c: None if close(c * c, np.linalg.det(m_reference(p)), 1e-9)
                          else "c_factor")
            if which == 2:
                return Op(family, lambda: core.takagi(p.a),
                          lambda ud: None if close(ud[0] @ np.diag(ud[1]) @ ud[0].T, p.a, 0, 1e-12)
                          else "takagi reconstruction")
            w = rng.normal(size=(n, n))
            a = np.eye(n) + 0.05 * (w + w.T)
            m = rng.normal(size=n) + 1j * rng.normal(size=n)
            ref = np.pi ** (n / 2) / np.sqrt(np.linalg.det(a)) * np.exp(0.25 * m @ np.linalg.solve(a, m))
            return Op(family, lambda: core.gaussian_integral(a, m),
                      lambda v: None if close(v, ref, 1e-10) else "gaussian_integral")
        if family == "parse":
            return Op(family, lambda: params.E2Params.from_json_dict(d),
                      lambda q: None if np.array_equal(e2_array(q), e2_array(p)) else "parse")
        raise ValueError(family)

    def _scan(self, key) -> Op:
        st = self.scans[key]
        expected = not key[1]
        return Op(f"entanglement{key[0]}", lambda: states.is_completely_entangled_pure(st),
                  lambda v: None if v is expected else f"complete entanglement = {v}")

    def ops(self, p: int, traced: bool) -> list[Op]:
        rng = np.random.default_rng([self.seed, p])
        out = [self._one(family, i, rng) for family, count in self.COUNTS.items()
               for i in range(count)]
        out += [self._scan(key) for key in self.SCANS]
        rng.shuffle(out)
        return out


def e2_array(p: params.E2Params) -> np.ndarray:
    return np.concatenate([[p.c], p.mu, p.a.ravel(), p.lam.ravel()])


def m_reference(p: params.E2Params) -> np.ndarray:
    """M(A, Lambda) = I - Lambda_0 - 2 [[Re A, Im A], [Im A, -Re A]], written out."""
    lam0 = np.block([[p.lam.real, -p.lam.imag], [p.lam.imag, p.lam.real]])
    a0 = np.block([[p.a.real, p.a.imag], [p.a.imag, -p.a.real]])
    return np.eye(2 * p.n) - lam0 - 2.0 * a0


WORKLOADS = {w.name: w for w in (CliWindow, LibFock, TomoBattery, ParamCalculus)}
