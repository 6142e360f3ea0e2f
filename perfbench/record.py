"""Record the input pools and reference outputs in data/pool.json.

    python3 perfbench/record.py

Run once, from the root of the source tree at the commit whose outputs
are the reference.  Draws every pooled state with the seeded generator
(fixed pool seeds), runs each CLI request and keeps the sha256 of its
stdout, records the trace and Frobenius norm of each library window, and
the result of each pooled compose.  A benchmark run chooses from these
pools with its own seed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from measure import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
POOL_SEED = 20191114
COMPOSE_PAIRS = 16


def strict_json(path: Path) -> None:
    def reject(token):
        raise ValueError(f"non-RFC 8259 constant {token}")

    json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import gen
    from gausskit import fock, io, semigroup
    from run import git_commit
    from workloads import (POOL, Cli, CliWindow, LibFock, TomoBattery, sha256_file,
                           window_oracle)

    work = ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    cli = Cli(ROOT, work)
    out = work / "stdout"
    pool = {"recorded_at": git_commit(ROOT)}

    def request(args: list[str], json_out: bool) -> str:
        code, err = cli.run(args, out)
        if code != 0:
            raise RuntimeError(f"{args}: exit {code}: {err.decode()}")
        if json_out:
            strict_json(out)
        return sha256_file(out)

    def state_file(state, name: str) -> Path:
        path = work / f"{name}.json"
        path.write_text(io.dumps(state.to_json_dict()), encoding="utf-8")
        return path

    t0 = time.perf_counter()
    pool[CliWindow.name] = {}
    for c, (cat, (n, mean, args, size)) in enumerate(CliWindow.CATEGORIES.items()):
        rng = np.random.default_rng([POOL_SEED, 1, c])
        items = pool[CliWindow.name][cat] = []
        for k in range(size):
            state = gen.random_state(rng, n, mean=mean)
            path = state_file(state, f"{cat}-{k}")
            sha = request([*args, "--state", str(path)], "csv" not in args)
            items.append({"state": state.to_json_dict(), "sha256": sha})
    print(f"cli-window recorded in {time.perf_counter() - t0:.1f} s", flush=True)

    pool[TomoBattery.name] = {}
    for n in TomoBattery.MODES:
        rng = np.random.default_rng([POOL_SEED, 2, n])
        items = pool[TomoBattery.name][str(n)] = []
        for k in range(TomoBattery.POOL_SIZE):
            state = gen.random_state(rng, n, mean=True)
            seed = int(rng.integers(2**32))
            path = state_file(state, f"tomo-{n}-{k}")
            sim = request(["tomo-simulate", "--state", str(path), "--shots",
                           str(TomoBattery.SHOTS), "--seed", str(seed)], True)
            counts = work / "counts.json"
            out.replace(counts)
            est = request(["tomo-estimate", "--counts", str(counts)], True)
            items.append({"state": state.to_json_dict(), "seed": seed,
                          "simulate_sha256": sim, "estimate_sha256": est})
    print(f"tomo-battery recorded in {time.perf_counter() - t0:.1f} s", flush=True)

    pool[LibFock.name] = {}
    for n, cutoff in LibFock.GRID:
        for kind in LibFock.KINDS:
            rng = np.random.default_rng([POOL_SEED, 3, n, cutoff, LibFock.KINDS.index(kind)])
            items = pool[LibFock.name][LibFock.key(n, cutoff, kind)] = []
            for _ in range(LibFock.POOL_SIZE):
                state = gen.random_state(rng, n, mean=kind == "general")
                ref = {}
                for k in (cutoff, cutoff - 2):
                    op = (fock.dmf(state.a, state.lam, k) if kind == "dmf"
                          else fock.general_truncate(state.as_general(), k))
                    t, s = op.basis[1], op.basis[min(2, op.dim - 1)]
                    value = window_oracle(state, t, s)
                    if abs(op.element(t, s) - value) > 1e-12 * abs(value) + 1e-15:
                        raise RuntimeError(f"{n}x{k} {kind}: entry {t},{s} disagrees with oracle")
                    ref[str(k)] = {"trace": float(np.trace(op.entries).real),
                                   "fro": float(np.linalg.norm(op.entries))}
                items.append({"state": state.to_json_dict(), "ref": ref})
    print(f"lib-fock recorded in {time.perf_counter() - t0:.1f} s", flush=True)

    rng = np.random.default_rng([POOL_SEED, 4])
    pool["compose"] = []
    for k in range(COMPOSE_PAIRS):
        n = 2 + k % 3
        p1, p2 = gen.random_general(rng, n), gen.random_general(rng, n)
        pool["compose"].append({"p1": p1.to_json_dict(), "p2": p2.to_json_dict(),
                                "out": semigroup.compose(p1, p2).to_json_dict()})

    with open(POOL, "w", encoding="utf-8") as fh:
        json.dump(pool, fh)
        fh.write("\n")
    print(f"wrote {POOL} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
