"""gausskit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a gausskit source tree; the package is imported from
its src/ directory.  NAME is one of cli-window, lib-fock, tomo-battery and
param-calculus (see workloads.py and README.md); `all` runs each in its own
process and prints one table.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the mix untraced for half the time and the same number of passes
traced, and reports per-layer metrics.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it holds details: the mix, the tail percentile and its sample
count, error_rate, the first failures and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from measure import THREAD_VARS, median, per_layer, tail

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 5          # set-ups per run; setup_s is their median
MIN_PASSES = 2
STARTUP_SAMPLES = 5
HARD_STOP_S = 150.0  # no new pass starts after this


def run_passes(wl, first: int, count: int, traced: bool = False, recorder=None,
               started: float | None = None) -> dict:
    """Run passes first .. first + count - 1 of the mix, each one whole.

    After HARD_STOP_S from `started` no further pass begins.
    """
    clock = time.perf_counter
    started = clock() if started is None else started
    samples, families, failures = [], {}, []
    attempted = failed = passes = 0
    busy = 0.0

    def more() -> bool:
        return passes < count and (passes == 0 or clock() - started < HARD_STOP_S)

    if recorder is not None:
        recorder.on = False  # only the operations themselves are traced
    while more():
        for op in wl.ops(first + passes, traced):
            attempted += 1
            if recorder is not None:
                recorder.request += 1
            t = clock()
            try:
                if recorder is not None:
                    recorder.on = True
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                if recorder is not None:
                    recorder.on = False
            dt = clock() - t
            busy += dt
            samples.append(dt)
            families.setdefault(op.family, []).append(dt)
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{op.family}: {error}")
        passes += 1
    return {"samples": samples, "families": families, "failures": failures,
            "attempted": attempted, "failed": failed, "passes": passes, "busy_s": busy}


def pass_count(wl, seconds: float, least: int = MIN_PASSES) -> int:
    """Whole passes that fill `seconds` at the workload's nominal pass time.

    The count depends only on `seconds`, so every run of a workload sees
    the same mix and its order statistics fall on the same operations.
    """
    return max(least, round(seconds / wl.PASS_SECONDS))


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.process == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(root: Path) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(root),
    }


def measure_run(wl, args, setup_s: float, started: float) -> dict:
    from spans import Recorder, summarize
    from workloads import Cli

    if not args.trace:
        res = run_passes(wl, 0, pass_count(wl, args.seconds), started=started)
        value, pct, count = tail(res["samples"])
        completed = res["attempted"] - res["failed"]
        metrics = {
            "latency_p50_s": (median(res["samples"]), "s"),
            "latency_tail_s": (value, "s"),
            "throughput_ops_per_s": (completed / res["busy_s"], "1/s"),
            "peak_rss_mb": (peak_rss_mb(wl), "MB"),
            "setup_s": (setup_s, "s"),
        }
        res["tail"] = {"percentile": round(pct, 3), "samples": count}
        return {**res, "metrics": metrics}

    # untraced and traced passes alternate, so drift during the run cancels
    rec = Recorder()
    plain, traced = [], []
    for i in range(pass_count(wl, args.seconds / 2, 1)):
        plain.append(run_passes(wl, 2 * i, 1, started=started))
        if wl.process == "self":
            rec.install()
        try:
            traced.append(run_passes(wl, 2 * i + 1, 1, traced=True, recorder=rec,
                                     started=started))
        finally:
            rec.uninstall()
    k = len(traced)
    if wl.process == "children":
        for path in sorted((wl.work / "spans").glob("*.json"), key=lambda p: int(p.stem)):
            rec.extend(json.loads(path.read_text()), int(path.stem))
    rec.dump(wl.work / "spans.json")
    metrics = per_layer(summarize(rec.spans), k)
    cli = Cli(ROOT, wl.work)
    metrics["cli.startup_s"] = (median(cli.import_time() for _ in range(STARTUP_SAMPLES)), "s")
    busy = sum(r["busy_s"] for r in traced) - sum(r["busy_s"] for r in plain)
    metrics["trace.overhead_s"] = (busy / k, "s")
    runs = plain + traced
    families: dict[str, list] = {}
    for r in traced:
        for family, times in r["families"].items():
            families.setdefault(family, []).extend(times)
    return {
        "samples": [], "passes": k,
        "families": families,
        "failures": [f for r in runs for f in r["failures"]][:5],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "gausskit" / "__init__.py").is_file():
        print(f"error: no gausskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import gausskit
    if Path(gausskit.__file__).resolve().parent != ROOT / "src" / "gausskit":
        print(f"error: imported gausskit from {gausskit.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = WORK / args.workload
    setup_times = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = WORKLOADS[args.workload](ROOT, work, args.seed)
        t = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t)
    res = measure_run(wl, args, median(setup_times), started)
    shutil.rmtree(work / "out", ignore_errors=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": res["passes"],
        "mix": {f: {"ops": len(ts), "p50_s": median(ts)} for f, ts in res["families"].items()},
        "tail": res.get("tail"), "error_rate": res["failed"] / res["attempted"],
        "failures": res["failures"], "setup_runs_s": setup_times,
        "environment": environment(ROOT),
    }
    for name, (value, unit) in res["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{detail['tail']['percentile']:.4g} of {detail['tail']['samples']} samples)"
        print(f"{args.workload:15s} {name:28s} {value:.6g} {unit}{note}")
    print(f"{args.workload:15s} {'error_rate':28s} {detail['error_rate']:.6g} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    from workloads import WORKLOADS
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[:-2]), flush=True)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if not (ROOT / "src" / "gausskit" / "__init__.py").is_file():
            print(f"error: no gausskit sources under {ROOT / 'src'}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(ROOT / "src"))
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
