"""chromadisk benchmark: one workload on one seed for a fixed time.

    python3 bench/run.py --workload certify --seed 1 --seconds 22 --trace 0

Workloads: certify, minors, scheme, bounds (see bench/workloads.py). Each is a
closed loop with one client in one process: the next operation starts when
the previous one has returned. A repetition is one pass over the workload's
fixed input list in a fresh child process with BLAS/OpenMP threads set to 1,
so the chromatic oracle's process-wide cache starts empty every time.
Passes start while they can end within --seconds (at least MIN_PASSES run).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones, built from each operation's median time across passes; with --trace 1
they are the per-layer ones
from traced passes, which alternate with untraced passes so that the tracing
overhead can be reported. Output checks run after each pass's timing ends.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(SRC))

NAMES = ("certify", "minors", "scheme", "bounds")
DEFAULT_SEED = 1
MIN_PASSES = 3
RUN_LIMIT_S = 170
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# ---------------------------------------------------------------- child


def run_pass(workload, seed, traced, workdir):
    """One pass in this process: set up, run every operation, then check.

    setup_s covers importing the package and generating the inputs."""
    t0 = time.perf_counter()
    import workloads

    ops = workloads.INPUTS[workload](seed, workdir)
    setup_s = time.perf_counter() - t0

    tracer = None
    main, graph_check = workloads.cli.main, workloads.minors_check
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", main)
        graph_check = tracer.wrap("bench.op", graph_check)
    lib = workloads.library(tracer)

    results = []
    for op in ops:
        t = time.perf_counter()
        try:
            rc, out = workloads.run_op(op, lib, main, graph_check)
            err = None
        except Exception as exc:  # any exception is a failed operation
            rc, out, err = None, None, f"{type(exc).__name__}: {exc}"
        results.append((op, time.perf_counter() - t, rc, out, err))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {}
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get("digests", {}).get(workload, {})
    failures = []
    digests = {}
    for op, _, rc, out, err in results:
        if err is None:
            try:
                err = workloads.check(op, rc, out)
                d = workloads.output_digest(op, out)
            except (KeyError, TypeError, ValueError) as exc:
                err = f"malformed output: {type(exc).__name__}: {exc}"
        if err is None and d is not None:
            digests[op.label] = d
            if op.label in reference and reference[op.label] != d:
                err = "polynomial differs from the recorded digest"
        if err is not None:
            failures.append(f"{op.label}: {err}")
    if reference and set(reference) != set(digests):
        failures.append("digest labels differ from the recorded ones")

    result = {
        "setup_s": setup_s,
        "op_s": [r[1] for r in results],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failures": failures,
        "digests": digests,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans)
    return result


# ---------------------------------------------------------------- parent


def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(workload, seed, traced, deadline):
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR))
    try:
        out = tmp / "result.json"
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--child",
            "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
            "--workdir", str(tmp), "--out", str(out),
        ]
        proc = subprocess.run(
            cmd, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another pass's directory is still there
            pass


def op_times(passes):
    """Each operation's median time across passes, in input-list order.

    A slow spell of the machine during one pass does not move a median, and
    every operation of the list counts once."""
    return [statistics.median(times) for times in zip(*(r["op_s"] for r in passes))]


def tail_percentile(samples):
    """Highest percentile of TAIL_PERCENTILES with >= 10 samples beyond it."""
    return max(p for p in TAIL_PERCENTILES if samples * (100 - p) / 100 >= 10 or p == 50)


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted mean of all order statistics: when a seed changes which
    operation sits at the percentile, the estimate moves little, where a
    single order statistic jumps to its neighbour."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    steps = 256 * n
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def run_workload(workload, seed, seconds, traced):
    """Run passes until ``seconds`` have passed; returns the summary dict."""
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    passes = []
    longest = 0.0
    # Start another pass while it can end within ``seconds``.
    while len(passes) < MIN_PASSES or time.monotonic() - t_start + longest <= seconds:
        # Traced runs alternate traced and untraced passes, traced first.
        traced_pass = traced and len(passes) % 2 == 0
        started = time.monotonic()
        passes.append((traced_pass, _spawn(workload, seed, traced_pass, deadline)))
        longest = max(longest, time.monotonic() - started)
    plain = [r for t, r in passes if not t]
    marked = [r for t, r in passes if t]
    attempted = sum(r["attempted"] for _, r in passes)
    failures = [f for _, r in passes for f in r["failures"]]

    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": passes[0][1]["digests"],
    }
    if not traced:
        ops = op_times(plain)
        p = tail_percentile(len(ops))
        tail = percentile(ops, p)
        summary["tail"] = {"percentile": p, "samples": len(ops), "beyond": sum(t > tail for t in ops)}
        values = {
            "wall_s": sum(ops),
            "op_p50_ms": percentile(ops, 50) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
        }
        units = END_TO_END
    else:
        import spans

        values = {
            name: statistics.median(r["layers"][name] for r in marked)
            for name in spans.METRICS
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = sum(op_times(marked)) - sum(op_times(plain))
        units = spans.METRICS
    summary["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "chromadisk" / "__init__.py").is_file():
        print(f"error: no chromadisk package under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        result = run_pass(args.workload, args.seed, bool(args.trace), args.workdir)
        Path(args.out).write_text(json.dumps(result))
        return 0

    try:
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for f in summary["failures"]:
        print(f"failed: {f}")
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "tail" in summary:
        t = summary["tail"]
        print(f"op_tail_ms is p{t['percentile']} of the median times of {t['samples']} operations"
              f" ({t['beyond']} beyond it)")
    print(f"error_rate = {summary['failed']}/{summary['attempted']} over {summary['passes']} passes")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
