"""Every benchmark metric of every workload, by name and unit, in one command.

    python3 bench/report.py                     # default seed: untraced and traced run
    python3 bench/report.py --seed 7            # the same on another seed
    python3 bench/report.py --seeds 10          # ten seeds per workload: medians and spreads
    python3 bench/report.py --seeds 10 --save   # ... recorded as the baseline in reference.json

Each run is the run that ``bench/run.py`` makes. The end-to-end metrics come
from the untraced run, the per-layer metrics from the traced run. ``--seeds``
runs seeds 1..K untraced and prints, per metric, the median and the distance
between the first and third quartile as a share of the median, beside the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def _spec():
    return json.loads(BENCHMARK.read_text())


def _print_run(summary):
    for name, m in summary["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")


def report_seed(seed, seconds):
    ok = True
    for workload in run.NAMES:
        plain = run.run_workload(workload, seed, seconds, traced=False)
        traced = run.run_workload(workload, seed, seconds, traced=True)
        print(f"== {workload} (seed {seed}, {plain['passes']} untraced and {traced['passes']} traced passes)")
        _print_run(plain)
        t = plain["tail"]
        print(f"  op_tail_ms is p{t['percentile']} of {t['samples']} operations, {t['beyond']} beyond it")
        for s in (plain, traced):
            print(f"  error_rate ({'traced' if s is traced else 'untraced'}) = {s['failed']}/{s['attempted']}")
            for f in s["failures"]:
                print(f"    failed: {f}")
            ok = ok and s["failed"] == 0
        print("  -- per layer, traced run")
        _print_run(traced)
    return ok


def report_seeds(count, seconds, save):
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    digests = {}
    ok = True
    for workload in run.NAMES:
        values = {}
        for seed in range(1, count + 1):
            s = run.run_workload(workload, seed, seconds, traced=False)
            ok = ok and s["failed"] == 0
            for f in s["failures"]:
                print(f"failed: {workload} seed {seed}: {f}")
            if seed == run.DEFAULT_SEED:
                digests[workload] = s["digests"]
            for name, m in s["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({count} seeds, {seconds} s each)")
        baseline[workload] = {}
        for name, vs in values.items():
            print(f"  {name:12s} by seed: " + " ".join(f"{v:.4g}" for v in vs))
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "over bound" if spread > bounds[name] else ("over bound/3" if spread > bounds[name] / 3 else "")
            print(f"  {name:12s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}"
                  f"  spread {spread:6.3f} (bound {bounds[name]}) {flag}")
            baseline[workload][name] = {"median": med, "q1": q1, "q3": q3}
    if save:
        ref = json.loads(run.REFERENCE.read_text())
        ref["baseline"] = {"seeds": list(range(1, count + 1)), "seconds": seconds, "metrics": baseline}
        ref["machine"] = _machine()
        ref.setdefault("digests", digests)
        run.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
        print(f"baseline written to {run.REFERENCE}")
    return ok


def _machine():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": sha,
        "default_seed": run.DEFAULT_SEED,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seeds", type=int, help="run seeds 1..SEEDS untraced and print spreads")
    ap.add_argument("--save", action="store_true", help="with --seeds: record the baseline")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.seeds:
        ok = report_seeds(args.seeds, seconds, args.save)
    else:
        ok = report_seed(args.seed, seconds)
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
