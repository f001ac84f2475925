"""Run every workload once and print all metrics side by side.

    python3 perfbench/report.py [--seed N | --held-out] [--seconds S] [--trace]

Untraced, the table has every end-to-end metric with its unit, plus the
correctness gate's error_rate and steady_mc's mc_s_to_tol, for each
workload and for detector_pairs over the full drive domain (where the
weak-drive draws fail at the time of writing; that error rate is reported
as measured).  With ``--trace`` it prints the per-layer metrics instead.
``--held-out`` draws a fresh seed and prints it, for re-checking a claim on
a seed not used while the change was written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import secrets
import sys

import run

COLUMNS = [(w, "solvable") for w in run.WORKLOADS] + [("detector_pairs", "full")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=1)
    group.add_argument("--held-out", action="store_true", help="draw a fresh random seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seed = secrets.randbelow(2**31) if args.held_out else args.seed
    trace = int(args.trace)
    print(f"seed {seed}{' (held out)' if args.held_out else ''}, {args.seconds:g} s per run, trace {trace}")

    columns = COLUMNS[:-1] if trace else COLUMNS
    results = {}
    for workload, domain in columns:
        ns = argparse.Namespace(workload=workload, seed=seed, seconds=args.seconds, trace=trace, domain=domain)
        try:
            result = run.measure(ns)
        except run.BenchError as exc:
            print(f"{workload} ({domain}) failed: {exc}", file=sys.stderr)
            return 1
        with contextlib.redirect_stdout(io.StringIO()):
            results[(workload, domain)] = run.report(result)
        results[(workload, domain)]["info"] = result["info"]

    headers = [w if d == "solvable" else f"{w}(full)" for w, d in columns]
    width = max(len(h) for h in headers) + 2
    print(f"{'metric':<44}{'unit':<12}" + "".join(f"{h:>{width}}" for h in headers))
    for name, unit in run.units_for(trace).items():
        cells = [results[c]["metrics"][name]["value"] for c in columns]
        print(f"{name:<44}{unit:<12}" + "".join(f"{v:>{width}.5g}" for v in cells))
    rows = [("error_rate", "fraction"), ("mc_s_to_tol", "s")] if not trace else [("error_rate", "fraction")]
    for name, unit in rows:
        cells = [results[c]["info"].get(name) for c in columns]
        print(f"{name:<44}{unit:<12}" + "".join(f"{'-' if v is None else format(v, '.5g'):>{width}}" for v in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
