"""Benchmark child process: set up one workload, measure it, write the result.

``run.py`` starts this in a fresh interpreter for every measurement, so
import time and peak memory are those of a real run.  The child prints
``ready`` once atompair is imported and the inputs are written; with
``--setup-only`` it exits there.

Untraced (``--trace 0``): closed-loop passes over the inputs until
``--seconds`` would be exceeded (at least ``MIN_PASSES``).  Every pass
makes the same calls on the same inputs, so the k-th call of each pass is
one latency *slot*.  A slot's latency is its best (lowest) over the passes,
as ``timeit`` reports it, because the noise of a shared machine only ever
adds time; the latency metrics are percentiles over the slots.  Traced
(``--trace 1``): the same pass untraced, traced, and untraced again, a
fixed amount of work so that call counts repeat exactly.

The vCPUs of a shared virtual machine can run at different speeds, and the
scheduler keeps a busy thread on one of them for many seconds, so a run
would measure whichever vCPU it landed on.  A helper thread therefore moves
the measuring thread to the next allowed CPU every ``ROTATE_S``; every pass
then samples all of them alike.  Only that thread is pinned: BLAS threads
stay free, but processes it starts inherit its one-CPU mask.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
ROTATE_S = 0.02


def rotate_cpus(cpus: list[int], stop: threading.Event) -> threading.Thread | None:
    """Move the calling thread round-robin over ``cpus`` until ``stop`` is set."""
    if len(cpus) < 2:
        return None
    tid = threading.get_native_id()

    def loop():
        k = 0
        while not stop.wait(ROTATE_S):
            k = (k + 1) % len(cpus)
            os.sched_setaffinity(tid, {cpus[k]})

    thread = threading.Thread(target=loop, name="rotate-cpus", daemon=True)
    thread.start()
    return thread


def tail_percentile(n_samples: int) -> float:
    """Highest percentile with at least ten samples beyond it; 100 (the max) if none."""
    for pct in TAIL_PERCENTILES:
        if n_samples * (100.0 - pct) >= 1000.0 - 1e-9:  # ten samples beyond, up to rounding
            return pct
    return 100.0


def percentile(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def slot_latencies(slots: list[list[float]]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile) over the best latency of every slot that has one."""
    best = [min(slot) for slot in slots if slot]
    pct = tail_percentile(len(best))
    if not best:
        return float("nan"), float("nan"), pct
    return statistics.median(best), percentile(best, pct), pct


def run_untraced(workload, seconds: float) -> dict:
    walls, cpus, rates, problems, to_tol = [], [], [], [], []
    slots: list[list[float]] = []  # slots[k]: latencies of the k-th call of every pass
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        calls = workload.run_pass(len(walls))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        # each pass is checked, then dropped, so memory does not grow with the pass count
        gate = workload.check(calls)
        walls.append(wall)
        cpus.append(cpu)
        attempted += gate.attempted
        failed += gate.failed
        problems += gate.problems
        rates.append((gate.attempted - gate.failed) / wall)
        slots += [[] for _ in range(len(calls) - len(slots))]
        for slot, call in zip(slots, calls):
            if call.error is None:
                slot.append(call.latency_s * 1e3)
        if "mc_s_to_tol" in gate.extra:
            to_tol.append(gate.extra["mc_s_to_tol"])
        if len(walls) >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    p50, tail, pct = slot_latencies(slots)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "items_per_s": statistics.median(rates),
        "item_p50_ms": p50,
        "item_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "item_tail_percentile": pct,
        "latency_slots": sum(1 for slot in slots if slot),
        "latency_samples": sum(len(slot) for slot in slots),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    if to_tol:
        info["mc_s_to_tol"] = statistics.median(to_tol)
    return {"attempted": attempted, "failed": failed, "problems": problems[:20], "metrics": metrics, "info": info}


def run_traced(workload, spans_path: Path) -> dict:
    import tracer as tracing

    def untraced_pass():
        wall0 = time.perf_counter()
        calls = workload.run_pass(0)
        seconds = time.perf_counter() - wall0
        gates.append(workload.check(calls))
        return seconds

    # untraced passes before and after the traced one, so warm-up and drift
    # do not land in the overhead
    gates = []
    untraced_s = [untraced_pass()]
    with tracing.Tracer() as tracer:
        wall0 = time.perf_counter()
        traced = workload.run_pass(0, on_call=tracer.next_run)
        traced_s = time.perf_counter() - wall0
    untraced_s.append(untraced_pass())
    # the gate calls into atompair too, so it runs only while no tracer is installed
    gates.append(workload.check(traced))
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    metrics = tracing.layer_metrics(tracer, traced_s / statistics.mean(untraced_s) - 1.0)
    tracer.write_spans(spans_path)
    info = {
        "untraced_passes_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": len(tracer.starts),
        "spans_file": spans_path.name,
        "error_rate": failed / attempted if attempted else 1.0,
    }
    problems = [p for g in gates for p in g.problems]
    return {"attempted": attempted, "failed": failed, "problems": problems[:20], "metrics": metrics, "info": info}


def library_environment() -> dict:
    import numpy
    import scipy

    try:
        config = numpy.show_config(mode="dicts")
        blas = {k: config["Build Dependencies"]["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError) as exc:  # numpy before 1.26 has no mode="dicts"
        blas = {"error": repr(exc)}
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--domain", default="solvable")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.cpus = sorted(os.sched_getaffinity(0))
    stop = threading.Event()
    rotator = rotate_cpus(args.cpus, stop)
    try:
        return measure(args)
    finally:
        stop.set()
        if rotator is not None:
            rotator.join()


def measure(args) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    import atompair

    if src.resolve() not in Path(atompair.__file__).resolve().parents:
        print(f"atompair was imported from {atompair.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    workload = workloads.WORKLOAD_CLASSES[args.workload](args.seed, args.workdir, domain=args.domain)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = run_traced(workload, args.result.with_suffix(".spans.tsv.gz"))
    else:
        result = run_untraced(workload, args.seconds)
    result["env"] = library_environment()
    result["env"]["cpu_rotation"] = {"cpus": args.cpus, "period_s": ROTATE_S}
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
