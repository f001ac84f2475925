"""atompair benchmark: one workload, one seed, measured in fresh processes.

    python3 perfbench/run.py --workload steady_mc --seed 1 --seconds 20 --trace 0

Workloads: steady_mc, angle_scans, detector_pairs, validate_suite (see
perfbench/README.md).  The program is imported from ``src/`` of the
checkout this file sits in.  The run starts ``SETUP_PROBES`` set-up-only
child processes and then one measuring child; ``setup_s`` is the median
time from process start to "atompair imported and inputs written" over
all of them.

The report names every metric with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 1`` the metrics are the per-layer ones of a traced
pass.  Everything the run writes stays under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("steady_mc", "angle_scans", "detector_pairs", "validate_suite")
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "atompair").glob("*.py"))


def environment(threads: str) -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": {var: threads for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_atompair_lines": source_lines(),
    }


def child_env(workdir: Path, threads: str) -> dict:
    env = dict(os.environ)
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def run_child(argv: list[str], env: dict, deadline: float, log: Path) -> float:
    """Start a worker, wait for its ready line and its exit; return the seconds to ready."""
    start = time.perf_counter()
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
            env=env,
            cwd=ROOT,
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0.0))
            line = proc.stdout.readline() if readable else ""
            ready_s = time.perf_counter() - start
            proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit code {proc.returncode}):\n{log.read_text(encoding='utf-8').strip()}")
    return ready_s


def measure(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    threads = str(nproc())
    workdir = OUT / "work" / args.workload
    result_path = OUT / "results" / f"{args.workload}-{args.domain}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    env = child_env(workdir, threads)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--domain", args.domain, "--workdir", str(workdir)]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    log = workdir / "worker.stderr"
    setup = [run_child(common + ["--setup-only"], env, deadline, log) for _ in range(SETUP_PROBES)]
    ready_s = run_child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path)],
        env,
        deadline,
        log,
    )
    setup.append(ready_s)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["info"]["setup_s_samples"] = setup
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, domain=args.domain)
    result["env"].update(environment(threads))
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    result["result_file"] = str(result_path.relative_to(ROOT))
    return result


def units_for(trace: int) -> dict:
    return tracer.metric_units() if trace else END_TO_END_UNITS


def report(result: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    units = units_for(result["trace"])
    info = result["info"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  domain {result['domain']}")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {info['error_rate']:.6g} fraction ({result['failed']} failed / {result['attempted']} attempted)")
    if "mc_s_to_tol" in info:
        print(f"  mc_s_to_tol = {info['mc_s_to_tol']:.6g} s")
    if "item_tail_percentile" in info:
        print(
            f"  item_tail_ms is p{info['item_tail_percentile']:g} of {info['latency_slots']} per-call bests"
            f" ({info['latency_samples']} samples over {info['passes']} passes)"
        )
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")
    print(f"  result file {result['result_file']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="atompair benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--domain",
        choices=("solvable", "full"),
        default="solvable",
        help="detector_pairs drive range: g/Gamma in [1e-4, 1e2] (solvable) or [1e-6, 1e2] (full)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "atompair" / "__init__.py").is_file():
        print(f"no atompair sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
