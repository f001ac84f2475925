"""Tests of the benchmark's own code (not of atompair).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import atompair  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _namespace_snapshot() -> dict:
    return {
        (name, attr): obj
        for name, mod in tracer.package_modules().items()
        for attr, obj in vars(mod).items()
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_identical_for_equal_seeds(name):
    assert json.dumps(workloads.make_inputs(name, 7)) == json.dumps(workloads.make_inputs(name, 7))


@pytest.mark.parametrize("name", ["steady_mc", "angle_scans", "detector_pairs"])
def test_inputs_differ_between_seeds(name):
    assert json.dumps(workloads.make_inputs(name, 7)) != json.dumps(workloads.make_inputs(name, 8))


def test_detector_pair_inputs_are_transverse_and_in_domain():
    inputs = workloads.make_inputs("detector_pairs", 3)
    lo, hi = workloads.LOG_G_RANGE["solvable"]
    for spec in inputs["sets"]:
        ratio = np.log10(spec["g"] / (spec["gamma0"] + spec["gamma"]))
        assert lo <= ratio <= hi
        for n_1, eps_1, n_2, eps_2 in spec["pairs"]:
            for n, eps in ((n_1, eps_1), (n_2, eps_2)):
                assert abs(np.vdot(workloads._complex(eps), n)) < 1e-12


def test_tracer_rebinds_every_alias_and_restores_them():
    import atompair.cli  # noqa: F401

    before = _namespace_snapshot()
    targets = {id(fn): fn for _, fn in tracer.find_targets(tracer.package_modules()).values()}
    from atompair import correlations, dynamics, farfield

    assert id(farfield.g1) in targets and id(dynamics.quantum_jump_estimate) in targets
    with tracer.Tracer() as tr:
        for key, obj in _namespace_snapshot().items():
            assert id(obj) not in targets, f"{key} is still bound to the original"
        assert correlations.g1 is farfield.g1 is atompair.g1
        assert correlations.g1.__wrapped__ is before[("atompair.farfield", "g1")]
        assert atompair.cli.quantum_jump_estimate.__wrapped__ is before[("atompair.dynamics", "quantum_jump_estimate")]
        params = atompair.DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
        scheme = atompair.hg_level_scheme(params)
        atompair.steady_state_numeric(atompair.build_liouvillian(scheme, params))
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    top = [tr.names[i] for i, parent in zip(tr.name_ids, tr.parents) if parent == -1]
    assert top == ["atom_model.hg_level_scheme", "dynamics.build_liouvillian", "dynamics.steady_state_numeric"]
    assert len(tr.counters.param_sets) == 1


def test_traced_calls_record_parents():
    params = atompair.DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = atompair.hg_level_scheme(params)
    geometry = atompair.standard_geometry(0.5)
    det = atompair.make_detector([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    rho = atompair.steady_state_analytic(params)
    with tracer.Tracer() as tr:
        atompair.intensity(scheme, geometry, det, rho, rho)
    names = [tr.names[i] for i in tr.name_ids]
    assert names[0] == "farfield.intensity"
    assert names.count("farfield.g1") == 2 and names.count("farfield.mean_field") == 2
    assert all(parent == 0 for name, parent in zip(names, tr.parents) if name in ("farfield.g1", "farfield.mean_field"))


def test_self_time_on_synthetic_span_tree():
    # 0: [0, 10] root; 1: [1, 3] and 2: [2, 4] overlap; 3: [2.5, 3] inside 1;
    # 4: [5, 6]; 5: [9, 12] sticks out of its parent and is clipped to [9, 10]
    starts = [0.0, 1.0, 2.0, 2.5, 5.0, 9.0]
    ends = [10.0, 3.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 0, 1, 0, 0]
    selfs = tracer.self_times(starts, ends, parents)
    assert selfs == pytest.approx([10.0 - 3.0 - 1.0 - 1.0, 1.5, 2.0, 0.5, 1.0, 3.0])


def test_layer_metrics_cover_every_declared_metric():
    with tracer.Tracer() as tr:
        params = atompair.DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
        atompair.build_liouvillian(atompair.hg_level_scheme(params), params)
    values = tracer.layer_metrics(tr, 0.5)
    assert values.keys() == tracer.metric_units().keys()
    assert values["dynamics.build_liouvillian.calls"] == 1
    assert values["atom_model.calls"] == 1
    assert values["trace.overhead_frac"] == 0.5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail_percentile(2) == 100.0
    assert worker.tail_percentile(82) == 75.0
    assert worker.tail_percentile(100) == 90.0
    assert worker.tail_percentile(1000) == 99.0
    assert worker.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert worker.percentile([1.0, 2.0], 100.0) == 2.0


def test_slot_latencies_take_each_slots_best_pass():
    # 41 slots over 3 passes; pass 1 is slow throughout, and the last slot failed in every pass
    best = [float(k + 1) for k in range(40)]
    slots = [[b + 0.5, 3.0 * b + 100.0, b] for b in best] + [[]]
    p50, tail, pct = worker.slot_latencies(slots)
    assert pct == worker.tail_percentile(40) == 75.0
    assert p50 == statistics.median(best) == 20.5
    assert tail == worker.percentile(best, 75.0) == 30.25
    assert all(np.isnan(v) for v in worker.slot_latencies([[]])[:2])


def _one_call(workload, command: str, **config):
    workload.inputs["calls"] = [
        c for c in workload.inputs["calls"]
        if c["command"] == command and all(c["config"][k] == v for k, v in config.items())
    ][:1]
    workload.setup()
    return workload.run_pass(0)


def _perturb(path: Path, column: str, row: int, factor: float = 1.0, offset: float = 0.0) -> None:
    payload = json.loads(path.read_text())
    payload["columns"][column][row] = payload["columns"][column][row] * factor + offset
    path.write_text(json.dumps(payload))


def test_gate_flags_a_perturbed_g2_exact_column(tmp_path):
    scans = workloads.AngleScans(5, tmp_path)
    calls = _one_call(scans, "g2-scan")
    assert scans.check(calls).failed == 0
    _perturb(calls[0].output[1], "g2_exact", 17, offset=1e-8)
    gate = scans.check(calls)
    assert (gate.attempted, gate.failed) == (workloads.SCAN_POINTS, 1)


@pytest.mark.parametrize("pol", ["pi", "sigma"])
def test_gate_flags_a_wrong_intensity_visibility(tmp_path, pol):
    scans = workloads.AngleScans(5, tmp_path)
    calls = _one_call(scans, "intensity-scan", pol_1=pol, scheme="four-level", g=1.0)
    assert scans.check(calls).failed == 0
    _perturb(calls[0].output[1], "intensity", 90, factor=1.001)
    assert scans.check(calls).failed == workloads.SCAN_POINTS


def test_gate_flags_corrupted_detector_pair_values(tmp_path):
    pairs = workloads.DetectorPairs(5, tmp_path)
    pairs.inputs["sets"] = pairs.inputs["sets"][:1]
    pairs.setup()
    calls = pairs.run_pass(0)
    assert pairs.check(calls).failed == 0
    context, det_1, det_2, values = calls[3].output
    fact, point_norm, exact, via_cond, normalized = values
    calls[3].output = (context, det_1, det_2, (fact, point_norm, exact, via_cond, normalized * (1 + 1e-6)))
    gate = pairs.check(calls)
    assert (gate.attempted, gate.failed) == (workloads.PAIRS_PER_SET, 1)


def test_full_domain_failures_are_counted(tmp_path):
    pairs = workloads.DetectorPairs(5, tmp_path, domain="full")
    pairs.inputs["sets"] = [dict(pairs.inputs["sets"][0], g=1e-6)]
    pairs.setup()
    gate = pairs.check(pairs.run_pass(0))
    assert (gate.attempted, gate.failed) == (workloads.PAIRS_PER_SET, workloads.PAIRS_PER_SET)


def test_steady_gate_flags_a_wrong_numeric_state(tmp_path):
    steady = workloads.SteadyMC(5, tmp_path)
    steady.inputs["config"].update(n_traj=8, t_total=4.0)
    steady.setup()
    calls = steady.run_pass(0)
    _perturb(calls[0].output, "numeric_re", 0, offset=1e-9)
    assert steady.check(calls).failed == calls[0].items


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
