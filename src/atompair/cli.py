"""Command-line front end.

Subcommands::

    atompair steady-state   --config run.cfg [--output out.csv] [--format csv|json] [--seed N]
    atompair intensity-scan ...
    atompair g2-scan        ...
    atompair validate       ...

Exit codes: 0 success, 1 validation or runtime failure, 2 configuration
error.  All numbers are serialized with 17 significant digits so repeated
runs with the same config and seed diff clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .atom_model import Detector
from .config import ConfigError, RunConfig, load_config
from .dynamics import (
    DegenerateSteadyStateError,
    build_liouvillian,
    liouvillian_residual,
    quantum_jump_estimate,
    steady_state_analytic,
    steady_state_numeric,
    two_level_steady_state_analytic,
)
from .correlations import modulation_depth
from .farfield import intensity_visibility, lowering_coefficients
from .scans import g2_exact_scan, g2_scan, intensity_scan, reference_direction, resolve_polarization
from .validation import model_from_config, run_validation

__all__ = ["main"]


def _format_float(value: float) -> str:
    return format(float(value), ".17g")


def _config_echo(config: RunConfig) -> dict:
    echo = asdict(config)
    echo["drive_direction"] = ",".join(_format_float(x) for x in config.drive_direction)
    for key in ("pol_1_vector", "pol_2_vector"):
        if echo[key] is not None:
            echo[key] = ",".join(_format_float(x) for x in echo[key])
        else:
            del echo[key]
    return echo


def _plain_column(values) -> list:
    """A table column as a list of str, int (flags) or float, converted in one call."""
    if isinstance(values, list) and all(isinstance(v, str) for v in values):
        return values
    values = np.asarray(values)
    return (values.astype(int) if values.dtype == bool else values).tolist()


def _write_csv(path: str, metadata: dict, columns: dict) -> None:
    lines = [
        f"# {k} = {_format_float(v) if isinstance(v, float) else v}" for k, v in metadata.items()
    ]
    lines.append(",".join(columns))
    for cells in zip(*(_plain_column(values) for values in columns.values())):
        lines.append(",".join(_format_float(c) if isinstance(c, float) else str(c) for c in cells))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, metadata: dict, columns: dict) -> None:
    payload = {
        "metadata": metadata,
        "columns": {name: _plain_column(values) for name, values in columns.items()},
    }
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: str, text: str) -> None:
    if path == "-" or path == "":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_table(config: RunConfig, default_name: str, metadata: dict, columns: dict) -> None:
    path = config.path or default_name
    if config.format == "json":
        if not config.path:
            path = default_name.rsplit(".", 1)[0] + ".json"
        _write_json(path, metadata, columns)
    else:
        _write_csv(path, metadata, columns)
    if path not in ("", "-"):
        print(f"wrote {path}")


def _scan_inputs(config: RunConfig):
    """Model, analyzer vectors and the steady state a scan command scans."""
    scheme, params, geometry = model_from_config(config)
    n_ref = reference_direction(config.scan_plane)
    eps_1 = resolve_polarization(config.pol_1, n_ref, config.polarization_vector(1))
    eps_2 = resolve_polarization(config.pol_2, n_ref, config.polarization_vector(2))
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    return scheme, params, geometry, eps_1, eps_2, rho


def cmd_steady_state(config: RunConfig) -> int:
    scheme, params, _ = model_from_config(config)
    liou = build_liouvillian(scheme, params)
    numeric = steady_state_numeric(liou)
    if config.scheme == "two-level":
        analytic = two_level_steady_state_analytic(params)
    else:
        analytic = steady_state_analytic(params)
    mc = quantum_jump_estimate(
        scheme, params, config.n_traj, config.t_total / params.total, config.seed
    )

    dim = scheme.n_levels
    labels = [(f"rho{i + 1}{j + 1}", i, j) for i in range(dim) for j in range(i, dim)]
    width = max(len(label) for label, _, _ in labels)
    print(f"{'entry':<{width}}  {'analytic':>25}  {'numeric':>25}  {'monte_carlo':>25}  {'mc_stderr':>12}")
    for label, i, j in labels:
        cells = [f"{m[i, j].real:+.6f}{m[i, j].imag:+.6f}j" for m in (analytic, numeric, mc.rho)]
        print(f"{label:<{width}}  {cells[0]:>25}  {cells[1]:>25}  {cells[2]:>25}  {mc.stderr[i, j]:>12.3e}")
    res_analytic = liouvillian_residual(liou, analytic)
    res_numeric = liouvillian_residual(liou, numeric)
    max_diff = float(np.max(np.abs(numeric - analytic)))
    pulls = [
        abs(mc.rho[i, i].real - analytic[i, i].real) / max(mc.stderr[i, i], 1e-300)
        for i in range(scheme.n_levels)
    ]
    print(f"residual |L rho_analytic| = {res_analytic:.3e}")
    print(f"residual |L rho_numeric|  = {res_numeric:.3e}")
    print(f"max |numeric - analytic|  = {max_diff:.3e}")
    print(f"max population pull       = {max(pulls):.2f} standard errors")

    if config.path:
        columns = {
            "entry": [label for label, _, _ in labels],
            "analytic_re": [analytic[i, j].real for _, i, j in labels],
            "analytic_im": [analytic[i, j].imag for _, i, j in labels],
            "numeric_re": [numeric[i, j].real for _, i, j in labels],
            "numeric_im": [numeric[i, j].imag for _, i, j in labels],
            "mc_re": [mc.rho[i, j].real for _, i, j in labels],
            "mc_im": [mc.rho[i, j].imag for _, i, j in labels],
            "mc_stderr": [mc.stderr[i, j] for _, i, j in labels],
        }
        metadata = dict(_config_echo(config))
        metadata.update(
            residual_analytic=res_analytic,
            residual_numeric=res_numeric,
            max_abs_difference=max_diff,
            mc_jumps_per_traj=mc.n_jumps / mc.n_traj,
        )
        _write_table(config, "steady_state.csv", metadata, columns)
    return 0


def cmd_intensity_scan(config: RunConfig) -> int:
    scheme, params, geometry, eps_1, _, rho = _scan_inputs(config)
    scan = intensity_scan(
        scheme, geometry, eps_1, rho, plane=config.scan_plane, n_points=config.scan_points
    )
    metadata = dict(_config_echo(config))
    metadata.update(
        coherence_damping_rate=params.total,
        visibility=scan.visibility,
        visibility_closed_form=intensity_visibility(params, eps_1),
    )
    columns = {
        "angle": scan.angles,
        "phase": scan.phases,
        "intensity": scan.intensities,
    }
    _write_table(config, "intensity_scan.csv", metadata, columns)
    return 0


def cmd_g2_scan(config: RunConfig) -> int:
    scheme, params, geometry, eps_1, eps_2, rho = _scan_inputs(config)
    for which, eps in ((1, eps_1), (2, eps_2)):
        if not np.any(lowering_coefficients(scheme, eps)):
            raise ConfigError(
                f"key 'pol_{which}' selects an analyzer that sees no light from the "
                f"{config.scheme} scheme, so g2(1,2) and the witness are undefined"
            )
    grid = dict(plane=config.scan_plane, n_points=config.scan_points)
    scan = g2_scan(scheme, geometry, eps_1, eps_2, rho, **grid)
    exact = g2_exact_scan(scheme, geometry, eps_1, eps_2, rho, **grid)
    n_ref = reference_direction(config.scan_plane)
    metadata = dict(_config_echo(config))
    metadata.update(
        coherence_damping_rate=params.total,
        modulation_depth=scan.modulation_depth,
        modulation_closed_form=modulation_depth(Detector(n_ref, eps_1), Detector(n_ref, eps_2)),
        max_factorized_vs_exact=float(np.max(np.abs(scan.g2_factorized - exact))),
    )
    columns = {
        "angle": scan.angles,
        "phase": scan.phases,
        "g2_factorized": scan.g2_factorized,
        "g2_exact": exact,
        "gamma2": scan.gamma2,
        "g2_normalized": scan.g2_normalized,
        "witness_lhs": scan.witness_lhs,
        "witness_rhs": scan.witness_rhs,
        "violated": scan.violated,
    }
    _write_table(config, "g2_scan.csv", metadata, columns)
    return 0


def cmd_validate(config: RunConfig, inject_trace_bug: bool = False) -> int:
    report = run_validation(config, inject_trace_bug=inject_trace_bug)
    for group in report.groups:
        for check in group.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status}  {group.name}.{check.name}: {check.detail}")
    print(f"{'PASS' if report.passed else 'FAIL'}  overall")
    if config.path:
        _write_text(config.path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {config.path}")
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atompair",
        description="Fringe scans and photon-coincidence statistics of two driven atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("steady-state", "compare analytic, null-space and Monte Carlo steady states"),
        ("intensity-scan", "far-field intensity over a full circle of directions"),
        ("g2-scan", "two-detector coincidence quantities over a scan"),
        ("validate", "run the invariant suite and report pass/fail per group"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a flat key = value config file")
        cmd.add_argument("--output", help="output path (overrides the config 'path' key)")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format override")
        cmd.add_argument("--seed", type=int, help="RNG seed override")
        if name == "validate":
            cmd.add_argument("--inject-trace-bug", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        overrides = {}
        if args.output is not None:
            overrides["path"] = args.output
        if args.format is not None:
            overrides["format"] = args.format
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            config = replace(config, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "steady-state":
            return cmd_steady_state(config)
        if args.command == "intensity-scan":
            return cmd_intensity_scan(config)
        if args.command == "g2-scan":
            return cmd_g2_scan(config)
        if args.command == "validate":
            return cmd_validate(config, inject_trace_bug=args.inject_trace_bug)
    except DegenerateSteadyStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
