"""Command-line front end.

Subcommands::

    atompair steady-state   --config run.cfg [--output out.csv] [--format csv|json] [--seed N]
    atompair intensity-scan ...
    atompair g2-scan        ...
    atompair validate       ...

Output goes to ``--output`` (or the config's ``path``); ``-`` prints it.  With
no path the scans write ``intensity_scan.<format>`` or ``g2_scan.<format>`` in
the working directory, while steady-state only prints its table and validate
only its lines.  validate's report is JSON whatever ``format`` says.

Exit codes: 0 success, 1 validation or runtime failure, 2 configuration
error, which includes an analyzer the command reads (intensity-scan reads
only ``pol_1``) left undefined at the reference direction (``pi`` or a
``custom`` vector along it) and, in g2-scan, one that sees no light from the
scheme.

CSV writes every float with 17 significant digits (``.17g``) and JSON writes
its shortest round-trip ``repr``; either way repeated runs with the same
config and seed diff clean.  The JSON layout is exactly that of
``json.dumps(payload, indent=2, sort_keys=True)``.  Both writers format each
distinct value of a table column once and reuse its string in every row that
holds it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .atom_model import Detector
from .config import _VECTOR_LENGTHS, ConfigError, RunConfig, load_config
from .dynamics import (
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
from .validation import _population_pull, run_validation

__all__ = ["main"]


def _format_float(value: float) -> str:
    return format(float(value), ".17g")


def _config_echo(config: RunConfig) -> dict:
    echo = asdict(config)
    for key in _VECTOR_LENGTHS:
        if echo[key] is None:
            del echo[key]
        else:
            echo[key] = ",".join(_format_float(x) for x in echo[key])
    return echo


def _cells(values, float_texts, text) -> list[str]:
    """A table column as its cell strings, each distinct value formatted once.

    ``float_texts`` turns a list of floats into their strings and ``text`` formats any other
    cell; flags are written as 0 and 1.  Floats are told apart by bit pattern, so ``0.0`` and
    ``-0.0`` keep their own strings.  Scan fringes are mirror-symmetric about the reference
    direction, so many of a scan column's values repeat.
    """
    if isinstance(values, list) and all(isinstance(v, str) for v in values):
        return [text(v) for v in values]
    values = np.asarray(values)
    if values.size == 0 or values.dtype.kind not in "biuf":
        return [text(v) for v in values.tolist()]
    if values.dtype.kind == "f":
        bits = values.astype(np.float64, copy=False).view(np.int64)
        distinct, where = np.unique(bits, return_inverse=True)
        texts = float_texts(distinct.view(np.float64).tolist())
    else:
        distinct, where = np.unique(values, return_inverse=True)
        texts = [text(int(v)) for v in distinct.tolist()]
    return np.array(texts, dtype=object)[where].tolist()


def _csv_floats(values: list) -> list[str]:
    return [format(v, ".17g") for v in values]


def _json_floats(values: list) -> list[str]:
    """JSON's own float tokens (shortest ``repr``, ``NaN``, ``Infinity``), from one encoder call;
    no token holds a comma."""
    return json.dumps(values, separators=(",", ":"))[1:-1].split(",")


def _write_csv(path: str, metadata: dict, columns: dict) -> None:
    lines = [
        f"# {k} = {_format_float(v) if isinstance(v, float) else v}" for k, v in metadata.items()
    ]
    lines.append(",".join(columns))
    cells = [_cells(values, _csv_floats, str) for values in columns.values()]
    lines.extend(map(",".join, zip(*cells)))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, metadata: dict, columns: dict) -> None:
    """``json.dumps({"metadata": ..., "columns": ...}, indent=2, sort_keys=True)``, byte for byte.

    Each column is laid out from its cells' JSON tokens, so each distinct value is encoded once.
    """
    body = []
    for name in sorted(columns):
        cells = _cells(columns[name], _json_floats, json.dumps)
        column = "[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]"
        body.append(f"{json.dumps(name)}: {column}")
    # encoded strings hold no raw newline, so every newline is layout
    meta = json.dumps(metadata, indent=2, sort_keys=True).replace("\n", "\n  ")
    columns_text = ",\n    ".join(body)
    _write_text(path, f'{{\n  "columns": {{\n    {columns_text}\n  }},\n  "metadata": {meta}\n}}\n')


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` and say so; ``"-"`` prints it instead."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _write_table(config: RunConfig, stem: str, metadata: dict, columns: dict) -> None:
    writer = _write_json if config.format == "json" else _write_csv
    writer(config.path or f"{stem}.{config.format}", metadata, columns)


def _scan_inputs(config: RunConfig, analyzers: tuple[int, ...]):
    """Model, the vectors of the analyzers the command reads (1 for pol_1, 2 for pol_2) and the
    steady state a scan command scans."""
    scheme, params, geometry = config.model
    n_ref = reference_direction(config.scan_plane)
    eps = []
    for which in analyzers:
        kind = getattr(config, f"pol_{which}")
        try:
            eps.append(resolve_polarization(kind, n_ref, config.polarization_vector(which)))
        except ValueError as exc:
            raise ConfigError(f"key 'pol_{which}': {exc}") from None
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    return scheme, params, geometry, *eps, rho


def cmd_steady_state(config: RunConfig) -> int:
    scheme, params, _ = config.model
    liou = build_liouvillian(scheme, params)
    numeric = steady_state_numeric(liou)
    if config.scheme == "two-level":
        analytic = two_level_steady_state_analytic(params)
    else:
        analytic = steady_state_analytic(params)
    mc = quantum_jump_estimate(
        scheme, params, config.n_traj, config.t_total / params.total, config.seed
    )

    rows, cols = np.triu_indices(scheme.n_levels)
    labels = [f"rho{i + 1}{j + 1}" for i, j in zip(rows, cols)]
    width = max(len(label) for label in labels)
    print(f"{'entry':<{width}}  {'analytic':>25}  {'numeric':>25}  {'monte_carlo':>25}  {'mc_stderr':>12}")
    for label, i, j in zip(labels, rows, cols):
        cells = [f"{m[i, j].real:+.6f}{m[i, j].imag:+.6f}j" for m in (analytic, numeric, mc.rho)]
        print(f"{label:<{width}}  {cells[0]:>25}  {cells[1]:>25}  {cells[2]:>25}  {mc.stderr[i, j]:>12.3e}")
    res_analytic = liouvillian_residual(liou, analytic)
    res_numeric = liouvillian_residual(liou, numeric)
    max_diff = float(np.max(np.abs(numeric - analytic)))
    print(f"residual |L rho_analytic| = {res_analytic:.3e}")
    print(f"residual |L rho_numeric|  = {res_numeric:.3e}")
    print(f"max |numeric - analytic|  = {max_diff:.3e}")
    print(f"max population pull       = {_population_pull(mc, analytic):.2f} standard errors")

    if config.path:
        columns = {"entry": labels}
        for name, rho in (("analytic", analytic), ("numeric", numeric), ("mc", mc.rho)):
            columns[f"{name}_re"] = rho[rows, cols].real
            columns[f"{name}_im"] = rho[rows, cols].imag
        columns["mc_stderr"] = mc.stderr[rows, cols]
        metadata = _config_echo(config)
        metadata.update(
            residual_analytic=res_analytic,
            residual_numeric=res_numeric,
            max_abs_difference=max_diff,
            mc_jumps_per_traj=mc.n_jumps / mc.n_traj,
        )
        _write_table(config, "steady_state", metadata, columns)
    return 0


def cmd_intensity_scan(config: RunConfig) -> int:
    scheme, params, geometry, eps_1, rho = _scan_inputs(config, (1,))
    scan = intensity_scan(
        scheme, geometry, eps_1, rho, plane=config.scan_plane, n_points=config.scan_points
    )
    metadata = _config_echo(config)
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
    _write_table(config, "intensity_scan", metadata, columns)
    return 0


def cmd_g2_scan(config: RunConfig) -> int:
    scheme, params, geometry, eps_1, eps_2, rho = _scan_inputs(config, (1, 2))
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
    metadata = _config_echo(config)
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
    _write_table(config, "g2_scan", metadata, columns)
    return 0


def cmd_validate(config: RunConfig) -> int:
    report = run_validation(config)
    for group in report.groups:
        for check in group.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status}  {group.name}.{check.name}: {check.detail}")
    print(f"{'PASS' if report.passed else 'FAIL'}  overall")
    if config.path:
        _write_text(config.path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0 if report.passed else 1


_COMMANDS = {
    "steady-state": (cmd_steady_state, "compare analytic, null-space and Monte Carlo steady states"),
    "intensity-scan": (cmd_intensity_scan, "far-field intensity over a full circle of directions"),
    "g2-scan": (cmd_g2_scan, "two-detector coincidence quantities over a scan"),
    "validate": (cmd_validate, "run the invariant suite and report pass/fail per group"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atompair",
        description="Fringe scans and photon-coincidence statistics of two driven atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a flat key = value config file")
        cmd.add_argument("--output", help="output path (overrides the config 'path' key)")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format override")
        cmd.add_argument("--seed", type=int, help="RNG seed override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {"path": args.output, "format": args.format, "seed": args.seed}
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = replace(config, **{k: v for k, v in flags.items() if v is not None})
        return _COMMANDS[args.command][0](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
