import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import atompair
from atompair import (
    Detector,
    DriveDecayParams,
    hg_level_scheme,
    intensity_exact,
    sigma_polarization,
    standard_geometry,
    steady_state_analytic,
)
from atompair.cli import _COMMANDS, _build_parser, _write_csv, _write_json, main
from atompair.config import ConfigError, RunConfig, parse_config_text
from atompair.dynamics import QuantumJumpResult
from atompair.scans import reference_direction, scan_direction
from atompair.validation import _population_pull

from conftest import substitute_rejected_formula

FAST_MC = "n_traj = 60\nt_total = 40\nseed = 7\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    metadata = {}
    rows = []
    header = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, header, rows


class TestConfigParsing:
    def test_defaults(self):
        config = parse_config_text("")
        assert config.g == 1.0 and config.scan_points == 360

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'spam'"):
            parse_config_text("g = 1.0\nspam = 3\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="'scan_points'"):
            parse_config_text("scan_points = many\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("g = 1\ng = 2\n")

    def test_comments_and_vectors(self):
        config = parse_config_text(
            "# a comment\ndrive_direction = 0, 0, 1\npol_1 = custom\n"
            "pol_1_vector = 1, 0, 0, 0, 0, 0\n"
        )
        assert config.drive_direction == (0.0, 0.0, 1.0)
        assert np.allclose(config.polarization_vector(1), [1, 0, 0])

    def test_custom_without_vector(self):
        with pytest.raises(ConfigError, match="pol_2_vector"):
            parse_config_text("pol_2 = custom\n")

    def test_choice_validation(self):
        with pytest.raises(ConfigError, match="line 1: key 'scan_plane' must be one of"):
            parse_config_text("scan_plane = yz\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("scheme", "three-level"),
            ("scan_plane", "yz"),
            ("pol_1", "circular"),
            ("pol_2", "circular"),
            ("format", "xml"),
        ],
    )
    def test_choice_checked_when_built(self, key, value):
        # a config built in code or overridden by replace() passes the check a config file does
        message = f"key '{key}' must be one of .*, got '{value}'"
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{key: value})
        with pytest.raises(ConfigError, match=message):
            replace(RunConfig(), **{key: value})

    def test_every_key_parses_as_its_default(self):
        # each default written out as a config line reads back as the same value and type
        defaults = vars(RunConfig())
        text = "".join(
            f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}\n"
            for key, value in defaults.items()
            if value is not None
        )
        config = parse_config_text(text + "pol_2_vector = 1, 0, 0, 0.5, 0, 0\n")
        assert config == RunConfig(pol_2_vector=(1.0, 0.0, 0.0, 0.5, 0.0, 0.0))
        assert all(type(getattr(config, k)) is type(v) for k, v in defaults.items() if v is not None)


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, line",
        [
            ("steady-state", "g = nan"),
            ("steady-state", "gamma0 = inf"),
            ("steady-state", "gamma = nan"),
            ("g2-scan", "separation_wavelengths = inf"),
            ("steady-state", "t_total = inf"),
            ("intensity-scan", "drive_direction = 0, nan, 1"),
            ("intensity-scan", "pol_1_vector = 1, 0, 0, -inf, 0, 0"),
            ("g2-scan", "pol_2_vector = 1, 0, 0, 0, nan, 0"),
        ],
    )
    def test_non_finite_rejected(self, tmp_path, capsys, command, line):
        key = line.split("=")[0].strip()
        path = write_config(tmp_path, line + "\nn_traj = 20\nscan_points = 8\n")
        assert main([command, "--config", path]) == 2
        # a key the model is built from carries the message of the model type that rejects it
        expected = {
            "g": "g must be >= 0 and finite, got nan",
            "gamma0": "decay half-rates must be >= 0 and finite",
            "gamma": "decay half-rates must be >= 0 and finite",
            "separation_wavelengths": "separation must be > 0 and finite",
            "drive_direction": "vector entries must be finite",
            "t_total": "key 't_total' must be > 0 and finite",
        }.get(key, f"key '{key}' must be a nonzero vector of finite entries")
        err = capsys.readouterr().err
        assert err.startswith("config error: line 1: ") and f"'{key}'" in err and expected in err

    @pytest.mark.parametrize("command", ["steady-state", "intensity-scan", "g2-scan", "validate"])
    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, source):
        # a --seed override passes the same checks as the config file
        if source == "config":
            argv = [command, "--config", write_config(tmp_path, "seed = -1\n")]
        else:
            argv = [command, "--seed", "-3"]
        assert main(argv) == 2
        assert "key 'seed' must be >= 0" in capsys.readouterr().err

    def test_custom_vector_judged_on_its_own_scale(self, tmp_path):
        # along x, so transverse to the +y reference direction at any scale; the
        # +-200-decade vectors have norms that under- or overflow unless rescaled
        custom = "pol_1 = custom\npol_1_vector = {}, 0, 0, 0, 0, 0\n".format
        cases = {
            "unit": custom(1),
            "scaled": custom(1e-9),
            "tiny": custom(1e-200),
            "huge": custom(1e200),
            "tiny_drive": custom(1) + "drive_direction = 0, 1e-200, 0\n",
            "huge_drive": custom(1) + "drive_direction = 0, 1e200, 0\n",
        }
        tables = {}
        for name, text in cases.items():
            out = str(tmp_path / f"{name}.csv")
            path = write_config(tmp_path, text + "scan_points = 12\n", name=f"{name}.cfg")
            assert main(["g2-scan", "--config", path, "--output", out]) == 0, name
            tables[name] = np.array(read_csv(out)[2], dtype=float)
        # normalizing a scaled vector may round its x component by one ulp
        for name in cases:
            np.testing.assert_allclose(
                tables[name], tables["unit"], rtol=1e-14, atol=1e-15, err_msg=name
            )

    @pytest.mark.parametrize("which", [1, 2])
    def test_zero_custom_vector_rejected(self, tmp_path, capsys, which):
        text = f"pol_{which} = custom\npol_{which}_vector = 0, 0, 0, 0, 0, 0\nscan_points = 8\n"
        assert main(["g2-scan", "--config", write_config(tmp_path, text)]) == 2
        assert f"key 'pol_{which}_vector' must be a nonzero vector" in capsys.readouterr().err

    @pytest.mark.parametrize("pol_1, dark", [("pi", "pol_2"), ("sigma", "pol_1")])
    def test_dark_analyzer_g2_scan_rejected(self, tmp_path, capsys, pol_1, dark):
        # the two-level dipole is along z, so a sigma analyzer sees no light
        text = f"scheme = two-level\npol_1 = {pol_1}\npol_2 = sigma\nscan_points = 8\n"
        assert main(["g2-scan", "--config", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert f"key '{dark}'" in err and "two-level scheme" in err

    @pytest.mark.parametrize("command", ["intensity-scan", "g2-scan"])
    @pytest.mark.parametrize(
        "text",
        [
            "scan_plane = xz\npol_1 = pi\n",  # pi is the quantization axis, here along +z
            "pol_1 = custom\npol_1_vector = 0, 0, 1, 0, 0, 0\n",  # +y, along the reference
        ],
    )
    def test_undefined_analyzer_is_2(self, tmp_path, capsys, command, text):
        path = write_config(tmp_path, text + "scan_points = 8\n")
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'pol_1': ")
        assert "the transverse projection vanishes" in err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("g = -1", "g"),
            ("gamma0 = -1", "gamma0"),
            ("gamma0 = 0\ngamma = 0", "gamma0"),
            ("gamma0 = 1e308", "gamma0"),  # finite, but its decay rate 2 gamma0 is not
            ("separation_wavelengths = 0", "separation_wavelengths"),
            ("drive_direction = 0, 0, 0", "drive_direction"),
            ("scan_plane = yz", "scan_plane"),
            ("seed = -1", "seed"),
            ("t_total = 0", "t_total"),
            ("pol_2 = custom", "pol_2"),
        ],
    )
    def test_rule_error_names_line_and_key(self, tmp_path, capsys, line, key):
        # every rule a built RunConfig applies points at the file line of the value it rejects
        path = write_config(tmp_path, f"n_traj = 20\n{line}\n")
        assert main(["steady-state", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2") and f"'{key}'" in err, err

    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "nonsense_key = 1\n")
        assert main(["intensity-scan", "--config", path]) == 2
        assert "nonsense_key" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, capsys):
        assert main(["intensity-scan", "--config", "/no/such/file.cfg"]) == 2

    def test_degenerate_steady_state_is_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "g = 0.0\n" + FAST_MC)
        assert main(["steady-state", "--config", path]) == 1
        assert "not unique" in capsys.readouterr().err

    def test_unwritable_output_is_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "scan_points = 8\n")
        code = main(["intensity-scan", "--config", path, "--output", "/no/such/dir/out.csv"])
        assert code == 1


class TestDefaultRuns:
    """Each command at the defaults, with no config file: what the console script runs."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, columns", [("intensity-scan", 3), ("g2-scan", 9)])
    def test_scan_prints_its_table(self, tmp_path, capsys, monkeypatch, command, columns):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--output", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = [line.split(",") for line in lines if not line.startswith("#")]
        assert len(table) == 1 + 360 and {len(cells) for cells in table} == {columns}
        assert "# path = -" in lines and not any(line.startswith("wrote") for line in lines)
        assert list(tmp_path.iterdir()) == []  # "-" prints and writes no file

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_validate_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate"]) == 0
        assert capsys.readouterr().out.endswith("PASS  overall\n")
        assert list(tmp_path.iterdir()) == []


class TestIntensityScanCommand:
    def test_sigma_flat(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "pol_1 = sigma\n")
        out = str(tmp_path / "scan.csv")
        assert main(["intensity-scan", "--config", cfg, "--output", out]) == 0
        metadata, header, rows = read_csv(out)
        assert header == ["angle", "phase", "intensity"]
        assert len(rows) == 360
        assert abs(float(metadata["visibility"])) < 1e-12
        assert abs(float(metadata["visibility_closed_form"])) < 1e-15

    def test_dark_analyzer_scans_zero(self, tmp_path):
        cfg = write_config(tmp_path, "scheme = two-level\npol_1 = sigma\nscan_points = 8\n")
        out = str(tmp_path / "scan.csv")
        assert main(["intensity-scan", "--config", cfg, "--output", out]) == 0
        metadata, _, rows = read_csv(out)
        assert [float(cells[2]) for cells in rows] == [0.0] * 8
        assert float(metadata["visibility"]) == 0.0

    def test_unread_second_analyzer_is_not_resolved(self, tmp_path):
        # pol_2 keeps its default pi, undefined at the xz reference direction; intensity-scan
        # reads only pol_1, so the sigma scan runs and matches the oracle point by point
        cfg = write_config(tmp_path, "scan_plane = xz\npol_1 = sigma\nscan_points = 8\n")
        out = tmp_path / "scan.json"
        assert main(["intensity-scan", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        columns = json.loads(out.read_text())["columns"]
        config = RunConfig()
        p = DriveDecayParams(g=config.g, gamma0=config.gamma0, gamma=config.gamma)
        scheme, geometry = hg_level_scheme(p), standard_geometry(config.separation_wavelengths, config.drive_direction)
        rho = steady_state_analytic(p)
        eps = sigma_polarization(reference_direction("xz"))
        exact = [
            intensity_exact(scheme, geometry, Detector(scan_direction("xz", theta), eps), np.kron(rho, rho))
            for theta in columns["angle"]
        ]
        assert len(exact) == 8
        np.testing.assert_allclose(columns["intensity"], exact, rtol=1e-12, atol=0)

    def test_pi_visibility_third(self, tmp_path):
        cfg = write_config(tmp_path, "pol_1 = pi\n")
        out = str(tmp_path / "scan.csv")
        main(["intensity-scan", "--config", cfg, "--output", out])
        metadata, _, _ = read_csv(out)
        assert abs(float(metadata["visibility"]) - 1.0 / 3.0) < 1e-12

    def test_scan_resolution_independence(self, tmp_path):
        values = {}
        for points in (360, 720):
            cfg = write_config(tmp_path, f"scan_points = {points}\n", name=f"c{points}.cfg")
            out = str(tmp_path / f"scan{points}.csv")
            main(["intensity-scan", "--config", cfg, "--output", out])
            values[points] = float(read_csv(out)[0]["visibility"])
        assert abs(values[360] - values[720]) < 1e-9

    def test_two_level_scheme_flag(self, tmp_path):
        cfg = write_config(tmp_path, "scheme = two-level\ng = 0.5\ngamma0 = 0\ngamma = 1\n")
        out = str(tmp_path / "scan.csv")
        assert main(["intensity-scan", "--config", cfg, "--output", out]) == 0
        metadata, _, _ = read_csv(out)
        expected = 1.0 / (2 * 0.25 + 1.0)
        assert abs(float(metadata["visibility"]) - expected) < 1e-9

    def test_bit_stable_output(self, tmp_path):
        cfg = write_config(tmp_path, "pol_1 = pi\nscan_points = 48\n")
        for command, fmt in (("intensity-scan", "csv"), ("g2-scan", "json")):
            outs = []
            for name in ("a", "b"):
                out = str(tmp_path / f"{name}.{fmt}")
                assert main([command, "--config", cfg, "--output", out, "--format", fmt]) == 0
                outs.append(Path(out).read_bytes())
            # the config echo records the output path; strip it before comparing
            strip = lambda blob: b"\n".join(
                line
                for line in blob.split(b"\n")
                if not line.startswith(b"# path") and not line.lstrip().startswith(b'"path":')
            )
            assert strip(outs[0]) == strip(outs[1]), command


class TestG2ScanCommand:
    def test_sigma_pair_columns(self, tmp_path):
        cfg = write_config(tmp_path, "pol_1 = sigma\npol_2 = sigma\nscan_points = 360\n")
        out = str(tmp_path / "g2.csv")
        assert main(["g2-scan", "--config", cfg, "--output", out]) == 0
        metadata, header, rows = read_csv(out)
        assert header == [
            "angle",
            "phase",
            "g2_factorized",
            "g2_exact",
            "gamma2",
            "g2_normalized",
            "witness_lhs",
            "witness_rhs",
            "violated",
        ]
        assert abs(float(metadata["modulation_depth"]) - 1.0) < 1e-9
        assert abs(float(metadata["modulation_closed_form"]) - 1.0) < 1e-15
        assert float(metadata["max_factorized_vs_exact"]) < 1e-10
        # normalized coincidence follows (1 + cos phi)/2 row by row
        for cells in rows[:: len(rows) // 24]:
            phase, g2n = float(cells[1]), float(cells[5])
            assert abs(g2n - 0.5 * (1 + math.cos(phase))) < 1e-10

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "scan_plane = xz\npol_1 = sigma\npol_2 = sigma\n",
            "scheme = two-level\n",
            # every atom phase nontrivial
            "separation_wavelengths = 0.8\ndrive_direction = 0.3, 0.5, 0.2\npol_1 = sigma\n",
        ],
        ids=["defaults", "xz-sigma-sigma", "two-level", "geometry"],
    )
    def test_factorized_matches_oracle(self, tmp_path, text):
        # the factorized column against the product-space oracle, point by point
        out = tmp_path / "g2.json"
        argv = ["g2-scan", "--config", write_config(tmp_path, text), "--output", str(out)]
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(out.read_text())["metadata"]["max_factorized_vs_exact"] <= 1e-12

    def test_orthogonal_flat(self, tmp_path):
        cfg = write_config(tmp_path, "pol_1 = pi\npol_2 = sigma\nscan_points = 120\n")
        out = str(tmp_path / "g2.csv")
        main(["g2-scan", "--config", cfg, "--output", out])
        metadata, _, rows = read_csv(out)
        assert float(metadata["modulation_depth"]) < 1e-12
        gamma2_col = [abs(float(c[4])) for c in rows]
        assert max(gamma2_col) < 1e-15

    def test_xz_plane(self, tmp_path):
        cfg = write_config(
            tmp_path, "scan_plane = xz\npol_1 = sigma\npol_2 = sigma\nscan_points = 120\n"
        )
        out = str(tmp_path / "g2.csv")
        assert main(["g2-scan", "--config", cfg, "--output", out]) == 0
        metadata, _, _ = read_csv(out)
        assert abs(float(metadata["modulation_depth"]) - 1.0) < 1e-9

    def test_custom_polarization_mix(self, tmp_path):
        # equal mix of the pi and sigma reference vectors: |z.eps|^2 = 1/2
        inv_sqrt2 = 2**-0.5
        cfg = write_config(
            tmp_path,
            f"pol_1 = custom\npol_1_vector = {inv_sqrt2}, 0, 0, 0, {inv_sqrt2}, 0\n",
        )
        out = str(tmp_path / "scan.csv")
        assert main(["intensity-scan", "--config", cfg, "--output", out]) == 0
        metadata, _, _ = read_csv(out)
        assert abs(float(metadata["visibility"]) - 1.0 / 6.0) < 1e-12
        assert abs(float(metadata["visibility"]) - float(metadata["visibility_closed_form"])) < 1e-12

    def test_json_csv_encode_identical_numbers(self, tmp_path):
        cfg = write_config(tmp_path, "scan_points = 36\npol_1 = sigma\npol_2 = sigma\n")
        out_csv = str(tmp_path / "g2.csv")
        out_json = str(tmp_path / "g2.json")
        main(["g2-scan", "--config", cfg, "--output", out_csv, "--format", "csv"])
        main(["g2-scan", "--config", cfg, "--output", out_json, "--format", "json"])
        _, header, rows = read_csv(out_csv)
        payload = json.loads(Path(out_json).read_text(encoding="utf-8"))
        for j, name in enumerate(header):
            json_col = payload["columns"][name]
            for i, cells in enumerate(rows):
                assert float(cells[j]) == float(json_col[i]), (name, i)


class TestSteadyStateCommand:
    def test_table_reports_sixth(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_MC)
        assert main(["steady-state", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "rho11" in out
        assert "+0.166667" in out  # analytic and numeric columns
        assert "max |numeric - analytic|" in out

    def test_two_level_zero_drive(self, tmp_path, capsys):
        # the undriven two-level atom has a unique steady state: every route gives the ground state
        cfg = write_config(tmp_path, "scheme = two-level\ng = 0\n" + FAST_MC)
        out = str(tmp_path / "ss.csv")
        assert main(["steady-state", "--config", cfg, "--output", out]) == 0
        assert "max population pull       = 0.00 standard errors" in capsys.readouterr().out
        _, header, rows = read_csv(out)
        table = {cells[0]: [float(c) for c in cells[1:]] for cells in rows}
        assert sorted(table) == ["rho11", "rho12", "rho22"]
        for label, expected in (("rho11", 0.0), ("rho12", 0.0), ("rho22", 1.0)):
            for name in ("analytic_re", "numeric_re", "mc_re"):
                assert table[label][header.index(name) - 1] == pytest.approx(expected, abs=1e-12)

    def test_writes_file(self, tmp_path):
        cfg = write_config(tmp_path, FAST_MC)
        out = str(tmp_path / "ss.csv")
        main(["steady-state", "--config", cfg, "--output", out])
        metadata, header, rows = read_csv(out)
        assert float(metadata["max_abs_difference"]) < 1e-10
        assert float(metadata["mc_jumps_per_traj"]) > 0
        entry_col = [cells[0] for cells in rows]
        assert "rho11" in entry_col and "rho34" in entry_col

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "text",
        [
            "g = 0.5\ngamma0 = 0.5\ngamma = 0.5\nt_total = 20\n",
            "g = 1000\nt_total = 20\n",
            "g = 0.05\nt_total = 200\n",
        ],
        ids=["critical", "strong", "overdamped"],
    )
    def test_monte_carlo_branch_raises_no_warning(self, tmp_path, capsys, text):
        # the no-jump map where it divides by kappa = 0, where it unwinds many turns per grid
        # step, and on its overdamped branch
        cfg = write_config(tmp_path, text + "n_traj = 20\n")
        assert main(["steady-state", "--config", cfg, "--output", "-"]) == 0
        assert "mc_re" in capsys.readouterr().out

    def test_same_seed_same_bytes_across_processes(self, tmp_path):
        # two interpreters with the same seed write identical output: nothing in the draws
        # depends on process state such as hash randomization or entropy from the OS
        cfg = write_config(tmp_path, "n_traj = 200\nt_total = 20\n")
        argv = [sys.executable, "-m", "atompair.cli", "steady-state", "--config", cfg]
        argv += ["--seed", "7", "--output", "-"]
        env = dict(os.environ, PYTHONPATH=str(Path(atompair.__file__).parents[1]))
        runs = [subprocess.run(argv, env=env, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout and b"mc_re" in runs[0].stdout


class TestValidateCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "n_traj = 60\nt_total = 40\nseed = 20260809\n")
        out = str(tmp_path / "report.json")
        code = main(["validate", "--config", cfg, "--output", out])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "PASS  overall" in captured
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert report["passed"] is True
        names = {g["name"] for g in report["groups"]}
        assert {"steady_state", "trace_normalization", "monte_carlo"} <= names
        assert "mc_jumps_per_traj = " in captured

    def test_injected_trace_bug_fails(self, tmp_path, capsys, monkeypatch):
        substitute_rejected_formula(monkeypatch)
        cfg = write_config(tmp_path, FAST_MC)
        code = main(["validate", "--config", cfg])
        captured = capsys.readouterr().out
        assert code == 1
        assert "FAIL  trace_normalization" in captured

    def test_report_on_stdout_names_no_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_MC)
        main(["validate", "--config", cfg, "--output", "-"])
        out = capsys.readouterr().out
        assert out.endswith("}\n")
        assert "wrote" not in out

    def test_no_jumps_reads_infinite_pull(self, tmp_path, capsys):
        # at g = 0.001 no trajectory jumps in 20/Gamma: every population has zero spread
        cfg = write_config(tmp_path, "g = 0.001\nn_traj = 20\nt_total = 20\n")
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "mc_jumps_per_traj = 0.00" in out
        assert "FAIL  monte_carlo.populations_within_3_sigma: max |population pull| = inf " in out
        assert main(["steady-state", "--config", cfg]) == 0
        assert "max population pull       = inf standard errors" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "gamma0 = 1\ngamma = 0\nn_traj = 200\n",
                [
                    "FAIL  monte_carlo.populations_within_3_sigma: steady state is not unique",
                    "; the Monte Carlo never leaves the pi pair it starts in",
                ],
            ),
            (
                "n_traj = 1\n",
                [
                    "FAIL  monte_carlo.populations_within_3_sigma: max |population pull| = nan "
                    "standard errors",
                    "; one trajectory gives no standard error\n",
                ],
            ),
        ],
        ids=["no-sigma-decay", "one-trajectory"],
    )
    def test_undefined_pull_fails_and_says_why(self, tmp_path, capsys, text, expected):
        cfg = write_config(tmp_path, text + "t_total = 20\n")
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert all(part in out for part in expected), out
        assert out.endswith("FAIL  overall\n")

    def test_monte_carlo_that_cannot_run_fails_its_group(self, tmp_path, capsys):
        # below 0.01/Gamma the Monte Carlo has no grid step: the report still names every group
        cfg = write_config(tmp_path, "t_total = 0.005\n")
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", cfg, "--output", out]) == 1
        assert "FAIL  monte_carlo.populations_within_3_sigma: " in capsys.readouterr().out
        groups = json.loads(Path(out).read_text(encoding="utf-8"))["groups"]
        assert [g["name"] for g in groups if not g["passed"]] == ["monte_carlo"]
        assert len(groups) == 9
        (check,) = groups[-1]["checks"]
        assert "no samples collected; increase t_total" in check["detail"]

    def test_has_no_fault_injection_switch(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--inject-trace-bug"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --inject-trace-bug" in capsys.readouterr().err


# a float column whose repeats include both zeros, NaN and both infinities
REPEATED_FLOATS = np.array(
    [0.1, -0.0, np.nan, 0.0, np.inf, 0.1, -np.inf, np.nan, -0.0, np.inf, 0.0, -np.inf, 1.0 / 3.0]
)


class TestJsonLayout:
    """The JSON writers produce exactly ``json.dumps(..., indent=2, sort_keys=True)``."""

    @staticmethod
    def assert_stdlib_layout(text):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ["steady-state", "intensity-scan", "g2-scan", "validate"])
    def test_every_command(self, tmp_path, command):
        cfg = write_config(tmp_path, FAST_MC + "scan_points = 12\n")
        out = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        self.assert_stdlib_layout(out.read_text(encoding="utf-8"))

    def test_awkward_payload(self, tmp_path):
        metadata = {"zeta": "quote \" and back\\slash", "alpha": float("nan"), "\u00e9t\u00e9": -0.0}
        columns = {
            "value": np.array([float("nan"), float("inf"), -float("inf"), 0.1, -2.5e-300]),
            "repeats": REPEATED_FLOATS,
            "flag": np.array([True, False, True]),
            "label": ["\u03c1\u2081\u2081", 'say "hi"', "tab\there", ""],
            "empty": np.array([]),
            "single": np.array([1.0 / 3.0]),
            "\u00fcber": [7],
        }
        out = tmp_path / "out.json"
        _write_json(str(out), metadata, columns)
        text = out.read_text(encoding="utf-8")
        self.assert_stdlib_layout(text)
        payload = json.loads(text)
        flags = payload["columns"]["flag"]
        assert flags == [1, 0, 1] and all(type(v) is int for v in flags)  # not true/false
        assert payload["columns"]["empty"] == []
        assert payload["columns"]["single"] == [1.0 / 3.0]
        assert math.isnan(payload["metadata"]["alpha"])
        # bit-equal, not just equal: a -0.0 written as 0.0 would pass a re-dump of the parse
        parsed = np.array(payload["columns"]["repeats"])
        assert np.array_equal(parsed.view(np.int64), REPEATED_FLOATS.view(np.int64))


def test_csv_cell_formats_its_own_row(tmp_path):
    out = tmp_path / "out.csv"
    _write_csv(str(out), {}, {"repeats": REPEATED_FLOATS, "flag": REPEATED_FLOATS > 0})
    _, header, rows = read_csv(out)
    assert header == ["repeats", "flag"]
    assert [cells[0] for cells in rows] == [format(v, ".17g") for v in REPEATED_FLOATS]
    assert [cells[1] for cells in rows] == [str(int(v > 0)) for v in REPEATED_FLOATS]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_formats_each_distinct_float_once(tmp_path, monkeypatch, fmt):
    formatted = []
    for name in ("_json_floats", "_csv_floats"):
        texts = getattr(atompair.cli, name)
        counted = lambda values, texts=texts: formatted.append(len(values)) or texts(values)
        monkeypatch.setattr(atompair.cli, name, counted)
    cfg = write_config(tmp_path, "scan_points = 360\n")
    out = tmp_path / f"g2.{fmt}"
    assert main(["g2-scan", "--config", cfg, "--output", str(out), "--format", fmt]) == 0
    if fmt == "json":
        columns = json.loads(out.read_text(encoding="utf-8"))["columns"]
    else:
        _, header, rows = read_csv(out)
        columns = {name: [float(cells[j]) for cells in rows] for j, name in enumerate(header)}
    floats = [np.array(columns[name], dtype=float) for name in columns if name != "violated"]
    assert len(floats) == 8 and all(column.size == 360 for column in floats)
    distinct = sum(np.unique(column.view(np.int64)).size for column in floats)
    assert sum(formatted) == distinct < 8 * 360


def test_population_pull():
    reference = np.diag([0.25, 0.75]).astype(complex)
    pull = lambda rho, stderr: _population_pull(
        QuantumJumpResult(np.diag(rho).astype(complex), np.diag(stderr), 1, 1, 0), reference
    )
    assert pull([0.25, 0.75], [0.0, 0.0]) == 0.0  # no spread, exact agreement
    assert pull([0.0, 1.0], [0.0, 0.0]) == math.inf  # no spread, yet off the reference
    assert pull([0.0, 1.0], [0.5, 0.0]) == math.inf
    assert pull([0.5, 0.5], [0.1, 0.125]) == 2.5
    assert math.isnan(pull([0.25, 0.75], [math.inf, math.inf]))  # one trajectory: no pull


def test_command_reuses_the_model_its_config_check_built(monkeypatch):
    # the config is checked twice (load, then the --seed override), by building its model once
    atompair.config._model.cache_clear()
    builds, build = [], atompair.config.standard_geometry
    monkeypatch.setattr(
        atompair.config, "standard_geometry", lambda *args: builds.append(1) or build(*args)
    )
    assert main(["intensity-scan", "--output", os.devnull, "--seed", "3"]) == 0
    assert len(builds) == 1


_NUMPY_ONLY_RUN = """
import os, sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None  # importing either now raises
before = set(sys.modules)
from atompair.cli import main
code = main(["intensity-scan", "--output", os.devnull])
allowed = sys.stdlib_module_names | {"numpy", "atompair"}
print(code, sorted({name.partition(".")[0] for name in set(sys.modules) - before} - allowed))
"""


def test_runs_on_numpy_alone():
    # numpy is the one runtime dependency pyproject.toml declares; the test extras are not
    env = dict(os.environ, PYTHONPATH=str(Path(atompair.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_RUN], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode().splitlines()[-1] == "0 []"


def test_parser_shared_across_calls(tmp_path, capsys):
    # the parser is built once per process; no call may see another's arguments
    assert _build_parser() is _build_parser()
    cfg = write_config(tmp_path, "seed = 11\nformat = csv\nscan_points = 8\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["intensity-scan", "--no-such-flag"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err

    argv = ["intensity-scan", "--config", cfg, "--output", "-"]
    assert main(argv + ["--seed", "7", "--format", "json"]) == 0
    metadata = json.loads(capsys.readouterr().out)["metadata"]
    assert (metadata["seed"], metadata["format"]) == (7, "json")

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "# seed = 11\n" in out and "# format = csv\n" in out


# Stored outputs of the scan and steady-state commands at small non-standard
# configs: separation 0.8 and a drive with a component along the atom axis, so
# every phase of the kernel is nonzero.  Regenerate (only when an output change
# is deliberate) with ``PYTHONPATH=src python tests/test_cli.py``.
REFERENCE_PATH = Path(__file__).parent / "data" / "cli_reference.json"
_REFERENCE_GEOMETRY = (
    "g = 0.7\nseparation_wavelengths = 0.8\ndrive_direction = 0.3, 0.5, 0.2\nscan_points = 12\n"
)
REFERENCE_SCAN_CONFIGS = {
    "four-level-xy": "scheme = four-level\nscan_plane = xy\npol_1 = pi\npol_2 = custom\n"
    "pol_2_vector = 0.3, 0, 1, 0.2, 0, -0.5\n",
    "four-level-xz": "scheme = four-level\nscan_plane = xz\npol_1 = sigma\npol_2 = custom\n"
    "pol_2_vector = 1, 0, 0.5, 0.5, 0, 0\n",
    "two-level-xy": "scheme = two-level\nscan_plane = xy\npol_1 = pi\npol_2 = pi\n",
    "two-level-xy-custom": "scheme = two-level\nscan_plane = xy\npol_1 = custom\npol_2 = pi\n"
    "pol_1_vector = 0.2, 0, 0, 0.3, 1, 0\n",
}
REFERENCE_STEADY_STATE = "n_traj = 5\nt_total = 20\n"


def reference_outputs(tmp_dir):
    """JSON payloads of every reference run, keyed 'command/config', without the path echo."""
    runs = {
        f"{command}/{name}": _REFERENCE_GEOMETRY + text
        for name, text in REFERENCE_SCAN_CONFIGS.items()
        for command in ("intensity-scan", "g2-scan")
    }
    runs["steady-state/default"] = REFERENCE_STEADY_STATE
    outputs = {}
    for key, text in runs.items():
        command = key.split("/")[0]
        cfg = Path(tmp_dir) / "reference.cfg"
        cfg.write_text(text)
        out = str(Path(tmp_dir) / "reference.json")
        assert main([command, "--config", str(cfg), "--output", out, "--format", "json"]) == 0
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
        del payload["metadata"]["path"]
        outputs[key] = payload
    return outputs


def reference_mismatches(got, ref):
    """The fields where one output payload differs from its stored reference: strings exactly,
    metadata numbers by more than 1e-12 of max(1, |value|), and numeric columns by more than 1e-12
    of the column's largest |value| (numpy builds differ in the last bits)."""
    if any(sorted(got[part]) != sorted(ref[part]) for part in ("metadata", "columns")):
        return ["field names"]
    bad = []
    for name, value in ref["metadata"].items():
        if isinstance(value, str):
            same = got["metadata"][name] == value
        else:
            same = abs(got["metadata"][name] - value) <= 1e-12 * max(1.0, abs(value))
        if not same:
            bad.append(f"metadata {name}: {got['metadata'][name]!r} against {value!r}")
    for name, column in ref["columns"].items():
        if isinstance(column[0], str):
            same = got["columns"][name] == column
        else:
            column, values = np.asarray(column, dtype=float), np.asarray(got["columns"][name])
            atol = 1e-12 * np.max(np.abs(column))
            same = values.shape == column.shape and np.allclose(
                values, column, rtol=0, atol=atol, equal_nan=True
            )
        if not same:
            bad.append(f"column {name}")
    return bad


def refreshed_reference(stored, actual):
    """The reference entries after a regeneration, and the keys rewritten: a stored entry that
    still matches its run is kept as stored, so last-bit noise leaves no diff; failing and new
    runs are written from ``actual``, and runs that no longer exist are dropped."""
    entries, rewritten = {}, []
    for key, got in actual.items():
        if key in stored and not reference_mismatches(got, stored[key]):
            entries[key] = stored[key]
        else:
            entries[key] = got
            rewritten.append(key)
    return entries, rewritten


def test_outputs_match_stored_reference(tmp_path):
    expected = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    actual = reference_outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    for key, ref in expected.items():
        bad = reference_mismatches(actual[key], ref)
        assert not bad, (key, bad)


def test_reference_writer_keeps_matching_entries():
    run = {"metadata": {"g": 0.7, "scheme": "two-level"}, "columns": {"value": [0.25, -1.0]}}

    def shifted(delta):
        entry = json.loads(json.dumps(run))
        entry["columns"]["value"][0] += delta
        return entry

    stored = {"noise": shifted(1e-15), "change": shifted(1e-6), "gone": run}
    entries, rewritten = refreshed_reference(stored, {"noise": run, "change": run, "new": run})
    assert entries == {"noise": stored["noise"], "change": run, "new": run}
    assert rewritten == ["change", "new"]


WORKFLOW_PATH = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
# a console-script call (``atompair <command>``) or a module call (``-m atompair.cli <command>``)
_CLI_CALL = re.compile(r"(?<![\w.-])atompair(?:\.cli)?\s+([\w-]+)")


def smoke_step_script(workflow_text):
    """The lines of the ``run: |`` block of the CI step that smoke-tests the console script."""
    lines = workflow_text.splitlines()
    step = next(i for i, line in enumerate(lines) if line.strip().startswith("- name: Smoke-test"))
    run = next(i for i in range(step + 1, len(lines)) if lines[i].strip() == "run: |")
    # the block belongs to this step only if no other step starts before it
    assert not any(line.strip().startswith("- ") for line in lines[step + 1 : run])
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    while block and not block[-1].strip():
        block.pop()
    return block


def test_smoke_step_runs_each_command_once():
    # every CLI behaviour is asserted in this file; CI's smoke step only proves the installed
    # entry point runs, so it calls each command once and must not grow back
    script = smoke_step_script(WORKFLOW_PATH.read_text(encoding="utf-8"))
    calls = [
        match.group(1)
        for line in script
        if not line.lstrip().startswith("#")
        for match in _CLI_CALL.finditer(line)
    ]
    assert all(command in _COMMANDS for command in calls), calls
    assert sorted(calls) == sorted(_COMMANDS), calls  # each command exactly once
    assert len(script) <= 25


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = reference_outputs(tmp)
    stored = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.exists() else {}
    entries, rewritten = refreshed_reference(stored, outputs)
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    REFERENCE_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    print(f"rewritten: {', '.join(rewritten) or 'none'}")
    print(f"dropped: {', '.join(sorted(set(stored) - set(entries))) or 'none'}")
