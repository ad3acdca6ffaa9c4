import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rabi2q import ModelParams, entangle, transform, variational
from rabi2q import cli
from rabi2q.cli import (
    COLUMNS,
    METHODS,
    OUTPUTS,
    REFERENCE_ENERGIES,
    evaluate,
    locate_negativity_zero,
    main,
    render_rows,
    sweep_columns,
)


def run_cli(capsys, argv):
    """Exit code, stdout and stderr, whether the parser or a command rejects ``argv``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, argv):
    """Exit code and stdout, whether the parser or a command rejects ``argv``."""
    return run_cli(capsys, argv)[:2]


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestGround:
    def test_zero_coupling(self, capsys):
        code, out, _ = run_cli(capsys, ["ground", "--g", "0"])
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["energy_exact"]) == pytest.approx(-1.0, abs=1e-9)
        assert float(row["energy_variational"]) == pytest.approx(-1.0, abs=1e-9)
        assert float(row["negativity_exact"]) < 1e-10
        assert float(row["negativity_approx"]) == 0.0

    def test_benchmark_point(self, capsys):
        code, out, _ = run_cli(capsys, ["ground", "--omega-c", "1", "--g", "0.4"])
        assert code == 0
        row = csv_rows(out)[0]
        assert abs(float(row["energy_exact"]) - (-1.04256)) < 2e-5
        assert abs(float(row["energy_variational"]) - (-1.04210)) < 2e-5
        assert abs(float(row["energy_corrected"]) - (-1.04255)) < 2e-5
        assert float(row["chi"]) == float(row["alpha"])

    def test_detuned_point_tracks_exact(self, capsys):
        code, out, _ = run_cli(capsys, ["ground", "--omega-c", "1.2", "--g", "0.7"])
        assert code == 0
        row = csv_rows(out)[0]
        e_exact = float(row["energy_exact"])
        e_var = float(row["energy_variational"])
        assert abs(e_var - e_exact) / abs(e_exact) < 0.005

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["ground", "--g", "0.4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["energy_exact"] == pytest.approx(-1.04256, abs=2e-5)

    def test_small_omega_c_deep_coupling_point(self, capsys):
        # alpha = 44: the exact state needs more than 2048 Fock levels, and
        # the trial state's exp(-alpha^2 / 2) underflows
        code, out, _ = run_cli(capsys, ["ground", "--g", "4.4", "--omega-c", "0.1"])
        assert code == 0
        row = csv_rows(out)[0]
        assert 2048 < int(row["n_max_used"]) <= 4096
        assert float(row["fidelity"]) > 0.999

    def test_missing_g_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["ground"])
        assert (code, out) == (3, "")
        assert "--g" in err


class TestTable1:
    def test_all_rows_match(self, capsys):
        code, out, err = run_cli(capsys, ["table1"])
        assert code == 0
        assert err == ""
        rows = csv_rows(out)
        assert len(rows) == len(REFERENCE_ENERGIES)
        first = rows[0]
        assert float(first["energy_exact"]) == -1.01015
        assert float(first["energy_transform"]) == -1.01013
        assert float(first["energy_corrected"]) == -1.01015

    def test_widened_tolerance_passes(self, capsys):
        code, _, _ = run_cli(capsys, ["table1", "--ref-tol", "1e-3"])
        assert code == 0

    def test_unreachable_tolerance_reports_mismatch(self, capsys):
        # computed values agree to ~5e-6, never to 1e-9
        code, _, err = run_cli(capsys, ["table1", "--ref-tol", "1e-9"])
        assert code == 2
        assert "reference" in err

    def test_detuning_is_rejected(self, capsys):
        # the table is at resonance; a detuning must not be accepted and ignored
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--omega-c", "2"])
        assert excinfo.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--omega-c" in captured.err


class TestSweep:
    def test_deterministic_output(self, capsys):
        argv = ["sweep", "--g-min", "0", "--g-max", "0.4", "--steps", "3",
                "--outputs", "energy,alpha"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_single_trivial_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0", "--g-max", "0", "--steps", "1"],
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["g"]) == 0.0
        assert float(rows[0]["energy_exact"]) == pytest.approx(-1.0, abs=1e-9)

    def test_parallel_matches_serial(self, capsys):
        base = ["sweep", "--g-min", "0.1", "--g-max", "0.5", "--steps", "3",
                "--outputs", "energy,fidelity"]
        _, serial, _ = run_cli(capsys, base)
        _, parallel, _ = run_cli(capsys, base + ["--parallel", "2"])
        assert serial == parallel

    def test_process_pool_is_imported_only_under_parallel(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        probe = (
            "import sys, rabi2q.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_fidelity_column_above_0p999_up_to_half_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0.1", "--g-max", "0.5", "--steps", "5",
             "--outputs", "fidelity"],
        )
        assert code == 0
        for row in csv_rows(out):
            assert float(row["fidelity"]) > 0.999

    def test_negativity_columns_track_each_other_below_half_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0.1", "--g-max", "0.5", "--steps", "5",
             "--outputs", "negativity_exact,negativity_approx"],
        )
        assert code == 0
        for row in csv_rows(out):
            exact = float(row["negativity_exact"])
            approx = float(row["negativity_approx"])
            assert abs(approx - exact) / exact < 0.10

    def test_row_invariants(self):
        import math

        columns = sweep_columns(
            ("exact", "variational", "transform", "corrected"),
            ("energy", "alpha", "beta", "fidelity", "negativity_exact",
             "negativity_approx"),
        )
        for g in np.linspace(0.0, 1.0, 6):
            row = evaluate(ModelParams(1.0, 1.0, float(g)), columns, 1e-10)
            assert row["error"] == ""
            for method in ("exact", "variational", "transform", "corrected"):
                assert math.isfinite(row[f"energy_{method}"])
            assert 0.0 <= row["fidelity"] <= 1.0
            assert row["negativity_exact"] >= 0.0
            assert row["negativity_approx"] >= 0.0

    def test_small_omega_c_sweep_has_no_error_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--omega-c", "0.1", "--g-min", "0.2", "--g-max", "4", "--steps", "40",
             "--methods", ",".join(METHODS), "--outputs", ",".join(OUTPUTS)],
        )  # fmt: skip
        rows = csv_rows(out)
        assert code == 0 and len(rows) == 40
        assert [row["g"] for row in rows if row["error"]] == []

    def test_row_failure_is_recorded_not_fatal(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0", "--g-max", "0.5", "--steps", "2", "--omega-c", "-1",
             "--methods", "exact", "--outputs", "energy"],
        )  # fmt: skip
        rows = csv_rows(out)
        assert code == 0 and len(rows) == 2
        assert all("omega_c" in row["error"] for row in rows)

    def test_bad_steps_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--steps", "0"])
        assert code == 3
        assert "steps" in err

    def test_unknown_output_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--outputs", "energy,bogus"])
        assert excinfo.value.code == 3

    def test_columns_follow_declared_order(self):
        assert sweep_columns(("exact", "corrected"), ("energy", "beta", "fidelity")) == (
            "g", "energy_exact", "energy_corrected", "beta", "fidelity",
            "n_max_used", "eig_residual", "stat_residual", "error",
        )


class TestVariationalCommand:
    def test_one_scale_free_residual(self, capsys):
        code, out, _ = run_cli(capsys, ["variational", "--g", "0.6", "--omega-c", "1.2"])
        assert code == 0
        (row,) = csv_rows(out)
        assert list(row) == [
            "g", "omega_c", "alpha", "beta", "energy", "norm_sq", "stat_residual",
        ]  # fmt: skip
        assert float(row["stat_residual"]) < 1e-14

    def test_deep_coupling_rows_succeed(self, capsys):
        # a residual that divides by alpha beta rejects these rows spuriously
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--omega-c", "0.5", "--g-min", "2", "--g-max", "2.4", "--steps", "3",
             "--methods", "variational,transform", "--outputs", "energy"],
        )  # fmt: skip
        assert code == 0
        for row in csv_rows(out):
            assert row["error"] == ""
            assert float(row["stat_residual"]) <= 1e-8
            assert float(row["energy_transform"]) == float(row["energy_variational"])


class TestNegativityCommand:
    def test_small_g_consistency(self, capsys):
        code, out, _ = run_cli(capsys, ["negativity", "--g", "0.1"])
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["negativity_small_g"]) == pytest.approx(0.01 / 16, abs=1e-12)
        assert float(row["negativity_exact"]) == pytest.approx(0.01 / 16, rel=0.02)
        assert float(row["concurrence_approx"]) == pytest.approx(
            2 * float(row["negativity_approx"]), rel=1e-9
        )


class TestFindZero:
    def test_resonance_crossing(self, capsys):
        code, out, _ = run_cli(capsys, ["find-zero"])
        assert code == 0
        row = csv_rows(out)[0]
        assert 2.5 <= float(row["g_zero"]) <= 2.7

    def test_no_crossing_in_bracket_errors(self, capsys):
        code, _, err = run_cli(capsys, ["find-zero", "--g-min", "1.5", "--g-max", "2.0"])
        assert code == 1
        assert "no crossing" in err

    def test_bracket_already_below_threshold_errors(self, capsys):
        code, _, err = run_cli(capsys, ["find-zero", "--g-min", "3.0", "--g-max", "3.5"])
        assert code == 1
        assert "already" in err

    # find-zero's defaults
    SEARCH = {"threshold": 5e-6, "g_tol": 1e-3, "tol": 1e-10}

    def test_crossing_unique_in_widened_bracket(self):
        # monotone decay past the maximum: two brackets find one crossing
        a = locate_negativity_zero(1.0, g_lo=1.5, g_hi=3.5, **self.SEARCH)
        b = locate_negativity_zero(1.0, g_lo=2.0, g_hi=3.2, **self.SEARCH)
        assert abs(a - b) < 5e-3

    @pytest.mark.parametrize("g_tol", [0.0, -1e-3, float("nan")])
    def test_nonpositive_g_tol_raises(self, g_tol):
        search = {**self.SEARCH, "g_tol": g_tol}
        with pytest.raises(ValueError, match="g_tol"):
            locate_negativity_zero(1.0, g_lo=1.5, g_hi=3.5, **search)

    def test_detuned_crossing_exists(self):
        # exploratory, no benchmark value: positive detuning pushes the
        # numerical zero out to g ~ 3.1
        g = locate_negativity_zero(1.2, g_lo=1.5, g_hi=3.5, **self.SEARCH)
        assert 2.9 < g < 3.3

    def test_fewer_evaluations_than_bisection_none_repeated(self, monkeypatch):
        solved = []

        def counted(params, columns, tol):
            solved.append(params.g)
            return evaluate(params, columns, tol)

        monkeypatch.setattr(cli, "evaluate", counted)
        locate_negativity_zero(1.0, g_lo=1.5, g_hi=3.5, **self.SEARCH)
        # bisection of [1.5, 3.5] to 1e-3: the 2 ends and 11 midpoints
        assert len(solved) < 13
        assert len(set(solved)) == len(solved)

    @pytest.mark.parametrize("omega_c", [0.5, 1.0, 1.2])
    def test_within_half_g_tol_of_the_crossing(self, omega_c):
        def above(g):
            params = ModelParams(1.0, omega_c, g)
            negativity = evaluate(params, ("negativity_exact",), self.SEARCH["tol"])
            return negativity["negativity_exact"] > self.SEARCH["threshold"]

        lo, hi = 1.5, 3.5
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
        g = locate_negativity_zero(omega_c, g_lo=1.5, g_hi=3.5, **self.SEARCH)
        assert abs(g - lo) <= 0.5 * self.SEARCH["g_tol"] + 1e-9


class TestFlagsAndConfig:
    def test_unknown_flag_exits_3(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ground", "--bogus", "1"])
        assert excinfo.value.code == 3

    def test_unknown_command_exits_3(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 3

    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.4\nomega-c = 1.0  # resonance\n")
        code, out, _ = run_cli(capsys, ["ground", "--config", str(cfg)])
        assert code == 0
        assert float(csv_rows(out)[0]["g"]) == 0.4

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.4\n")
        code, out, _ = run_cli(capsys, ["ground", "--config", str(cfg), "--g", "0.2"])
        assert code == 0
        assert float(csv_rows(out)[0]["g"]) == 0.2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, ["ground", "--g", "0", "--output", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("g,omega_c,")

    @pytest.mark.parametrize(
        "argv",
        [["ground", "--g", "0.4", "--nmax-start", "16"],
         ["variational", "--g", "0.4", "--tol", "1e-3"],
         ["transform", "--g", "0.4", "--tol", "1e-3"]],
        ids=" ".join,
    )  # fmt: skip
    def test_flags_nothing_reads_are_rejected(self, capsys, argv):
        # variational and transform never run the exact solver
        assert exit_code(capsys, argv) == (3, "")

    @pytest.mark.parametrize(
        "argv",
        [["ground", "--g", "0.4", "--tol", "nan"],
         ["ground", "--g", "0.4", "--tol=-1e-10"],
         ["sweep", "--tol", "0"],
         ["sweep", "--parallel", "-3"],
         ["sweep", "--parallel", "0"],
         ["find-zero", "--g-tol", "0"],
         ["find-zero", "--g-tol", "nan"],
         ["find-zero", "--g-min", "3.5", "--g-max", "1.5"],
         ["find-zero", "--g-min", "2.0", "--g-max", "2.0"],
         ["table1", "--ref-tol", "nan"],
         ["sweep", "--g-min", "nan", "--g-max", "1", "--steps", "3"],
         ["sweep", "--g-max", "inf"],
         ["sweep", "--g-min=-inf", "--g-max", "0"],
         ["find-zero", "--threshold", "0"],
         ["find-zero", "--threshold", "nan"],
         ["find-zero", "--g-max", "inf"],
         ["find-zero", "--g-min=-inf"]],
        ids=" ".join,
    )  # fmt: skip
    def test_bad_values_are_usage_errors_before_any_row(self, capsys, argv):
        assert exit_code(capsys, argv) == (3, "")

    def test_render_rows_csv_formatting(self):
        text = render_rows(["g", "value"], [{"g": 0.1, "value": -1.0101523423}], "csv")
        assert text == "g,value\n0.1,-1.010152342\n"

    def test_json_has_no_nonfinite_tokens(self, capsys):
        # mu and lambda_plus are infinite at g = 40; RFC 8259 has no Infinity or NaN
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        argv = ["transform", "--g", "40", "--format"]
        code, out, _ = run_cli(capsys, [*argv, "json"])
        assert code == 0
        assert json.loads(out, parse_constant=reject)[0]["mu"] is None
        assert csv_rows(run_cli(capsys, [*argv, "csv"])[1])[0]["mu"] == "inf"

    # Every flag of each subcommand but --config and --output, at cheap values.
    EVERY_FLAG = {
        "ground": {"g": "0.4", "omega-c": "0.8", "tol": "1e-8", "format": "json"},
        "variational": {"g": "0.4", "omega-c": "0.8", "format": "json"},
        "transform": {"g": "0.4", "omega-c": "0.8", "format": "csv"},
        "negativity": {"g": "0.4", "omega-c": "0.8", "tol": "1e-8", "format": "csv"},
        "table1": {"ref-tol": "1e-4", "tol": "1e-8", "format": "json"},
        "sweep": {"g-min": "-1", "g-max": "0.5", "steps": "4", "methods": "exact,variational",
                  "outputs": "energy,alpha", "parallel": "1", "omega-c": "0.8", "tol": "1e-8",
                  "format": "csv"},
        "find-zero": {"g-min": "2.6", "g-max": "2.7", "threshold": "5e-6", "g-tol": "0.01",
                      "omega-c": "1", "tol": "1e-8", "format": "json"},
    }  # fmt: skip

    @pytest.mark.parametrize("command", EVERY_FLAG)
    def test_config_prints_what_the_same_flags_print(self, capsys, tmp_path, command):
        values = self.EVERY_FLAG[command]
        subparsers = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )  # fmt: skip
        takes = {
            option[2:] for action in subparsers.choices[command]._actions
            for option in action.option_strings if option.startswith("--")
        }  # fmt: skip
        assert set(values) == takes - {"help", "config", "output"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        code, out, _ = run_cli(capsys, [command, "--config", str(cfg)])
        flags = [token for key, value in values.items() for token in (f"--{key}", value)]
        assert (code, out) == exit_code(capsys, [command, *flags])
        assert code == 0 and out
        if command == "sweep":  # g-min = -1 is a value, so its row fails, not the parse
            assert "g must be non-negative" in csv_rows(out)[0]["error"]


def test_evaluate_direct():
    columns = sweep_columns(("exact", "variational"), ("energy",))
    row = evaluate(ModelParams(1.0, 1.0, 0.2), columns, 1e-10)
    assert row["error"] == ""
    assert row["energy_exact"] == pytest.approx(-1.01015, abs=2e-5)
    assert row["energy_variational"] == pytest.approx(-1.01013, abs=2e-5)


class TestEvaluate:
    POINTS = [(1.0, 0.0), (1.0, 0.4), (0.5, 2.0), (0.2, 0.48)]

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    @pytest.mark.parametrize("omega_c,g", POINTS)
    def test_projections_agree(self, capsys, omega_c, g):
        point = ["--omega-c", repr(omega_c), "--g", repr(g)]
        printed = {}
        for command in ("ground", "negativity", "variational", "transform"):
            code, out, _ = run_cli(capsys, [command] + point)
            assert code == 0
            printed[command] = csv_rows(out)[0]
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--omega-c", repr(omega_c), "--g-min", repr(g), "--g-max", repr(g),
             "--steps", "1", "--methods", ",".join(METHODS), "--outputs", ",".join(OUTPUTS)],
        )  # fmt: skip
        assert code == 0
        (printed["sweep"],) = csv_rows(out)
        assert printed["sweep"]["error"] == ""
        shared = 0
        for a in printed:
            for b in printed:
                for column in printed[a].keys() & printed[b].keys():
                    assert printed[a][column] == printed[b][column], (a, b, column)
                    shared += a < b
        assert shared >= 15
        # the same quantities under the single-point commands' own names
        assert printed["variational"]["energy"] == printed["sweep"]["energy_variational"]
        assert printed["transform"]["eps_minus"] == printed["sweep"]["energy_transform"]

    @staticmethod
    def _count_stages(monkeypatch):
        """Wrap the function behind each stage of evaluate with a call counter."""
        calls = {}
        for stage, owner, name in [
            ("exact", cli, "ground_state"),
            ("var", variational, "solve"),
            ("dressed", transform, "solve_chi"),
            ("delta_e", transform, "perturbation_correction"),
            ("rho", entangle, "reduced_density_from_joint"),
        ]:
            def counted(*args, _fn=getattr(owner, name), _stage=stage, **kwargs):
                calls[_stage] = calls.get(_stage, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_full_sweep_row_runs_each_stage_once(self, monkeypatch, capsys):
        calls = self._count_stages(monkeypatch)
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0.4", "--g-max", "0.4", "--steps", "1",
             "--methods", ",".join(METHODS), "--outputs", ",".join(OUTPUTS)],
        )  # fmt: skip
        assert code == 0 and csv_rows(out)[0]["error"] == ""
        assert calls == {"exact": 1, "var": 1, "dressed": 1, "delta_e": 1, "rho": 1}

    def test_approx_only_row_skips_the_exact_solver(self, monkeypatch, capsys):
        calls = self._count_stages(monkeypatch)
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0.4", "--g-max", "0.4", "--steps", "1",
             "--methods", "variational,transform,corrected",
             "--outputs", "energy,alpha,beta,negativity_approx"],
        )  # fmt: skip
        assert code == 0 and csv_rows(out)[0]["error"] == ""
        assert calls == {"var": 1, "dressed": 1, "delta_e": 1}

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_column_runs_exactly_the_stages_it_declares(self, monkeypatch, column):
        calls = self._count_stages(monkeypatch)
        evaluate(ModelParams(1.0, 1.0, 0.4), (column,), 1e-10)
        assert calls == dict.fromkeys(COLUMNS[column][0], 1)

    def test_failure_keeps_earlier_values(self, monkeypatch):
        def fail(params):
            raise RuntimeError("no well")

        monkeypatch.setattr(variational, "solve", fail)
        columns = ("g", "energy_exact", "energy_variational", "n_max_used", "error")
        row = evaluate(ModelParams(1.0, 1.0, 0.4), columns, 1e-10)
        assert list(row) == ["g", "energy_exact", "error"]
        assert row["error"] == "RuntimeError: no well"
        with pytest.raises(RuntimeError, match="no well"):
            evaluate(ModelParams(1.0, 1.0, 0.4), columns[:-1], 1e-10)

    def test_stat_residual_is_the_solvers_own(self):
        params = ModelParams(1.0, 0.5, 2.0)
        var = variational.solve(params)
        row = evaluate(params, ("stat_residual",), 1e-10)
        assert row["stat_residual"] == var.residual
        assert var.residual == variational.stationarity_residual(var.alpha, var.beta, params)


class TestConfigErrors:
    @pytest.mark.parametrize("line", ["steps = x", "outputs = bogus", "tol = -1"])
    def test_bad_config_value_exits_3(self, capsys, tmp_path, line):
        # the line is read as the flag --key=value, so argparse rejects it as it would the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg)])
        assert (code, out) == (3, "")
        assert "--" + line.split(" = ")[0] in err

    @pytest.mark.parametrize(
        "command,text,named",
        [("ground", "g = 0.4\nomegac = 2\n", "--omegac"),
         ("table1", "omega-c = 2\n", "--omega-c"),
         ("ground", "g = 0.4\nparallel = 2\n", "--parallel"),
         ("ground", "g = 0.4\nformat = xml\n", "--format"),
         ("ground", "g 0.4\n", "'g 0.4'"),
         ("ground", "g = 0.4\nconfig = other.cfg\n", "'config'")],
        ids=["unknown key", "key table1 lacks", "key ground lacks", "unknown format",
             "line without =", "config key"],
    )  # fmt: skip
    def test_bad_config_line_exits_3(self, capsys, tmp_path, command, text, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
        assert (code, out) == (3, "")
        assert named in err

    @pytest.mark.parametrize("kind", ["missing file", "directory"])
    def test_unreadable_config_path_exits_3(self, capsys, tmp_path, kind):
        # the path is user input like a flag value: a usage error that names it
        path = tmp_path / "absent.cfg" if kind == "missing file" else tmp_path
        code, out, err = run_cli(capsys, ["ground", "--g", "0.4", "--config", str(path)])
        assert (code, out) == (3, "")
        assert str(path) in err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--steps", "x"], ["sweep", "--tol", "abc"], ["sweep", "--g-min", "abc"]],
        ids=" ".join,
    )
    def test_unparsable_number_message_names_no_private_function(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert argv[1] in err
        assert re.search(r"\b_\w", err) is None, err

    def test_no_state_survives_between_calls(self, capsys, tmp_path):
        # the parser is built once; a config's value must not become a later default
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega-c = 2\n")
        code, out, _ = run_cli(capsys, ["variational", "--g", "0.4", "--config", str(cfg)])
        assert code == 0 and csv_rows(out)[0]["omega_c"] == "2"
        code, out, _ = run_cli(capsys, ["variational", "--g", "0.4"])
        assert code == 0 and csv_rows(out)[0]["omega_c"] == "1"

    def test_config_without_a_path_exits_3(self, capsys):
        code, out, err = run_cli(capsys, ["ground", "--config"])
        assert (code, out) == (3, "")
        assert "--config" in err

    def test_config_defaults_yield_to_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "g-min = 2.0\ng-max = 3.0\nsteps = 3\nmethods = exact\noutputs = energy,alpha\n"
        )
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--g-max", "2.5"])
        assert code == 0
        rows = csv_rows(out)
        assert [row["g"] for row in rows] == ["2", "2.25", "2.5"]
        assert "alpha" in rows[0]
