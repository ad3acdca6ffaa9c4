import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from rabi2q import FockTruncation, ModelParams, entangle, exact, transform, variational
from rabi2q import cli
from rabi2q.cli import (
    COLUMNS,
    METHODS,
    OUTPUTS,
    REFERENCE_ENERGIES,
    Table,
    evaluate,
    locate_negativity_zero,
    main,
    render_rows,
    sweep_columns,
    tabulate,
)
from rabi2q.transform import PerturbationValidityWarning


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
    return list(csv.DictReader(io.StringIO(text)))


class TestGround:
    def test_zero_coupling(self, capsys):
        code, out, _ = run_cli(capsys, ["ground", "--g", "0"])
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["energy_exact"]) == pytest.approx(-1.0, abs=1e-9)
        assert float(row["energy_variational"]) == pytest.approx(-1.0, abs=1e-9)
        assert float(row["negativity_exact"]) < 1e-10
        assert float(row["negativity_approx"]) == 0.0

    def test_subnormal_coupling_raises_no_warning(self):
        # the coherent state's downward ratios sqrt(n + 1) / amplitude overflow
        # at an amplitude below about 2.3e-308, and are not taken there; the
        # suite's filter makes a RuntimeWarning an error, which would end the
        # row at its first exact column and fail the trial state
        table = tabulate(1.0, [1e-320], ("g", "energy_exact", "fidelity", "error"), 1e-10)
        assert table.ends == {} and table.cells[2] == [1.0]
        state = variational.trial_state(5e-321, -math.sqrt(2.0), FockTruncation(16))
        assert state.n_max == 16

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
        with pytest.warns(PerturbationValidityWarning):
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

    def test_parallel_flag_is_gone(self, capsys):
        # rows are computed serially in one process; no flag chooses otherwise
        assert exit_code(capsys, ["sweep", "--parallel", "2"]) == (3, "")

    def test_import_loads_no_process_pool(self):
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
        for row in evaluate(1.0, np.linspace(0.0, 1.0, 6), columns, 1e-10):
            assert row["error"] == ""
            for method in ("exact", "variational", "transform", "corrected"):
                assert math.isfinite(row[f"energy_{method}"])
            assert 0.0 <= row["fidelity"] <= 1.0
            assert row["negativity_exact"] >= 0.0
            assert row["negativity_approx"] >= 0.0

    def test_small_omega_c_sweep_has_no_error_row(self, capsys):
        with pytest.warns(PerturbationValidityWarning):  # chi >= 1 in deep coupling
            code, out, _ = run_cli(
                capsys,
                ["sweep", "--omega-c", "0.1", "--g-min", "0.2", "--g-max", "4", "--steps", "40",
                 "--methods", ",".join(METHODS), "--outputs", ",".join(OUTPUTS)],
            )  # fmt: skip
        rows = csv_rows(out)
        assert code == 0 and len(rows) == 40
        assert [row["g"] for row in rows if row["error"]] == []

    def test_tiny_omega_c_approximate_sweep_has_no_error_row(self, capsys):
        # eps_- and <H> differ by an ulp at |E| ~ 1e7; an absolute check rejected 9 rows
        with pytest.warns(PerturbationValidityWarning):  # chi >= 1
            code, out, _ = run_cli(
                capsys,
                ["sweep", "--omega-c", "1e-5", "--g-min", "1", "--g-max", "30", "--steps", "30",
                 "--methods", "variational,transform,corrected"],
            )  # fmt: skip
        rows = csv_rows(out)
        assert code == 0 and len(rows) == 30
        assert [row["g"] for row in rows if row["error"]] == []
        for row in rows:
            e_var, e_transform = float(row["energy_variational"]), float(row["energy_transform"])
            assert abs(e_transform - e_var) <= 1e-9 * abs(e_var)

    def test_approximate_sweep_warns_once(self, capsys):
        # chi >= 1 at 1512 of its rows; each row used to warn on its own
        argv = ["sweep", "--g-min", "0", "--g-max", "5", "--steps", "2001",
                "--methods", "variational,transform,corrected",
                "--outputs", "energy,alpha,beta,negativity_approx"]  # fmt: skip
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, argv)
        assert code == 0 and len(csv_rows(out)) == 2001
        assert [w.category for w in caught] == [PerturbationValidityWarning]
        assert str(caught[0].message).startswith(
            "1512 of 2001 points (g from 1.2225 to 5) have chi >= 1, up to chi=5.0000;"
        )

    def test_row_failure_is_recorded_not_fatal(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "-1", "--g-max", "0.5", "--steps", "2",
             "--methods", "exact", "--outputs", "energy"],
        )  # fmt: skip
        rows = csv_rows(out)
        assert code == 0 and len(rows) == 2
        assert "g must be non-negative" in rows[0]["error"]
        assert rows[1]["error"] == ""

    def test_huge_g_exact_row_is_not_converged(self, capsys):
        # inverse iteration's solves divide by a shift offset near 1e192 here: the
        # iterate's squares must not underflow in its norm (a RuntimeWarning,
        # which pytest raises, would be the row's error instead)
        code, out, err = run_cli(
            capsys,
            ["sweep", "--g-min", "1e200", "--g-max", "1e200", "--steps", "1",
             "--methods", "exact", "--outputs", "energy"],
        )  # fmt: skip
        rows = csv_rows(out)
        assert code == 0 and len(rows) == 1 and err == ""
        assert rows[0]["error"].startswith("RuntimeError: ground state not converged")
        assert "n_max=4096" in rows[0]["error"]

    def test_error_cell_with_commas_is_quoted(self, capsys):
        # the huge-g row's error holds commas: quoted, it is one cell, and the
        # row parses to exactly the header's cells
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "1e200", "--g-max", "1e200", "--steps", "1",
             "--methods", "exact", "--outputs", "energy"],
        )  # fmt: skip
        header, line = out.splitlines()
        error = (
            "RuntimeError: ground state not converged to 1e-10 by n_max=4096 "
            "(omega_a=1.0, omega_c=1.0, g=1e+200)"
        )
        assert line == f'1e+200,,,,"{error}"'
        (cells,) = list(csv.reader([line]))
        assert len(cells) == len(header.split(",")) and cells[-1] == error

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

    def test_tiny_alpha_keeps_its_digits(self, capsys):
        code, out, _ = run_cli(capsys, ["variational", "--omega-c", "1e-20", "--g", "1e-20"])
        assert code == 0
        (row,) = csv_rows(out)
        assert float(row["alpha"]) == pytest.approx(1e-20, rel=1e-9, abs=0.0)

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


class TestTransformCommand:
    def test_tiny_omega_c_point_succeeds(self, capsys):
        # eps_- and <H> differ by 1.5e-8 = one ulp at E = -9e7
        with pytest.warns(PerturbationValidityWarning):
            code, out, err = run_cli(capsys, ["transform", "--omega-c", "1e-5", "--g", "30"])
        assert (code, err) == (0, "")
        (row,) = csv_rows(out)
        assert float(row["eps_minus"]) == pytest.approx(-9e7, rel=1e-12)
        assert float(row["chi"]) == pytest.approx(3e6, rel=1e-12)


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

        def counted(omega_c, g, columns, tol):
            solved.extend(g)
            return evaluate(omega_c, g, columns, tol)

        monkeypatch.setattr(cli, "evaluate", counted)
        locate_negativity_zero(1.0, g_lo=1.5, g_hi=3.5, **self.SEARCH)
        # bisection of [1.5, 3.5] to 1e-3: the 2 ends and 11 midpoints
        assert len(solved) < 13
        assert len(set(solved)) == len(solved)

    @pytest.mark.parametrize("shift", [0.0, 0.0159916590017197, 0.087268682459301])
    def test_log_search_takes_at_most_8_evaluations(self, monkeypatch, shift):
        # log(negativity / threshold) is close to linear in g past the maximum
        solved = []

        def counted(omega_c, g, columns, tol):
            solved.extend(g)
            return evaluate(omega_c, g, columns, tol)

        monkeypatch.setattr(cli, "evaluate", counted)
        locate_negativity_zero(1.0, g_lo=1.5 + shift, g_hi=3.5 + shift, **self.SEARCH)
        assert len(solved) <= 8

    @pytest.mark.parametrize("omega_c", [0.5, 1.0, 1.2])
    def test_within_half_g_tol_of_the_crossing(self, omega_c):
        def above(g):
            (row,) = evaluate(omega_c, [g], ("negativity_exact",), self.SEARCH["tol"])
            return row["negativity_exact"] > self.SEARCH["threshold"]

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
         ["find-zero", "--threshold", "inf"],
         ["find-zero", "--g-tol", "inf"],
         ["find-zero", "--g-max", "inf"],
         ["find-zero", "--g-min=-inf"],
         ["ground", "--g", "0.4", "--omega-c", "-1"],
         ["ground", "--g", "-1"],
         ["ground", "--g", "nan"],
         ["variational", "--g", "0.5", "--omega-c", "inf"],
         ["find-zero", "--omega-c", "-1"],
         ["find-zero", "--g-min", "-1", "--g-max", "3"],
         ["sweep", "--omega-c", "0"],
         ["sweep", "--omega-c", "nan"]],
        ids=" ".join,
    )  # fmt: skip
    def test_bad_values_are_usage_errors_before_any_row(self, capsys, argv):
        assert exit_code(capsys, argv) == (3, "")

    NEGATIVE_END = ["--g-max", "0.1", "--steps", "2", "--methods", "variational"]

    @pytest.mark.parametrize("end", ["-1e-3", "-1e76", "-2E-1"])
    def test_negative_grid_end_in_exponent_form_is_a_value(self, capsys, end):
        # argparse alone reads only -N and -N.N as numbers, and -1e-3 as a flag
        spaced = run_cli(capsys, ["sweep", "--g-min", end, *self.NEGATIVE_END])
        assert spaced == run_cli(capsys, ["sweep", f"--g-min={end}", *self.NEGATIVE_END])
        code, out, _ = spaced
        assert code == 0 and float(csv_rows(out)[0]["g"]) == float(end)
        assert csv_rows(out)[0]["error"].startswith("ValueError: g must be non-negative")

    def test_negative_grid_end_in_exponent_form_from_a_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g-min = -1e-3\n")
        expected = run_cli(capsys, ["sweep", "--g-min=-1e-3", *self.NEGATIVE_END])
        assert run_cli(capsys, ["sweep", "--config", str(cfg), *self.NEGATIVE_END]) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize(
        "argv,requirement",
        [(["ground", "--g", "-1e-3"], "must be a finite number >= 0, got '-1e-3'"),
         (["ground", "--g", "0.4", "--omega-c", "-1e-3"],
          "must be a positive finite number, got '-1e-3'")],
        ids=["g", "omega-c"],
    )  # fmt: skip
    def test_negative_exponent_form_values_meet_their_checks(self, capsys, argv, requirement):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert requirement in err and "expected one argument" not in err

    def test_render_rows_csv_formatting(self):
        text = render_rows(Table(("g", "value"), [[0.1], [-1.0101523423]], {}, [0.1]), "csv")
        assert text == "g,value\n0.1,-1.010152342\n"

    def test_render_rows_quotes_as_the_csv_module_does(self):
        texts = ("", "plain", "a, b", 'say "no"', "two\nlines")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows([["g", "error"], *([1, text] for text in texts)])
        table = Table(("g", "error"), [[1.0] * len(texts), list(texts)], {}, [1.0] * len(texts))
        assert render_rows(table, "csv") == buffer.getvalue()

    def test_render_rows_leaves_the_columns_a_row_lacks_empty(self):
        cells = [[0.4, 0.0], [1.0, None], ["", ""]]  # row 1 is no parameter point
        ends = {1: (-1, ValueError("negative"))}
        text = render_rows(Table(("g", "value", "error"), cells, ends, [0.4, -1.0]), "csv")
        assert text == "g,value,error\n0.4,1,\n-1,,ValueError: negative\n"

    @staticmethod
    def _reference_csv(table):
        """``table`` through csv.writer, cell by cell: floats at %.10g, None
        empty, anything else as str; an ended row as its dict view holds it."""
        def text(value):
            if value is None:
                return ""
            return "%.10g" % value if isinstance(value, float) else str(value)

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table.columns)
        for row in range(len(table.g)):
            position, exc = table.ends.get(row, (len(table.columns), None))
            if position < 0:
                values = {"g": table.g[row]}
            else:
                values = {c: cells[row] for c, cells in zip(table.columns[:position], table.cells)}
            if exc is not None:
                values["error"] = f"{type(exc).__name__}: {exc}"
            writer.writerow([text(values.get(column)) for column in table.columns])
        return buffer.getvalue()

    def test_render_rows_writes_an_ended_row_at_every_position(self):
        columns = ("g", "omega_c", "energy_exact", "n_max_used", "value", "error")
        errors = [ValueError(""), RuntimeError("a, b"), ValueError('say "no"'), OverflowError("x")]
        # rows 0 and 8 live; rows 1 to 7 end at -1, then at each column in turn
        count = 9
        ends = {1 + k: (k - 1, errors[k % len(errors)]) for k in range(len(columns) + 1)}
        g = [0.1 * row for row in range(count)]
        cells = [
            g,
            [1] * count,  # an int omega_c, as the library may pass it
            [math.nan, None, -1.5, -math.inf, None, None, None, None, math.inf],
            [16, None, 20, 25, None, None, None, None, 4096],
            [-0.0, None, 2.0, 1e-300, 3.0, None, None, None, 1e300],
            [""] * count,
        ]
        table = Table(columns, cells, ends, g)
        text = render_rows(table, "csv")
        assert text == self._reference_csv(table)
        lines = text.splitlines()
        assert lines[1] == "0,1,nan,16,-0,"
        assert lines[-1] == "0.8,1,inf,4096,1e+300,"
        parsed = list(csv.reader(io.StringIO(text)))
        assert all(len(line) == len(columns) for line in parsed)
        messages = [f"{type(exc).__name__}: {exc}" for exc in errors]
        assert [line[-1] for line in parsed[1:]] == ["", *messages, *messages[:3], ""]
        assert parsed[2][0] == "0.1" and set(parsed[2][1:-1]) == {""}  # no parameter point: g alone

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    def test_render_rows_of_a_computed_table_matches_csv_module(self):
        # an int omega_c from the library, rows ending at three columns: a
        # negative g, the correction's overflow (6e76 at omega_c = 0.5) and a
        # variational failure (9e76), next to live rows
        columns = ("g", "omega_c", "energy_variational", "energy_corrected", "alpha",
                   "negativity_approx", "stat_residual", "error")  # fmt: skip
        for omega_c in (1, 0.5):
            table = tabulate(omega_c, np.linspace(-6e76, 1.2e77, 7), columns, None)
            assert render_rows(table, "csv") == self._reference_csv(table)
        assert {position for position, _ in table.ends.values()} == {-1, 2, 3}
        assert render_rows(table, "csv").splitlines()[3].startswith("0,0.5,-1,-1,0,0,")

    @pytest.mark.parametrize(
        "argv",
        [["--methods", "variational,transform,corrected", "--steps", "201",
          "--outputs", "energy,alpha,beta,negativity_approx"],
         ["--steps", "5", "--outputs", "energy,fidelity,negativity_exact,negativity_approx"],
         ["--g-min=-1", "--g-max", "1", "--steps", "5"]],
    )  # fmt: skip
    def test_csv_sweep_builds_no_dict_per_row(self, capsys, monkeypatch, argv):
        def refuse(table):
            raise AssertionError("a dict per row")

        expected = run_cli(capsys, ["sweep", *argv])
        monkeypatch.setattr(Table, "dicts", refuse)
        code, out, err = run_cli(capsys, ["sweep", *argv])
        assert code == 0 and (code, out, err) == expected
        assert len(out.splitlines()) == 1 + int(argv[argv.index("--steps") + 1])

    def test_json_has_no_nonfinite_tokens(self, capsys):
        # mu and lambda_plus are infinite at g = 40; RFC 8259 has no Infinity or NaN
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        argv = ["transform", "--g", "40", "--format"]
        with pytest.warns(PerturbationValidityWarning):
            code, out, _ = run_cli(capsys, [*argv, "json"])
        assert code == 0
        assert json.loads(out, parse_constant=reject)[0]["mu"] is None
        with pytest.warns(PerturbationValidityWarning):
            out = run_cli(capsys, [*argv, "csv"])[1]
        assert csv_rows(out)[0]["mu"] == "inf"

    # Every flag of each subcommand but --config and --output, at cheap values.
    EVERY_FLAG = {
        "ground": {"g": "0.4", "omega-c": "0.8", "tol": "1e-8", "format": "json"},
        "variational": {"g": "0.4", "omega-c": "0.8", "format": "json"},
        "transform": {"g": "0.4", "omega-c": "0.8", "format": "csv"},
        "negativity": {"g": "0.4", "omega-c": "0.8", "tol": "1e-8", "format": "csv"},
        "table1": {"ref-tol": "1e-4", "tol": "1e-8", "format": "json"},
        "sweep": {"g-min": "-1", "g-max": "0.5", "steps": "4", "methods": "exact,variational",
                  "outputs": "energy,alpha", "omega-c": "0.8", "tol": "1e-8", "format": "csv"},
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
    (row,) = evaluate(1.0, [0.2], columns, 1e-10)
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
        """Wrap the function behind each stage of evaluate with a call counter;
        those of the exact stage run once per chunk of rows."""
        calls = {}
        for stage, owner, name in [
            ("exact", exact, "_solve_chunk"),
            ("var", variational, "solve_grid"),
            ("delta_e", transform, "perturbation_correction_grid"),
            ("rho", entangle, "negativity_stacked"),
            ("fidelity", variational, "trial_fidelities"),
        ]:
            def counted(*args, _fn=getattr(owner, name), _stage=stage, **kwargs):
                calls[_stage] = calls.get(_stage, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_full_sweep_row_runs_each_stage_once(self, monkeypatch, capsys):
        # the variational solve and the correction once per grid, the exact stages
        # once per chunk, and these four rows are one chunk
        calls = self._count_stages(monkeypatch)
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0.1", "--g-max", "0.4", "--steps", "4",
             "--methods", ",".join(METHODS), "--outputs", ",".join(OUTPUTS)],
        )  # fmt: skip
        assert code == 0 and [row["error"] for row in csv_rows(out)] == [""] * 4
        assert calls == {"exact": 1, "var": 1, "delta_e": 1, "rho": 1, "fidelity": 1}

    def test_approx_only_row_skips_the_exact_solver(self, monkeypatch, capsys):
        calls = self._count_stages(monkeypatch)
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--g-min", "0.1", "--g-max", "0.4", "--steps", "4",
             "--methods", "variational,transform,corrected",
             "--outputs", "energy,alpha,beta,negativity_approx"],
        )  # fmt: skip
        assert code == 0 and [row["error"] for row in csv_rows(out)] == [""] * 4
        assert calls == {"var": 1, "delta_e": 1}

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_column_runs_exactly_the_stages_it_declares(self, monkeypatch, column):
        calls = self._count_stages(monkeypatch)
        evaluate(1.0, [0.4], (column,), 1e-10)
        assert calls == dict.fromkeys(COLUMNS[column][0], 1)

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    @pytest.mark.parametrize("omega_c,g,wells", [(1.0, 0.4, 1), (0.1, 0.4, 2)])
    def test_dressed_levels_run_once_per_well(self, monkeypatch, omega_c, g, wells):
        # inside the variational solve only, at every well of every row and at
        # alpha = 0 once per row; no later stage recomputes them
        calls = []

        def counted(*args, _fn=transform.dressed_levels):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(transform, "dressed_levels", counted)
        monkeypatch.setattr(variational, "dressed_levels", counted)
        rows = evaluate(omega_c, [g] * 3, tuple(COLUMNS), 1e-10)
        assert [row["error"] for row in rows] == [""] * 3
        assert len(calls) == 1
        chi = calls[0][0]
        assert chi.size == 3 * (wells + 1)
        assert all(row["chi"] in chi for row in rows)

    def test_failure_keeps_earlier_values(self, monkeypatch):
        def fail(params):
            raise RuntimeError("no well")

        monkeypatch.setattr(variational, "solve_grid", fail)
        columns = ("g", "energy_exact", "energy_variational", "n_max_used", "error")
        (row,) = evaluate(1.0, [0.4], columns, 1e-10)
        assert list(row) == ["g", "energy_exact", "error"]
        assert row["error"] == "RuntimeError: no well"
        with pytest.raises(RuntimeError, match="no well"):
            evaluate(1.0, [0.4], columns[:-1], 1e-10)
        monkeypatch.undo()

        # the exact stage fails at one row of a sweep: that row keeps its g and
        # its error, and every other row equals its own grid of one
        self._fail_exact_at(monkeypatch, (0.5, 0.7))
        columns = ("g", "energy_exact", "energy_variational", "alpha", "n_max_used", "error")
        grid = [0.4, 0.5, 0.6, 0.7]
        rows = evaluate(1.0, grid, columns, 1e-10)
        assert rows[1] == {"g": 0.5, "error": "RuntimeError: not converged at 0.5"}
        assert rows[3] == {"g": 0.7, "error": "RuntimeError: not converged at 0.7"}
        for g, row in zip(grid[::2], rows[::2]):
            assert list(row) == list(columns) and row["error"] == ""
            assert row == evaluate(1.0, [g], columns, 1e-10)[0]
        # without an error column the first failing row's error is raised
        with pytest.raises(RuntimeError, match="not converged at 0.5"):
            evaluate(1.0, grid, columns[:-1], 1e-10)

        # a column that fails at one row ends that row there
        def fidelities(alpha, beta, vectors, starts, n_max, _fn=variational.trial_fidelities):
            values, errors = _fn(alpha, beta, vectors, starts, n_max)
            return values, {**errors, 1: ValueError("no overlap")}  # at the second row

        monkeypatch.setattr(variational, "trial_fidelities", fidelities)
        rows = evaluate(1.0, [0.4, 0.6, 0.8], ("g", "fidelity", "alpha", "error"), 1e-10)
        assert rows[1] == {"g": 0.6, "error": "ValueError: no overlap"}
        assert [list(rows[i]) for i in (0, 2)] == [["g", "fidelity", "alpha", "error"]] * 2

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    def test_correction_overflow_fails_its_row_only(self):
        # at omega_c = 0.5, chi^4 passes the float range at g = 6e76 and 7e76 while
        # the dressed levels are finite; the other rows keep their correction,
        # each as its own grid of one computes it
        columns = ("g", "energy_variational", "energy_corrected", "delta_e", "error")
        grid = [0.0, 0.4, 6e76, 3.0, 7e76]
        rows = evaluate(0.5, grid, columns, None)
        overflow = "OverflowError: (34, 'Numerical result out of range')"
        for i in (2, 4):
            assert list(rows[i]) == ["g", "energy_variational", "error"]
            assert rows[i]["error"] == overflow
        for i in (0, 1, 3):
            assert rows[i]["error"] == "" and math.isfinite(rows[i]["energy_corrected"])
        for g, row in zip(grid, rows):
            assert row == evaluate(0.5, [g], columns, None)[0]

    def test_variational_overflow_fails_its_row_only(self):
        # the suite makes a RuntimeWarning an error: an overflow in the scan
        # (g / omega_c at 1e-300) or in the masked Brent (at omega_c = 1e20,
        # g = 1e154) once failed every row of the grid, g = 0 included
        columns = ("g", "energy_exact", "energy_variational", "error")
        rows = evaluate(1e20, [1e19, 1e20, 1e154], columns, 1e-10)
        assert rows[:2] == evaluate(1e20, [1e19, 1e20], columns, 1e-10)
        assert [row["error"] for row in rows[:2]] == ["", ""]
        assert rows[2]["error"].startswith("RuntimeError: ground state not converged")
        rows = evaluate(1e-300, [0.0, 5e29, 1e30], ("g", "energy_variational", "error"), None)
        assert rows[0] == {"g": 0.0, "energy_variational": -1.0, "error": ""}
        for row in rows[1:]:
            assert row["error"].startswith("RuntimeError: no well of finite energy")

    def test_an_overflowing_band_fails_its_row_alone(self):
        # g sqrt(n_max + 1) passes the float range at g = 1.7e308 and n_max = 4096,
        # and omega_c n_max at omega_c = 6e306 once n_max grows from 25 to 32: each
        # row ends before its band is written, with the same error whatever the
        # warning filter, and the other rows are what their grids of one are
        columns = ("g", "energy_exact", "error")
        overflow = "RuntimeError: Hamiltonian band overflows at n_max={}: omega_c * n_max or g * "
        for filter_ in ("error", "always"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(filter_, RuntimeWarning)
                rows = evaluate(1.0, [0.4, 1.7e308], columns, 1e-10)
                assert rows[0] == evaluate(1.0, [0.4], columns, 1e-10)[0]
                assert rows[0]["error"] == "" and list(rows[1]) == ["g", "error"]
                assert rows[1]["error"].startswith(overflow.format(4096))
                (row,) = evaluate(6e306, [6e306], columns, 1e-10)
                assert row["error"].startswith(overflow.format(32))
            assert caught == []
        with pytest.raises(RuntimeError, match="band overflows"):
            exact.ground_state(ModelParams(1.0, 1.0, 1.7e308))

    def test_warnings_as_errors_fail_the_rows_outside_only(self):
        # chi >= 1 from g ~ 1.22 at resonance: those rows fail at the correction
        columns = ("g", "energy_transform", "energy_corrected", "error")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = evaluate(1.0, [0.4, 1.0, 1.4, 1.6], columns, None)
        for row in rows[:2]:
            assert row["error"] == "" and math.isfinite(row["energy_corrected"])
        for row in rows[2:]:
            assert list(row) == ["g", "energy_transform", "error"]
            assert row["error"].startswith(
                "PerturbationValidityWarning: 2 of 4 points (g from 1.4 to 1.6) have chi >= 1"
            )

    def test_the_warning_counts_the_rows_the_solve_kept(self):
        # the solve fails at g = 1.5e77 (alpha would be 1.5e77), so only g = 1.4 is outside
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = evaluate(1.0, [0.4, 1.4, 1.5e77], ("g", "energy_corrected", "error"), None)
        assert [row["error"] for row in rows[:2]] == ["", ""]
        assert rows[2]["error"].startswith("RuntimeError: dressed-level/variational equivalence")
        assert [w.category for w in caught] == [PerturbationValidityWarning]
        assert str(caught[0].message).startswith("1 of 2 points (g from 1.4 to 1.4) have chi >= 1")

    def test_negative_g_fails_every_column_but_g(self):
        rows = evaluate(1.0, [-1.0, 0.4], ("g", "omega_c", "alpha", "error"), None)
        assert rows[0] == {"g": -1.0, "error": "ValueError: g must be non-negative, got -1.0"}
        assert rows[1]["error"] == "" and rows[1]["omega_c"] == 1.0

    def test_stat_residual_is_the_solvers_own(self):
        params = ModelParams(1.0, 0.5, 2.0)
        var = variational.solve(params)
        (row,) = evaluate(0.5, [2.0], ("stat_residual",), 1e-10)
        assert row["stat_residual"] == var.residual
        assert var.residual == variational.stationarity_residual(var.alpha, var.beta, params)

    @staticmethod
    def _fail_fidelity_at(monkeypatch, n_max):
        """Make the fidelity column fail at the rows whose exact state has ``n_max``."""
        def fidelities(alpha, beta, vectors, starts, n_maxes, _fn=variational.trial_fidelities):
            values, errors = _fn(alpha, beta, vectors, starts, n_maxes)
            failed = {i: ValueError("no overlap") for i, n in enumerate(n_maxes) if n == n_max}
            return values, {**errors, **failed}

        monkeypatch.setattr(variational, "trial_fidelities", fidelities)

    @staticmethod
    def _fail_exact_at(monkeypatch, couplings):
        """Make the exact stage fail the rows whose g is in ``couplings``."""
        def solve(omega_a, omega_c, g, n_max, _fn=exact._solve_chunk):
            result = _fn(omega_a, omega_c, g, n_max)
            for k, g_k in enumerate(g):
                if g_k in couplings:
                    result.errors[k] = RuntimeError(f"not converged at {g_k}")
            return result

        monkeypatch.setattr(exact, "_solve_chunk", solve)

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_prints_what_its_grids_of_one_print(self, monkeypatch, fmt):
        # every column, those of the exact stage last, so that each kind of
        # failure ends its row before it: a negative g, the correction's
        # overflow (6e76 at omega_c = 0.5), no finite well (1e200), and a
        # raise in the fidelity column (at g = 0.8, where n_max is 32)
        columns = tuple(sorted(COLUMNS, key=lambda column: "exact" in COLUMNS[column][0]))
        self._fail_fidelity_at(monkeypatch, 32)
        grid = [0.4, -1.0, 6e76, 0.8, 1e200, 1.2]
        table = tabulate(0.5, grid, columns, 1e-10)
        rows = table.dicts()
        assert [row["error"].split(":")[0] for row in rows] == [
            "", "ValueError", "OverflowError", "ValueError", "RuntimeError", ""
        ]
        assert rows[3]["error"] == "ValueError: no overlap"
        assert list(rows[0]) == list(columns)
        ones = [render_rows(tabulate(0.5, [g], columns, 1e-10), fmt) for g in grid]
        if fmt == "csv":
            header = ",".join(columns) + "\n"
            assert all(one.startswith(header) for one in ones)
            expected = header + "".join(one[len(header):] for one in ones)
        else:  # each "[\n  {...}\n]\n" without its brackets
            expected = "[\n" + ",\n".join(one[2:-3] for one in ones) + "\n]\n"
        assert render_rows(table, fmt) == expected

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    def test_the_lowest_failing_row_raises(self, monkeypatch):
        # a later column fails an earlier row than an earlier column does:
        # without an error column, the earlier row's failure is raised, as
        # when the rows were evaluated one at a time
        columns = ("g", "energy_variational", "energy_corrected")
        rows = evaluate(0.5, [0.4, 6e76, 1e200], (*columns, "error"), None)
        assert rows[1]["error"].startswith("OverflowError")  # at energy_corrected
        assert rows[2]["error"].startswith("RuntimeError: no well")  # at energy_variational
        with pytest.raises(OverflowError):
            evaluate(0.5, [0.4, 6e76, 1e200], columns, None)

        self._fail_exact_at(monkeypatch, (1.2,))
        self._fail_fidelity_at(monkeypatch, 24)  # at g = 0.8
        columns = ("g", "energy_exact", "fidelity")
        rows = evaluate(1.0, [0.4, 0.8, 1.2], (*columns, "error"), 1e-10)
        assert rows[1] == {"g": 0.8, "energy_exact": rows[1]["energy_exact"],
                           "error": "ValueError: no overlap"}  # fmt: skip
        assert rows[2] == {"g": 1.2, "error": "RuntimeError: not converged at 1.2"}
        with pytest.raises(ValueError, match="no overlap"):
            evaluate(1.0, [0.4, 0.8, 1.2], columns, 1e-10)

    def test_ended_rows_never_reach_the_exact_stage(self, monkeypatch):
        calls = self._count_stages(monkeypatch)
        solved = []

        def solve(omega_a, omega_c, g, n_max, _fn=exact._solve_chunk):
            solved.extend(g)
            return _fn(omega_a, omega_c, g, n_max)

        monkeypatch.setattr(exact, "_solve_chunk", solve)
        columns = ("g", "energy_variational", "energy_exact", "negativity_exact", "error")
        rows = evaluate(1.0, [0.4, 1e200, -1.0, 0.8], columns, 1e-10)
        assert [row["error"] for row in rows[::3]] == ["", ""]
        assert (calls, solved) == ({"var": 1, "exact": 1, "rho": 1}, [0.4, 0.8])  # one chunk
        # without an error column, every live row is still solved, and the
        # lowest failing row's failure is raised once the table is filled
        calls.clear()
        solved.clear()
        with pytest.raises(RuntimeError, match="no well"):
            evaluate(1.0, [0.4, 1e200, 0.8], columns[:-1], 1e-10)
        assert (calls, solved) == ({"var": 1, "exact": 1, "rho": 1}, [0.4, 0.8])
        # so are the chunks after the chunk where the exact stage fails a row:
        # at a cap of 24 levels each of these rows is a chunk of its own
        monkeypatch.setattr(exact, "N_MAX_CAP", 24)
        self._fail_exact_at(monkeypatch, (1.2, 0.8))  # around the recording solve
        solved.clear()
        with pytest.raises(RuntimeError, match="not converged at 1.2"):
            evaluate(1.0, [0.4, 1.2, 0.8], ("g", "energy_exact", "alpha"), 1e-10)
        assert solved == [0.4, 1.2, 0.8]
        monkeypatch.setattr(exact, "N_MAX_CAP", 4096)

        # nor does a grid stage run once no row is alive: the correction,
        # with chi >= 1 at g = 1.6, neither runs nor warns
        def unconverged(omega_a, omega_c, g, n_max):
            failed = dict.fromkeys(range(len(g)), RuntimeError("not converged"))
            return exact.GroundStateChunk(failed, {})

        monkeypatch.setattr(exact, "_solve_chunk", unconverged)
        calls.clear()
        columns = ("g", "energy_exact", "energy_corrected", "error")
        rows = evaluate(1.0, [0.4, 1.6], columns, 1e-10)
        assert [row["error"] for row in rows] == ["RuntimeError: not converged"] * 2
        assert calls == {}
        # the same before the first exact column: no finite well at g = 1e200
        # ends the row at energy_variational, and no later column is computed
        calls.clear()
        small_g = []
        monkeypatch.setattr(entangle, "negativity_small_g", small_g.append)
        columns = ("g", "energy_variational", "energy_corrected", "negativity_small_g", "error")
        (row,) = evaluate(1.0, [1e200], columns, None)
        assert list(row) == ["g", "error"] and row["error"].startswith("RuntimeError: no well")
        assert (calls, small_g) == ({"var": 1}, [])

    def test_each_rows_exact_state_is_dropped_after_its_row(self, monkeypatch):
        # the exact columns sit apart, with grid columns between them, yet a
        # chunk's ground states are gone before the next chunk solves its own;
        # at a cap of 24 levels each of these rows is a chunk of its own
        monkeypatch.setattr(exact, "N_MAX_CAP", 24)
        results = []

        def solve(omega_a, omega_c, g, n_max, _fn=exact._solve_chunk):
            assert [result() for result in results] == [None] * len(results)
            result = _fn(omega_a, omega_c, g, n_max)
            results.append(weakref.ref(result.vectors))
            return result

        monkeypatch.setattr(exact, "_solve_chunk", solve)
        columns = ("g", "energy_exact", "alpha", "delta_e", "fidelity", "negativity_exact",
                   "n_max_used", "error")  # fmt: skip
        rows = evaluate(1.0, [0.2, 0.4, 0.6, 0.8], columns, 1e-10)
        assert [row["error"] for row in rows] == [""] * 4 and len(results) == 4
        assert rows == [evaluate(1.0, [g], columns, 1e-10)[0] for g in (0.2, 0.4, 0.6, 0.8)]


# The errors a row of the whole-plane test may end with, by region: each text is
# what the row ends with today, whatever the warning filter.
_GAP = "RuntimeError: odd-sector gap"
_CAP = "RuntimeError: ground state not converged"
_STALL = "RuntimeError: ground state error estimate stalls"
_NO_WELL = "RuntimeError: no well of finite energy"
_UNEQUAL = "RuntimeError: dressed-level/variational equivalence violated: eps_-=-inf"
_RANGE = "OverflowError: (34, 'Numerical result out of range')"


def _pinned(omega_c: float, ratio: float) -> tuple[str, ...]:
    """The errors pinned for the row at omega_c and g / omega_c = ``ratio``."""
    if omega_c > 1e154:  # (omega_a + omega_c)^2 of negativity_small_g
        return (_RANGE,)
    if ratio > 1e100:  # the profile's alpha^2, or d^2 in dressed_levels, overflows
        return (_NO_WELL, _UNEQUAL)
    pinned = ()
    if omega_c < 1e-6 or (omega_c > 1e9 and ratio <= 1e-3):  # the gap is rounding
        pinned += (_GAP,)
    if ratio >= 100:  # the truncation reaches its cap
        pinned += (_CAP,)
    if omega_c > 1e40:  # the estimate meets its rounding floor
        pinned += (_STALL,)
    return pinned


class TestWholePlane:
    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    def test_every_row_meets_the_invariants_or_ends_with_its_pinned_error(self):
        # a log grid of the (omega_c, g) plane, every column, those of the exact
        # stage last, so that a variational failure shows; g / omega_c of 100 and
        # 1e3 climb to the cap at about 150 ms a row, so they are at two omega_c
        named = (column for column in COLUMNS if column != "error")
        columns = (*sorted(named, key=lambda column: "exact" in COLUMNS[column][0]), "error")
        ratios = (0.0, 1e-3, 0.1, 1.0, 3.0, 10.0)
        plane = {omega_c: [r * omega_c for r in ratios] for omega_c in
                 (1e-300, 1e-20, 1e-10, 1e-5, 1e-2, 1.0, 1e2, 1e5, 1e10, 1e20, 1e50, 1e100, 1e200)}  # fmt: skip
        for omega_c in (1.0, 1e5):
            plane[omega_c] += [100.0 * omega_c, 1e3 * omega_c]
        plane[1e-300].append(1e30)
        plane[1e20].append(1e154)
        plane[1.0] += [1e200, 1.7e308]

        def printed(value: float) -> float:  # half a unit in the 10th significant digit
            return 5e-10 * abs(value)

        ended = set()
        for omega_c, grid in plane.items():
            rows = evaluate(omega_c, grid, columns, 1e-10)
            for g, row in zip(grid, rows):
                assert row == evaluate(omega_c, [g], columns, 1e-10)[0], (omega_c, g)
                if row["error"]:
                    pinned = _pinned(omega_c, g / omega_c if g else 0.0)
                    assert row["error"].startswith(pinned), (omega_c, g, row["error"])
                    ended.update(text for text in pinned if row["error"].startswith(text))
                    continue
                e, e_var = row["energy_exact"], row["energy_variational"]
                lower = -1.0 - g * g / omega_c
                assert lower - printed(lower) <= e <= e_var + printed(e_var), (omega_c, g)
                for name in ("negativity_exact", "negativity_approx"):
                    assert 0.0 <= row[name] <= 0.5, (omega_c, g, name)
                assert row["fidelity"] <= 1.0 + printed(1.0), (omega_c, g)
        assert ended == {_GAP, _CAP, _STALL, _NO_WELL, _UNEQUAL, _RANGE}


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
         ("ground", "g = 0.4\nsteps = 2\n", "--steps"),
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
