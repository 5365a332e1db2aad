import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orlicz
from orlicz import InputError, YoungFunction, luxemburg_norm, limit_sweep
from orlicz.cli import _build_parser, build_preset, main, parse_schedule
from orlicz.limits import convergence_rows


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseSchedule:
    def test_log(self):
        assert parse_schedule("100:100000:4:log") == pytest.approx(
            (100.0, 1000.0, 10000.0, 100000.0)
        )

    def test_lin(self):
        assert parse_schedule("1:3:3:lin") == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "1:2:3",
            "1:2:3:geo",
            "2:1:3:log",
            "0:10:3:log",
            "1:2:1:lin",
            "a:2:3:log",
            # start < stop, but three points in one ULP repeat a value
            "1:1.0000000000000002:3:lin",
            "1:1.0000000000000002:3:log",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            parse_schedule(bad)

    @pytest.mark.parametrize(
        "bad",
        ["1:inf:3:log", "nan:10:3:log", "nan:1:3:lin", "0:nan:3:lin", "-inf:1:3:lin"],
    )
    def test_rejects_non_finite_bounds(self, bad):
        # a RuntimeWarning from numpy would fail this test before the match
        with pytest.raises(InputError, match="must be finite"):
            parse_schedule(bad)

    def test_rejects_overflowing_span(self):
        with pytest.raises(InputError, match="overflows"):
            parse_schedule("-1e308:1e308:3:lin")


class TestPresets:
    def test_indicator(self):
        mu, f = build_preset("indicator:0.5")
        assert mu.total_mass == 0.5
        assert f.values.tolist() == [1.0]

    def test_geometric(self):
        mu, f = build_preset("geometric:0.5:4")
        assert f.values.tolist() == [1.0, 0.5, 0.25, 0.125]
        assert mu.weights.tolist() == [1.0] * 4

    def test_step(self):
        mu, f = build_preset("step:3")
        assert f.values.tolist() == [1.0, 2.0, 3.0]

    def test_ramp(self):
        mu, f = build_preset("ramp:1001")
        assert mu.total_mass == pytest.approx(1.0)
        assert float(mu.weights @ np.abs(f.values)) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize(
        "bad", ["indicator", "indicator:0", "geometric:0.5", "mystery:3", "ramp:1"]
    )
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            build_preset(bad)

    @pytest.mark.parametrize("bad", ["geometric:1e300:3", "geometric:inf:2", "geometric:2:1100"])
    def test_rejects_overflowing_geometric(self, bad):
        with pytest.raises(InputError, match="overflows"):
            build_preset(bad)

    def test_geometric_underflow_and_single_value(self):
        assert build_preset("geometric:1e-300:3")[1].values.tolist() == [1.0, 1e-300, 0.0]
        assert build_preset("geometric:inf:1")[1].values.tolist() == [1.0]


class TestCommands:
    def test_norm_unit_indicator(self, capsys):
        assert run_cli("norm", "--preset", "indicator:1", "--p", "1", "--q", "5") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("value,")
        assert float(out[1].split(",")[0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1e-308, 5.6e-309])
    def test_norm_indicator_inverse_past_exp_709(self, capsys, m):
        # the bracket's inverses 1/m lie past exp(709) ~ 8.2e307, below the largest double
        assert run_cli("norm", "--preset", f"indicator:{m!r}", "--p", "1", "--q", "0") == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[0]) == pytest.approx(
            m, rel=1e-10
        )

    def test_sweep_reproduces_library_numbers(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--preset", "indicator:0.5", "--p", "1",
            "--q-grid", "100:100000:4:log", "--output", str(out),
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4

        mu, f = build_preset("indicator:0.5")
        report = limit_sweep(f, mu, 1.0, parse_schedule("100:100000:4:log"))
        for row, lib in zip(rows, convergence_rows(report, "q")):
            assert row["norm"] == format(lib["norm"], ".17g")
            assert row["gap"] == format(lib["gap"], ".17g")
            assert row["pass"] == "1"

    def test_classical(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run_cli(
            "classical", "--preset", "step:3", "--p-grid", "1:1024:11:log",
            "--output", str(out),
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 11
        assert float(rows[-1]["gap"]) < float(rows[0]["gap"])

    def test_bounds(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run_cli("bounds", "--m", "0.5", "--p", "1", "--q-grid", "1:10000:5:log",
                       "--output", str(out))
        assert code == 0
        rows = read_csv(out)
        assert all(r["pass"] == "1" for r in rows)
        assert all(r["vacuous"] == "0" for r in rows)
        assert all(float(r["lambda"]) > float(r["lower_bound"]) for r in rows)

    def test_bounds_vacuous_has_empty_delta(self, tmp_path):
        out = tmp_path / "bv.csv"
        assert run_cli("bounds", "--m", "2", "--p", "1", "--q-grid", "1:100:3:log",
                       "--output", str(out)) == 0
        rows = read_csv(out)
        assert all(r["vacuous"] == "1" for r in rows)
        assert all(r["delta"] == "" for r in rows)

    def test_check_young_passes(self, capsys):
        assert run_cli("check-young", "--p", "1", "--q", "1") == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(r[1] == "1" for r in rows)

    def test_check_young_flags_linear_power(self, capsys):
        assert run_cli("check-young", "--p", "1", "--q", "0") == 0
        out = capsys.readouterr().out
        rows = {r.split(",")[0]: r.split(",")[1] for r in out.strip().splitlines()[1:]}
        assert rows["superlinear"] == "0"
        assert rows["midpoint_convex"] == "1"

    def test_compare_json(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("compare", "--p", "1", "--q", "1", "--format", "json",
                       "--output", str(out)) == 0
        rows = json.loads(out.read_text())
        by_dir = {r["direction"]: r for r in rows}
        assert by_dir["e0_in_e"]["c_estimate"] <= 1.0 + 1e-12
        assert by_dir["e_in_e0"]["c_estimate"] > 1.0
        assert all(r["certified"] for r in rows)

    @pytest.mark.parametrize("p, q", [("1", "1200"), ("1", "1e5"), ("2", "2400"), ("2", "1e5")])
    def test_compare_large_q(self, tmp_path, p, q):
        # roots below the normal range on the default grid no longer stop the run
        out = tmp_path / "c.json"
        assert run_cli("compare", "--p", p, "--q", q, "--format", "json",
                       "--output", str(out)) == 0
        rows = json.loads(out.read_text())
        by_dir = {r["direction"]: r for r in rows}
        assert by_dir["e0_in_e"]["c_estimate"] <= 1.0
        assert all(r["certified"] for r in rows)

    def test_csv_input_explicit_weights(self, tmp_path, capsys):
        data = tmp_path / "in.csv"
        data.write_text("x,weight,value\n0,2,1\n")
        assert run_cli("norm", "--input", str(data), "--p", "1", "--q", "1") == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
        mu, f = build_preset("indicator:2")
        expected = luxemburg_norm(YoungFunction.log_bump(1, 1), f, mu).value
        assert value == expected

    def test_csv_input_quadrature(self, tmp_path, capsys):
        data = tmp_path / "ramp.csv"
        xs = np.linspace(0.0, 1.0, 101)
        data.write_text("x,value\n" + "\n".join(f"{x:.17g},{x:.17g}" for x in xs) + "\n")
        assert run_cli("norm", "--input", str(data), "--p", "2", "--q", "0") == 0


class TestExitCodes:
    def test_bad_preset_is_validation_error(self, capsys):
        assert run_cli("norm", "--preset", "mystery:1", "--p", "1", "--q", "1") == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_schedule_is_validation_error(self):
        assert run_cli("sweep", "--preset", "indicator:1", "--p", "1",
                       "--q-grid", "10:1:4:log") == 1

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("indicator:-1", "indicator mass must be positive"),
            ("step:0", "step preset needs at least one level"),
            ("ramp:1", "ramp preset needs at least 2 samples"),
            ("geometric:-2:3", "geometric preset needs ratio > 0 and n >= 1"),
            ("geometric:1e300:3", "geometric preset overflows"),
            ("geometric:x:3", "malformed preset 'geometric:x:3'"),
        ],
    )
    def test_preset_message_reaches_stderr(self, capsys, spec, message):
        assert run_cli("norm", "--preset", spec, "--p", "1", "--q", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_extreme_q_is_numeric_error(self, capsys):
        # the closed-form ends' margin overflows exp at q = 1e18: one error
        # line and exit 2, not a traceback
        assert run_cli("norm", "--preset", "indicator:1", "--q", "1e18") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_shift_e_precision_wall_is_numeric_error(self, capsys):
        # the root of the closed-form end lies where E + t rounds to E: the
        # bounded root loop gives up with one error line and exit 2
        assert run_cli("norm", "--preset", "indicator:0.5", "--p", "1", "--q", "1e50",
                       "--shift", "e") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: inverse did not converge")

    def test_non_finite_schedule_reaches_stderr(self, capsys):
        assert run_cli("sweep", "--preset", "indicator:1", "--p", "1",
                       "--q-grid", "1:inf:3:log") == 1
        assert "schedule start and stop must be finite" in capsys.readouterr().err

    def test_bad_csv_is_validation_error(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n")
        assert run_cli("norm", "--input", str(data), "--p", "1", "--q", "1") == 1

    def test_overflowing_total_weight_reaches_stderr(self, tmp_path, capsys):
        data = tmp_path / "heavy.csv"
        data.write_text("x,weight,value\n0,1e308,1\n1,1e308,2\n")
        assert run_cli("norm", "--input", str(data), "--p", "1", "--q", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "total weight overflows" in captured.err

    def test_overflowing_x_span_reaches_stderr(self, tmp_path, capsys):
        # x from -1e308 to 1e308: the spacing overflows, and no numpy warning
        # may precede the error line
        data = tmp_path / "wide.csv"
        data.write_text("x,value\n-1e308,1\n1e308,2\n")
        assert run_cli("norm", "--input", str(data), "--p", "1", "--q", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: xs must span a finite interval\n"

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e300"])
    @pytest.mark.parametrize(
        "command", [["norm"], ["sweep", "--q-grid", "1:100:3:log"]], ids=["norm", "sweep"]
    )
    def test_bad_tol_is_validation_error(self, capsys, command, tol):
        args = command + ["--preset", "indicator:0.5", "--tol", tol]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tol must be positive" in captured.err

    def test_unwritable_output_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli("norm", "--preset", "indicator:1", "--output", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}")

    def test_missing_source_is_validation_error(self, capsys):
        assert run_cli("norm", "--p", "1", "--q", "1") == 1

    def test_tol_rejected_where_no_solver_runs(self, capsys):
        assert main(["compare", "--tol", "1e-3"]) == 1

    def test_solver_failure_is_numeric_error(self, capsys, monkeypatch):
        import orlicz.cli
        from orlicz import NumericError

        def explode(*args, **kwargs):
            raise NumericError("did not converge")

        monkeypatch.setattr(orlicz.cli, "luxemburg_norm", explode)
        code = run_cli("norm", "--preset", "indicator:1", "--p", "1", "--q", "1")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_norm_past_largest_double_is_numeric_error(self, tmp_path, capsys):
        data = tmp_path / "past.csv"
        data.write_text("x,weight,value\n0,2,1.7976931348623157e308\n1,1,1\n")
        assert run_cli("norm", "--input", str(data), "--p", "1", "--q", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: luxemburg_norm: the norm exceeds the double range")

    def test_bug_is_not_an_input_error(self, monkeypatch):
        # only the package's errors map to exit codes: a bare ValueError is a
        # bug, and surfaces with its traceback
        import orlicz.cli

        def bug(*args, **kwargs):
            raise ValueError("need at least one array to concatenate")

        monkeypatch.setattr(orlicz.cli, "luxemburg_norm", bug)
        with pytest.raises(ValueError, match="concatenate"):
            run_cli("norm", "--preset", "indicator:1", "--p", "1", "--q", "1")


# Each subcommand's full option set and defaults, given its required options.
# Written out by hand, not read from the parser, so a dropped or added
# option, or a moved default, fails here.
_DATA = {"preset": "indicator:1", "input_path": None}
_REPORT = {"output": None, "fmt": "csv"}
COMMAND_OPTIONS = [
    (["norm", "--preset", "indicator:1"],
     {**_DATA, **_REPORT, "tol": 1e-10, "p": 1.0, "q": 1.0, "shift": "e0"}),
    (["sweep", "--preset", "indicator:1", "--q-grid", "1:10:3:log"],
     {**_DATA, "q_grid": "1:10:3:log", **_REPORT, "tol": 1e-10, "p": 1.0}),
    (["classical", "--preset", "indicator:1", "--p-grid", "1:10:3:log"],
     {**_DATA, "p_grid": "1:10:3:log", **_REPORT}),
    (["bounds", "--q-grid", "1:10:3:log"],
     {"q_grid": "1:10:3:log", **_REPORT, "m": 1.0, "p": 1.0}),
    (["check-young"], {**_REPORT, "p": 1.0, "q": 1.0, "shift": "e0", "grid": None}),
    (["compare"], {**_REPORT, "p": 1.0, "q": 1.0, "grid": None}),
]
COMMAND_IDS = [argv[0] for argv, _ in COMMAND_OPTIONS]


class TestDeclarations:
    @pytest.mark.parametrize("argv, expected", COMMAND_OPTIONS, ids=COMMAND_IDS)
    def test_option_set_and_defaults(self, argv, expected):
        args = vars(_build_parser().parse_args(argv))
        assert args.pop("command") == argv[0]
        assert callable(args.pop("run"))
        assert args == expected

    def test_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one usage line at any terminal width
        assert main(["--help"]) == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == f"usage: orlicz [-h] {{{','.join(COMMAND_IDS)}}} ..."


def test_import_leaves_out_thread_pool():
    # concurrent.futures costs a fresh interpreter about 7 ms to import, once
    # per orlicz process; only a kernel on two threads or more imports it
    src = str(Path(orlicz.__file__).resolve().parents[1])
    code = "import sys, orlicz.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
