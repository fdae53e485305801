import gc
import hashlib
import os
import re
import subprocess
import sys
from unittest import mock

import pytest

from ergocert.cli import main
from ergocert.convergence import contraction_certificate, run_to_tolerance
from ergocert.digraph import Digraph
from ergocert.errors import CertificationRefused
from ergocert.generate import PRESETS, generate_sequence
from ergocert.hypotheses import analyze
from ergocert.seqfile import read_sequence_file, write_sequence_file
from ergocert.stochastic import ROW_SUM_TOL, MatrixSequence, identity_matrix

from oracles import child_env

LAZY = [[0.9, 0.1], [0.1, 0.9]]
SWAP = [[0.0, 1.0], [1.0, 0.0]]


def report_lines(capsys):
    out = capsys.readouterr().out
    return dict(line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line)


@pytest.fixture
def lazy_file(tmp_path):
    path = tmp_path / "lazy.seq"
    write_sequence_file(path, MatrixSequence([LAZY] * 40))
    return str(path)


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.seq"
    write_sequence_file(path, MatrixSequence([SWAP] * 6))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.seq"
    write_sequence_file(path, MatrixSequence([identity_matrix(2)] * 5))
    return str(path)


VALIDATE_MODULES = {"cli", "errors", "seqfile", "stochastic"}
ANALYZE_MODULES = VALIDATE_MODULES | {"digraph", "hypotheses"}


@pytest.mark.parametrize("command, status, modules", [
    (["validate"], 0, VALIDATE_MODULES),
    (["analyze"], 0, ANALYZE_MODULES),
    (["analyze", "--all-starts"], 1, ANALYZE_MODULES),
    (["certify"], 0, ANALYZE_MODULES | {"convergence"}),
    (["simulate"], 3, VALIDATE_MODULES | {"convergence"}),
    (["generate", "cycle-core", "--out"], 0, {"cli", "digraph", "errors", "generate", "seqfile", "stochastic"}),
], ids=["validate", "analyze", "analyze --all-starts", "certify", "simulate", "generate"])
def test_a_command_loads_only_the_modules_it_calls(tmp_path, capsys, command, status, modules):
    # a fresh interpreter shows the ergocert modules a command loaded; the package root
    # and generate's preset list used to load all eight into every command
    path = tmp_path / "c.seq"
    assert main(["generate", "cycle-core", "--n", "4", "--length", "30", "--out", str(path)]) == 0
    capsys.readouterr()
    # main() as the console script calls it: the process's entry point, which freezes the heap
    script = (
        "import gc, sys\n"
        "from ergocert.cli import main\n"
        "code = main()\n"
        "print(code, gc.get_freeze_count() > 0, *sorted(m for m in sys.modules if m.startswith('ergocert.')))\n"
    )
    target = tmp_path / "g.seq" if command[0] == "generate" else path
    result = subprocess.run([sys.executable, "-c", script, *command, str(target)],
                            env=child_env(), capture_output=True, text=True, timeout=60)
    code, frozen, *loaded = result.stdout.splitlines()[-1].split()
    assert (code, frozen, result.stderr) == (str(status), "True", "")
    assert set(loaded) == {f"ergocert.{name}" for name in modules}


@pytest.mark.parametrize("command, status, last_pair", [
    (["validate"], 0, "validation = ok\n"),
    (["analyze", "--all-starts"], 1, "hypotheses.verdict = conditions-violated\n"),
    (["certify"], 0, "numerics.row_sum_drift = "),
    (["simulate"], 3, "numerics.row_sum_drift = "),
], ids=["validate", "analyze --all-starts", "certify", "simulate"])
def test_python_m_ergocert_runs_the_cli(tmp_path, capsys, command, status, last_pair):
    # python -m ergocert failed with "No module named ergocert.__main__"; it now prints
    # what main prints, with its exit code; main(argv) in process leaves the collector alone
    path = tmp_path / "c.seq"
    assert main(["generate", "cycle-core", "--n", "4", "--length", "30", "--out", str(path)]) == 0
    capsys.readouterr()
    frozen = gc.get_freeze_count()
    code = main([*command, str(path)])
    assert gc.get_freeze_count() == frozen
    expected = capsys.readouterr().out
    result = subprocess.run([sys.executable, "-m", "ergocert", *command, str(path)],
                            env=child_env(), capture_output=True, text=True, timeout=60)
    assert (result.stdout, result.returncode) == (expected, code) == (expected, status)
    *_, last, exit_line = expected.splitlines(keepends=True)
    assert last.startswith(last_pair) and exit_line == f"exit_status = {status}\n"


def _unwritable_stdout_run(path, stdout):
    result = subprocess.run([sys.executable, "-m", "ergocert", "validate", str(path)], stdout=stdout,
                            stderr=subprocess.PIPE, env=child_env(), text=True, timeout=60)
    return result.returncode, result.stderr.splitlines()


def test_a_report_to_a_closed_pipe_is_one_error_line(lazy_file):
    # a closed pipe was a BrokenPipeError traceback and exit code 1, read as a condition violation
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = _unwritable_stdout_run(lazy_file, write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (2, ["error: cannot write the report: [Errno 32] Broken pipe"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_report_to_a_full_device_is_one_error_line(lazy_file):
    with open("/dev/full", "w") as full:
        code, err = _unwritable_stdout_run(lazy_file, full)
    assert (code, err) == (2, ["error: cannot write the report: [Errno 28] No space left on device"])


class TestValidate:
    def test_well_formed(self, lazy_file, capsys):
        assert main(["validate", lazy_file]) == 0
        lines = report_lines(capsys)
        assert lines["input.n"] == "2"
        assert lines["input.length"] == "40"
        assert lines["input.alpha"] == "0.1"
        assert lines["validation"] == "ok"

    def test_bad_row_sum_names_record_and_row(self, tmp_path, capsys):
        path = tmp_path / "bad.seq"
        path.write_text("n=2\n1 0\n0 1\n\n0.5 0.6\n0.5 0.5\n")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "record 2" in err
        assert "row 1" in err

    def test_row_sum_printed_as_plain_float(self, tmp_path, capsys):
        path = tmp_path / "short.seq"
        path.write_text("n=2\n1 0\n0.3 0.4\n")
        assert main(["validate", str(path)]) == 2
        assert "row 2 sums to 0.7, not 1 within 1e-09" in capsys.readouterr().err

    def test_empty_body(self, tmp_path, capsys):
        path = tmp_path / "empty.seq"
        path.write_text("n=2\n")
        assert main(["validate", str(path)]) == 2
        assert "no matrices" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.seq")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_tolerance_flags(self, tmp_path):
        path = tmp_path / "neg.seq"
        path.write_text("n=2\n1.0 -1e-11\n0 1\n")
        assert main(["validate", str(path)]) == 2
        with pytest.raises(SystemExit) as usage_error:
            main(["validate", str(path), "--tol-neg", "1e-10"])
        assert usage_error.value.code == 2

    def test_undecodable_file_is_an_input_error(self, tmp_path, capsys):
        # a UnicodeDecodeError escaped with a traceback and exit 1. The file is read line by
        # line: the bad bytes follow a header, stand alone, or follow 900 kB of keyed records
        path = tmp_path / "binary.seq"
        for content in (b"n=2\n1 0\n0 1\xff\n", b"\xff\xfe\xfd\n", b"n=2\n" + b"1 0\n0 1\n\n" * 100_000 + b"0 1\xff\n"):
            path.write_bytes(content)
            assert main(["validate", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: 'utf-8' codec can't decode byte") and captured.err.count("\n") == 1

    def test_a_bad_header_is_reported_before_later_undecodable_bytes(self, tmp_path, capsys):
        # the parse stops at the header, so the bytes after it are never decoded; the text
        # layer decodes a chunk at a time, and 1 MB of comments puts them far past the first
        path = tmp_path / "header.seq"
        path.write_bytes(b"m=2\n" + b"# padding\n" * 100_000 + b"\xff\xfe\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: line 1: expected header 'n=<int>', got 'm=2'\n")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # a file saved as UTF-8 with a byte-order mark failed:
        # "line 1: expected header 'n=<int>', got '\ufeffn=2'"; one with CR or CRLF line
        # endings reports as its LF text does too
        plain, marked, cr, crlf = (tmp_path / f"{name}.seq" for name in ("plain", "marked", "cr", "crlf"))
        seqf = generate_sequence("cycle-core", 4, 30, 0.1, 0)
        write_sequence_file(plain, seqf.to_sequence(), seqf.metadata)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        cr.write_bytes(plain.read_bytes().replace(b"\n", b"\r"))
        crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
        for command in (["validate"], ["analyze"], ["analyze", "--all-starts"]):
            reports = []
            for path in (plain, marked, cr, crlf):
                code = main([*command, str(path)])
                reports.append((code, {k: v for k, v in report_lines(capsys).items() if k != "input.path"}))
            assert reports == reports[:1] * 4
            assert reports[0][1]["exit_status"] == str(reports[0][0])


TRIDIAGONAL = [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]]


# a replacement for the first row of the second record ("0.8 0.2 0.0"), or
# None to delete it, and the exit code every command gives on the result
@pytest.mark.parametrize("row,code", [
    ("0.8 x 0.0", 2),
    ("0.8 0.2", 2),
    (None, 2),
    ("0.8 nan 0.0", 2),
    ("0.8 0.2 -0.5", 2),
    ("0.8 0.2 0.25", 2),
    ("0.8 0.2 -1e-11", 2),
    ("0.8 0.2 -1e-13", 0),
    ("0.8 0.2 1e-400", 2),
    ("0.8 0.2 5e-324", 0),
], ids=["non-numeric", "ragged", "incomplete", "nan", "negative", "row-sum", "below-tolerance", "clamped",
        "underflow", "subnormal"])
def test_validate_accepts_what_every_command_reads(tmp_path, capsys, row, code):
    path = tmp_path / "tri.seq"
    write_sequence_file(path, MatrixSequence([TRIDIAGONAL] * 80))
    lines = path.read_text().splitlines()
    at = lines.index("0.8 0.2 0.0", lines.index("0.8 0.2 0.0") + 1)
    lines[at : at + 1] = [] if row is None else [row]
    path.write_text("\n".join(lines) + "\n")
    codes = {command: main([command, str(path)]) for command in ("validate", "analyze", "certify", "simulate")}
    capsys.readouterr()
    assert codes == dict.fromkeys(codes, code)


class TestAnalyze:
    def test_lazy_walk_holds(self, lazy_file, capsys):
        assert main(["analyze", lazy_file]) == 0
        lines = report_lines(capsys)
        assert lines["hypotheses.verdict"] == "all-conditions-hold"
        assert lines["hypotheses.core.present"] == "yes"
        assert lines["hypotheses.core.edges"] == "(1,1) (1,2) (2,1) (2,2)"
        assert lines["hypotheses.eventual_positivity.start_1"] == "1"

    def test_swaps_cite_missing_core(self, swap_file, capsys):
        assert main(["analyze", swap_file]) == 1
        lines = report_lines(capsys)
        assert lines["hypotheses.verdict"] == "conditions-violated"
        assert lines["hypotheses.violations"] == "aperiodic-core"
        assert lines["hypotheses.core.present"] == "no"
        assert lines["hypotheses.core.offending_nodes"] == "1 2"

    def test_triangular_factor_cited(self, tmp_path, capsys):
        path = tmp_path / "tri.seq"
        write_sequence_file(path, MatrixSequence([LAZY, [[1.0, 0.0], [0.5, 0.5]], LAZY]))
        assert main(["analyze", str(path)]) == 1
        assert "complete-reducibility:k=2" in report_lines(capsys)["hypotheses.violations"]

    def test_all_starts(self, tmp_path, capsys):
        path = tmp_path / "mix.seq"
        write_sequence_file(path, MatrixSequence([LAZY, identity_matrix(2)]))
        assert main(["analyze", str(path), "--all-starts"]) == 1
        lines = report_lines(capsys)
        assert lines["hypotheses.eventual_positivity.start_1"] == "1"
        assert lines["hypotheses.eventual_positivity.start_2"] == "-"

    def test_tol_pos_is_a_usage_error(self, lazy_file, capsys):
        # every command reads an edge as a positive entry: there is no threshold
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", lazy_file, "--tol-pos", "0.1"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_report_is_stable(self, lazy_file, capsys):
        main(["analyze", lazy_file])
        first = capsys.readouterr().out
        main(["analyze", lazy_file])
        second = capsys.readouterr().out
        assert first == second


class TestCertify:
    def test_rank_one_certificate(self, tmp_path, capsys):
        path = tmp_path / "rank1.seq"
        write_sequence_file(path, MatrixSequence([[[0.5, 0.5], [0.5, 0.5]]] * 3))
        assert main(["certify", str(path)]) == 0
        lines = report_lines(capsys)
        assert lines["certificate.status"] == "emitted"
        assert lines["certificate.contraction"] == "0.96875"
        assert lines["certificate.saturation_index"] == "1"
        assert lines["certificate.seminorm_at_saturation"] == "0.0"
        assert lines["certificate.vacuous"] == "no"

    def test_vacuous_reported_before_drift(self, tmp_path, capsys):
        for n, expected in [(8, "yes"), (2, "no")]:
            path = str(tmp_path / f"pd{n}.seq")
            main(["generate", "positive-diagonal", "--n", str(n), "--length", "30", "--alpha", "0.1",
                  "--seed", "3", "--out", path])
            capsys.readouterr()
            assert main(["certify", path]) == 0
            lines = report_lines(capsys)
            assert lines["certificate.vacuous"] == expected
            keys = list(lines)
            assert keys.index("certificate.vacuous") + 1 == keys.index("numerics.row_sum_drift")

    def test_underflowed_products_emit_a_vacuous_certificate(self, tmp_path, capsys):
        # (1 - w) I + w C for the 3-cycle C with w = 1e-200: P(2) is positive
        # in its pattern, while its C^2 entries underflow to 0.0
        w = 1e-200
        path = tmp_path / "lazy-cycle.seq"
        write_sequence_file(path, MatrixSequence([[[1 - w, w, 0], [0, 1 - w, w], [w, 0, 1 - w]]] * 6))
        assert main(["certify", str(path)]) == 0
        lines = report_lines(capsys)
        assert lines["certificate.status"] == "emitted"
        assert lines["certificate.saturation_index"] == "2"
        assert lines["certificate.vacuous"] == "yes"

    def test_swaps_refused(self, swap_file, capsys):
        assert main(["certify", swap_file]) == 1
        lines = report_lines(capsys)
        assert lines["certificate.status"] == "refused"
        assert "aperiodic-core" in lines["certificate.refusals"]

    def test_identity_exhausts_horizon(self, identity_file, capsys):
        assert main(["certify", identity_file]) == 3
        assert report_lines(capsys)["certificate.status"] == "horizon-exhausted"

    def test_report_is_printed_whole_or_not_at_all(self, lazy_file, capsys, monkeypatch):
        # the input and hypotheses lines were printed before the certificate was sought
        def fail(*args, **kwargs):
            raise RuntimeError("no certificate")

        monkeypatch.setattr("ergocert.convergence.contraction_certificate", fail)
        with pytest.raises(RuntimeError):
            main(["certify", lazy_file])
        assert capsys.readouterr().out == ""

    def test_alpha_override_is_a_usage_error(self, lazy_file, capsys):
        # the certificate always reads the realized alpha: a smaller value
        # could only lower the floor and push the contraction toward 1.0
        with pytest.raises(SystemExit) as exit_info:
            main(["certify", lazy_file, "--alpha-override", "0.05"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""


class TestSimulate:
    def test_lazy_walk_stops_at_31(self, lazy_file, capsys):
        assert main(["simulate", lazy_file, "--epsilon", "1e-3"]) == 0
        lines = report_lines(capsys)
        assert lines["trajectory.k_final"] == "31"
        assert lines["trajectory.reached"] == "yes"
        row = [float(v) for v in lines["consensus.row"].split()]
        assert row == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_nan_epsilon_rejected(self, lazy_file, capsys):
        # every comparison with NaN is False: the run was read as "not reached"
        assert main(["simulate", lazy_file, "--epsilon", "nan"]) == 2
        captured = capsys.readouterr()
        assert "trajectory.reached" not in captured.out
        assert "epsilon must be positive" in captured.err

    def test_constant_x0_exits_at_zero(self, lazy_file, capsys):
        assert main(["simulate", lazy_file, "--epsilon", "1e-3", "--x0", "2,2"]) == 0
        lines = report_lines(capsys)
        assert lines["trajectory.k_final"] == "0"
        assert lines["trajectory_x0.0"] == "0.0"
        assert lines["trajectory.criterion"] == "vector"

    def test_swaps_exhaust(self, swap_file, capsys):
        assert main(["simulate", swap_file, "--epsilon", "0.5"]) == 3
        lines = report_lines(capsys)
        assert lines["trajectory.reached"] == "no"
        assert lines["trajectory.6"] == "1.0"

    @pytest.mark.parametrize("x0", [["--x0=-5.5,1.5"], ["--x0", "-5.5 1.5"]], ids=["equals", "space"])
    def test_negative_first_x0_value(self, lazy_file, capsys, x0):
        # argparse reads "--x0 -5.5,1.5" as a missing value followed by an option
        assert main(["simulate", lazy_file, "--epsilon", "1e-2", *x0]) == 0
        assert report_lines(capsys)["trajectory.criterion"] == "vector"

    @pytest.mark.parametrize("x0", [None, "1,3"], ids=["matrix", "x0"])
    @pytest.mark.parametrize("fixture, code", [("lazy_file", 0), ("swap_file", 3)])
    def test_trajectory_lines_cover_every_step(self, request, capsys, fixture, code, x0):
        # one line per step k = 0..k_final, in order, for P(k) and for P(k).x0
        path = request.getfixturevalue(fixture)
        assert main(["simulate", path, "--epsilon", "1e-3", *([] if x0 is None else ["--x0", x0])]) == code
        out = capsys.readouterr().out.splitlines()
        k_final = int(dict(line.split(" = ", 1) for line in out)["trajectory.k_final"])
        run = run_to_tolerance(read_sequence_file(path).to_sequence(), 1e-3, None if x0 is None else [1.0, 3.0])
        series = {"trajectory": run.matrix_seminorms}
        if x0 is not None:
            series["trajectory_x0"] = run.vector_seminorms
        for key in ("trajectory", "trajectory_x0"):
            steps = [line for line in out if re.match(rf"{key}\.\d+ = ", line)]
            assert steps == [f"{key}.{k} = {value!r}" for k, value in enumerate(series.get(key, ()))]
            assert len(steps) == (k_final + 1 if key in series else 0)

    def test_emit_csv_is_refused(self, lazy_file, capsys):
        # the table repeated the trajectory lines, after the report or in a file
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", lazy_file, "--emit-csv", "-"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("x0, key", [("1e308,1e308", "consensus.value"), ("1e308,-1e308", "trajectory_x0.0")])
    def test_x0_at_the_float_extremes(self, identity_file, capsys, x0, key):
        # max + min and max - min overflowed: inf, with a RuntimeWarning on stderr
        main(["simulate", identity_file, "--x0", x0])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"\n{key} = 1e+308\n" in captured.out

    def test_x0_dimension_mismatch(self, lazy_file, capsys):
        assert main(["simulate", lazy_file, "--x0", "1,2,3"]) == 2

    @pytest.mark.parametrize("x0", ["nan,1", "inf,1"])
    def test_non_finite_x0_rejected(self, lazy_file, capsys, x0):
        # the NaN semi-norm never reached epsilon: exit 3, "horizon exhausted"
        assert main(["simulate", lazy_file, "--x0", x0]) == 2
        captured = capsys.readouterr()
        assert "trajectory.reached" not in captured.out
        assert "x0 entries must be finite" in captured.err

    @pytest.mark.parametrize("x0", ["1_0,2", "١,2"])
    def test_x0_uses_the_file_number_grammar(self, lazy_file, capsys, x0):
        # float() read '1_0' as 10 and the Arabic-Indic digit as 1; a
        # sequence file rejects both as non-numeric
        assert main(["simulate", lazy_file, "--x0", x0]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: could not parse x0 vector from {x0!r}\n"

    def test_empty_x0_is_an_input_error(self, lazy_file, capsys):
        # an empty --x0 fell back to the matrix criterion and exited 0
        assert main(["simulate", lazy_file, "--x0", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vector of length 0 does not match dimension 2\n"

    def test_undecodable_x0_file_is_an_input_error(self, lazy_file, tmp_path, capsys):
        vec = tmp_path / "x0.txt"
        vec.write_bytes(b"0.0 \xff1.0\n")
        assert main(["simulate", lazy_file, "--x0", f"@{vec}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_x0_from_file(self, lazy_file, tmp_path, capsys):
        vec = tmp_path / "x0.txt"
        vec.write_text("0.0 1.0\n")
        assert main(["simulate", lazy_file, "--epsilon", "1e-3", "--x0", f"@{vec}"]) == 0
        lines = report_lines(capsys)
        assert float(lines["trajectory_x0.0"]) == 0.5

    def test_x0_file_may_start_with_a_byte_order_mark(self, lazy_file, tmp_path, capsys):
        vec = tmp_path / "x0.txt"
        vec.write_bytes(b"\xef\xbb\xbf0.0 1.0\n")
        assert main(["simulate", lazy_file, "--epsilon", "1e-3", "--x0", f"@{vec}"]) == 0
        assert float(report_lines(capsys)["trajectory_x0.0"]) == 0.5

    def test_x0_file_takes_the_inline_separators(self, lazy_file, tmp_path, capsys):
        # commas became spaces only in the inline form: '@file' exited 2
        vec = tmp_path / "x0.txt"
        vec.write_text("0.0,1.0\n")
        assert main(["simulate", lazy_file, "--epsilon", "1e-3", "--x0", f"@{vec}"]) == 0
        assert float(report_lines(capsys)["trajectory_x0.0"]) == 0.5


class TestNumerics:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_row_sum_drift_within_tolerance(self, preset, tmp_path, capsys):
        # products are not renormalized; their row sums must stay within the
        # tolerance the input factors were validated against
        path = str(tmp_path / f"{preset}.seq")
        assert main(["generate", preset, "--n", "4", "--length", "200", "--alpha", "0.1",
                     "--seed", "5", "--out", path]) == 0
        capsys.readouterr()
        main(["simulate", path, "--epsilon", "1e-300"])
        lines = report_lines(capsys)
        assert int(lines["trajectory.k_final"]) > 0
        assert 0.0 <= float(lines["numerics.row_sum_drift"]) < ROW_SUM_TOL
        main(["certify", path])
        lines = report_lines(capsys)
        if lines["certificate.status"] == "emitted":
            assert 0.0 <= float(lines["numerics.row_sum_drift"]) < ROW_SUM_TOL
        else:
            assert "numerics.row_sum_drift" not in lines

    def test_drift_reported_before_exit_status(self, lazy_file, capsys):
        main(["simulate", lazy_file, "--epsilon", "1e-3"])
        keys = list(report_lines(capsys))
        assert keys[-2:] == ["numerics.row_sum_drift", "exit_status"]


class TestGenerate:
    def test_generate_then_validate(self, tmp_path, capsys):
        for preset in ("positive-diagonal", "cycle-core", "wolfowitz-set", "periodic-counterexample"):
            out = tmp_path / f"{preset}.seq"
            assert main(["generate", preset, "--n", "3", "--length", "20", "--alpha", "0.1",
                         "--seed", "1", "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["validate", str(out)]) == 0
            capsys.readouterr()

    def test_generated_metadata_round_trips(self, tmp_path, capsys):
        out = tmp_path / "w.seq"
        assert main(["generate", "wolfowitz-set", "--n", "3", "--length", "10",
                     "--alpha", "0.1", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        seqf = read_sequence_file(out)
        assert seqf.metadata["preset"] == "wolfowitz-set"
        assert seqf.metadata["checked-depth"] == "6"

    def test_seed_reproducibility_is_byte_exact(self, tmp_path, capsys):
        a, b = tmp_path / "a.seq", tmp_path / "b.seq"
        args = ["generate", "cycle-core", "--n", "4", "--length", "15", "--alpha", "0.1", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_parameters(self, tmp_path, capsys):
        out = tmp_path / "x.seq"
        for n in ("0", "1"):  # refused before the default alpha, min(0.1, 1/n), is derived
            assert main(["generate", "cycle-core", "--n", n, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", "error: n must be at least 2\n")
        assert main(["generate", "cycle-core", "--alpha", "0.9", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_preset_is_refused_with_the_list(self, tmp_path, capsys):
        # one check, in generate_sequence: the parser takes any name
        out = tmp_path / "x.seq"
        assert main(["generate", "bogus", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown preset 'bogus'; choose from {', '.join(PRESETS)}\n"
        assert len(PRESETS) == 4 and not out.exists()

    def test_default_alpha_is_at_most_one_over_n(self, tmp_path, capsys):
        # the default was 0.1 for every n, so above n = 10 generate refused it: alpha must lie in (0, 1/n]
        args = ["generate", "positive-diagonal", "--n", "40", "--length", "3", "--seed", "5", "--out"]
        assert main([*args, str(tmp_path / "default.seq")]) == 0
        assert main([*args, str(tmp_path / "given.seq"), "--alpha", "0.025"]) == 0
        capsys.readouterr()
        assert (tmp_path / "default.seq").read_bytes() == (tmp_path / "given.seq").read_bytes()

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        # numpy's ValueError escaped with a traceback and exit 1
        out = tmp_path / "x.seq"
        assert main(["generate", "cycle-core", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_out_ending_in_a_separator_is_refused(self, tmp_path, capsys, existing):
        # Path("sub/") is "sub": with no directory sub, a regular file sub was written and exit 0
        sub = tmp_path / "sub"
        if existing:
            sub.mkdir()
        assert main(["generate", "cycle-core", "--out", f"{sub}/"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{sub}/'\n"
        assert sub.is_dir() == existing
        assert [p.name for p in tmp_path.rglob("*")] == (["sub"] if existing else [])

    @pytest.mark.parametrize("out, reason", [
        ("nodir/x.seq", "[Errno 2] No such file or directory"),
        ("d", "[Errno 21] Is a directory"),
    ])
    def test_failed_write_names_the_given_path(self, tmp_path, monkeypatch, capsys, out, reason):
        # the message named the temporary file, 'nodir/x.seq.<16 hex>.tmp',
        # and so differed on every run
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        errors = []
        for _ in range(2):
            assert main(["generate", "cycle-core", "--out", out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == [f"error: {reason}: '{out}'\n"] * 2
        assert [p.name for p in tmp_path.rglob("*")] == ["d"]

    def test_out_dash_is_refused(self, tmp_path, monkeypatch, capsys):
        # '-' is not stdout here: a file named '-' was written and the command exited 0
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "cycle-core", "--n", "2", "--length", "1", "--out", "-"]) == 2
        assert capsys.readouterr() == ("", "error: --out must be a file path, not '-'\n")
        assert list(tmp_path.iterdir()) == []

    def test_analyze_verdicts_per_regime(self, tmp_path, capsys):
        for preset, n, length in [("positive-diagonal", 3, 12), ("cycle-core", 4, 30)]:
            good = tmp_path / f"{preset}.seq"
            main(["generate", preset, "--n", str(n), "--length", str(length), "--seed", "3",
                  "--out", str(good)])
            capsys.readouterr()
            assert main(["analyze", str(good)]) == 0
            capsys.readouterr()
        bad = tmp_path / "bad.seq"
        main(["generate", "periodic-counterexample", "--n", "4", "--length", "12", "--seed", "3",
              "--alpha", "0.25", "--out", str(bad)])
        capsys.readouterr()
        assert main(["analyze", str(bad)]) == 1
        assert "aperiodic-core" in report_lines(capsys)["hypotheses.violations"]


# SHA-256 of each report's stdout without its input.path or generated.path
# line, on the four presets at n=6, length 40, alpha 0.05, seed 5 and on five
# 2x2 identities (whose certify exhausts the horizon), and of the generated
# files; a refactor that claims to leave reports and files unchanged must
# leave these unchanged
PINNED_REPORTS = {
    ("positive-diagonal", "analyze --all-starts"): "a30f172bb8cef55fc0340aed515207dc69997344d7f40b86af38a864d40ea580",
    ("positive-diagonal", "certify"): "e1a1f6095930f2ce6c079bb0f7d1eb29306ca09814b6487fd4fa0e8210250f1c",
    ("cycle-core", "analyze --all-starts"): "5b30714b79d5bd0f8213661910496c7c9e26c6dab85200860d45a7ec1e18ba32",
    ("cycle-core", "certify"): "080e2c181417b57882c641fc906da1147809851e76d8bfbb6e4c0e67b8cc9f60",
    ("wolfowitz-set", "analyze --all-starts"): "5fb790599b460d9bc243081981f4498c3a5b23e28664752ea49d8eeb68843de3",
    ("wolfowitz-set", "certify"): "9b1ce895ed1b0da29a3ad2d02b4b111fef2a8c69f01ebb18a280e917126ba728",
    ("periodic-counterexample", "analyze --all-starts"): "36d2c954a2046c9e82813f8d7889b07064d4137f740327fb0e3b8683553bac07",
    ("periodic-counterexample", "certify"): "37cfe98b29f3601aa42b41e259dc4ad7a969f0f2e4f56b475765a06e9feead13",
    ("positive-diagonal", "validate"): "10c34f94c8cda90dadb24f23f2e9f9682b6d98b7bd482ea3c4245a897ef0b06a",
    ("positive-diagonal", "simulate"): "d71e278735bb6b89ca9e3434ed6505c39fe26d5750f6e7151e7ee50d85083c54",
    ("positive-diagonal", "simulate --x0 0,1,2,3,4,5"): "2e0a59c7d4e323154d2c2613d9c9de23e39d9a774570b6da72ebbfef0f2b6e1d",
    ("cycle-core", "validate"): "6c3aa66b65815d8db3e343de478d27ee1ed2ecdc7e7681c492a36f1a93ea3a26",
    ("cycle-core", "simulate"): "28c8b013b75a662c3b0c2e5382f7cf88dcf700948c1fa047ca0c954d74c9ccf4",
    ("cycle-core", "simulate --x0 0,1,2,3,4,5"): "69f846123579068966ec34e315b85a75c4fd962d853d98498f7088cfeb760f05",
    ("wolfowitz-set", "validate"): "f8e9e77648ca4f1b8a68bff539e6e3db78fc9aca26a07bed63705fcb16b0a8ce",
    ("wolfowitz-set", "simulate"): "041380e6620d02d238549f132d47f99849669cbac92c0c3c95d4d26f35572b9a",
    ("wolfowitz-set", "simulate --x0 0,1,2,3,4,5"): "2300ec0d302e6688010d79961f861f9eb8977688d51867423cb30e4aa9eda3c0",
    ("periodic-counterexample", "validate"): "6f2a8c335fbf0918d8a32d52318f6f2b14e45b4489611d46406292eeb7281db8",
    ("periodic-counterexample", "simulate"): "28cf7746c9ee8f4b80fee3f7ec76915d16fb42872e3824333aa33dc4de430dd7",
    ("periodic-counterexample", "simulate --x0 0,1,2,3,4,5"): "54cfdc1537dea280d12a3e816680f40e02eecb38be88c74aecd33ad9a6255778",
    ("positive-diagonal", "generate"): "1b1d47054e6f4cb851b2cafde90a7b0eb9890669680f40f5b4359c13ac41b469",
    ("positive-diagonal", "analyze"): "b762c7eede5877c23c44a174a4f76d80e4905c349f1796863a2dd26632d00a1f",
    ("cycle-core", "generate"): "165a87807a1014ef199390e5124bac0671932f3f822c42901e7cdb043aba8fd7",
    ("cycle-core", "analyze"): "4ac4387384fe6123f7ea8977e9a59f6e92b23d423ee93a8a47195bf616af3bfa",
    ("wolfowitz-set", "generate"): "8c3340eb5bbfa3f685ea24ef7d465eeed916a831544d85966514a39db8fef804",
    ("wolfowitz-set", "analyze"): "768f1470423ef7c78745b3d0cea6e0263550d7f04dea59320212b19a0449b54a",
    ("periodic-counterexample", "generate"): "88f8c13278136e439c60d804a939091bf8030f72914d3e3c643b0e500a681b52",
    ("periodic-counterexample", "analyze"): "a41c9656d0610e638bff3587f6dca8239ee87703808e736bcbc886226bde867a",
    ("identity", "certify"): "16db737ecd5ac9ddd1cd456b84a8c89967a9f37def764f76de1f11827e60a9a3",
}
PINNED_FILES = {
    "positive-diagonal": "c0ca5410c0da885f765b1a53088a7c6622ae2fd99a7284995c96ea5006406b1a",
    "cycle-core": "7ff495c4867c127246f9ffb806325b2e1edb4e705883aa6adb731ac09fb4554b",
    "wolfowitz-set": "3a72b3e0def9810b3a23cd60d9294b6d6aa0e8f069c87a3fd72c62469ac92ec2",
    "periodic-counterexample": "6485931c80ca2869ee02874b51c8f511621dd58770e6f15619b9f0c6095a7d5d",
}

# SHA-256 of generated files whose rows have many cells, where the order in which
# each row's weights are summed decides the last bits of its entries
PINNED_LARGE_FILES = {
    "positive-diagonal --n 40 --length 3 --alpha 0.02 --seed 5":
        "f4a87391c5d16b793fc19cb600f374fe2c9aedb666deccd6258cd3fdbcabf395",
    "cycle-core --n 40 --length 3 --alpha 0.02 --seed 5":
        "d24db706ed5a25678633a3afcaa6598bb9438e4cd59b4d572bce217e7a1ed8f4",
    "wolfowitz-set --n 16 --length 5 --alpha 0.05 --seed 5":
        "ee65612d5fca1ef337dcc78753b5a9abb24df046ebd2b5b6137293cdf643cb90",
}


@pytest.mark.parametrize("arguments", PINNED_LARGE_FILES)
def test_large_generated_files_pinned(tmp_path, capsys, arguments):
    path = tmp_path / "large.seq"
    assert main(["generate", *arguments.split(), "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_LARGE_FILES[arguments]


def test_reports_pinned(tmp_path, capsys):
    assert {source for source, _ in PINNED_REPORTS} == {*PINNED_FILES, "identity"}
    assert set(PINNED_FILES) == set(PRESETS)
    write_sequence_file(tmp_path / "identity.seq", MatrixSequence([identity_matrix(2)] * 5))
    outputs, mismatches = {}, []
    for preset in PRESETS:
        path = tmp_path / f"{preset}.seq"
        main(["generate", preset, "--n", "6", "--length", "40", "--alpha", "0.05", "--seed", "5", "--out", str(path)])
        outputs[preset, "generate"] = capsys.readouterr().out
        if hashlib.sha256(path.read_bytes()).hexdigest() != PINNED_FILES[preset]:
            mismatches.append(f"{preset}: generated file")
    for (source, command), expected in PINNED_REPORTS.items():
        if (source, command) not in outputs:
            name, *flags = command.split()
            main([name, str(tmp_path / f"{source}.seq"), *flags])
            outputs[source, command] = capsys.readouterr().out
        report = "".join(
            line for line in outputs[source, command].splitlines(keepends=True)
            if not line.startswith(("input.path = ", "generated.path = "))
        )
        if hashlib.sha256(report.encode()).hexdigest() != expected:
            mismatches.append(f"{source}: {command}\n{report}")
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("preset", PRESETS)
def test_reports_are_key_value_lines_ending_in_exit_status(tmp_path, capsys, preset):
    path = str(tmp_path / f"{preset}.seq")
    commands = [
        ["generate", preset, "--n", "6", "--length", "40", "--alpha", "0.05", "--seed", "5", "--out", path],
        ["validate", path], ["analyze", path], ["analyze", path, "--all-starts"], ["certify", path],
        ["simulate", path], ["simulate", path, "--x0", "0,1,2,3,4,5"],
    ]
    for command in commands:
        code = main(command)
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not re.fullmatch(r"\S+ = .*", line)] == []
        assert lines[-1] == f"exit_status = {code}"


def test_no_library_path_builds_a_digraph(tmp_path, capsys):
    # patterns stay boolean arrays from generation to every report; a Digraph is built
    # only by the benchmark's traced run
    outcomes = set()
    with mock.patch.object(Digraph, "__init__", side_effect=AssertionError("Digraph built")):
        for preset in PRESETS:
            path = str(tmp_path / f"{preset}.seq")
            seqf = generate_sequence(preset, 6, 40, 0.05, 5)
            write_sequence_file(path, seqf.to_sequence(), seqf.metadata)
            seq = read_sequence_file(path).to_sequence()
            report = analyze(seq, all_starts=True)
            outcomes.add(report.core is not None)
            try:
                contraction_certificate(seq)
            except CertificationRefused:
                outcomes.add("refused")
            commands = [
                ["generate", preset, "--n", "6", "--length", "40", "--alpha", "0.05", "--seed", "5", "--out", path],
                ["validate", path], ["analyze", path], ["analyze", path, "--all-starts"], ["certify", path],
                ["simulate", path],
            ]
            for command in commands:
                code = main(command)
                assert capsys.readouterr().out.endswith(f"exit_status = {code}\n")
    assert outcomes == {True, False, "refused"}
