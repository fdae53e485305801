import hashlib

import pytest

from ergocert.cli import main
from ergocert.generate import PRESETS
from ergocert.seqfile import read_sequence_file, write_sequence_file
from ergocert.stochastic import ROW_SUM_TOL, StochasticMatrix, identity_matrix

LAZY = StochasticMatrix([[0.9, 0.1], [0.1, 0.9]])
SWAP = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])


def report_lines(capsys):
    out = capsys.readouterr().out
    return dict(line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line)


@pytest.fixture
def lazy_file(tmp_path):
    path = tmp_path / "lazy.seq"
    write_sequence_file(path, [LAZY] * 40)
    return str(path)


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.seq"
    write_sequence_file(path, [SWAP] * 6)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.seq"
    write_sequence_file(path, [identity_matrix(2)] * 5)
    return str(path)


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
        # a UnicodeDecodeError escaped with a traceback and exit 1
        path = tmp_path / "binary.seq"
        path.write_bytes(b"n=2\n1 0\n0 1\xff\n")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


TRIDIAGONAL = StochasticMatrix([[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]])


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
], ids=["non-numeric", "ragged", "incomplete", "nan", "negative", "row-sum", "below-tolerance", "clamped"])
def test_validate_accepts_what_every_command_reads(tmp_path, capsys, row, code):
    path = tmp_path / "tri.seq"
    write_sequence_file(path, [TRIDIAGONAL] * 80)
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
        write_sequence_file(path, [LAZY, StochasticMatrix([[1.0, 0.0], [0.5, 0.5]]), LAZY])
        assert main(["analyze", str(path)]) == 1
        assert "complete-reducibility:k=2" in report_lines(capsys)["hypotheses.violations"]

    def test_all_starts(self, tmp_path, capsys):
        path = tmp_path / "mix.seq"
        write_sequence_file(path, [LAZY, identity_matrix(2)])
        assert main(["analyze", str(path), "--all-starts"]) == 1
        lines = report_lines(capsys)
        assert lines["hypotheses.eventual_positivity.start_1"] == "1"
        assert lines["hypotheses.eventual_positivity.start_2"] == "-"

    def test_negative_tol_pos_rejected(self, tmp_path, capsys):
        # below zero, zero entries would count as edges and every condition hold
        path = tmp_path / "periodic.seq"
        assert main(["generate", "periodic-counterexample", "--n", "6", "--length", "40", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--tol-pos", "-0.5"]) == 2
        captured = capsys.readouterr()
        assert "hypotheses.verdict" not in captured.out
        assert "tol_pos must be finite and nonnegative" in captured.err

    def test_report_is_stable(self, lazy_file, capsys):
        main(["analyze", lazy_file])
        first = capsys.readouterr().out
        main(["analyze", lazy_file])
        second = capsys.readouterr().out
        assert first == second


class TestCertify:
    def test_rank_one_certificate(self, tmp_path, capsys):
        path = tmp_path / "rank1.seq"
        write_sequence_file(path, [StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])] * 3)
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
        write_sequence_file(path, [StochasticMatrix([[1 - w, w, 0], [0, 1 - w, w], [w, 0, 1 - w]])] * 6)
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

    def test_alpha_override(self, lazy_file, capsys):
        assert main(["certify", lazy_file, "--alpha-override", "0.05"]) == 0
        assert report_lines(capsys)["certificate.alpha"] == "0.05"

    @pytest.mark.parametrize("alpha", ["1.5", "nan", "inf", "0.2"])
    def test_alpha_override_must_bound_the_entries(self, tmp_path, capsys, alpha):
        # 1.5 overflowed the floor 1.5 ** (n * (W + 1)); nan never saturated;
        # 0.2 is above the smallest entry 0.005
        path = tmp_path / "pd.seq"
        args = ["--n", "50", "--length", "5", "--alpha", "0.005", "--out", str(path)]
        assert main(["generate", "positive-diagonal", *args]) == 0
        capsys.readouterr()
        assert main(["certify", str(path), "--alpha-override", alpha]) == 2
        captured = capsys.readouterr()
        assert "certificate.status" not in captured.out
        assert "alpha must be positive and at most the minimum positive entry" in captured.err


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

    def test_csv_emission(self, lazy_file, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        assert main(["simulate", lazy_file, "--epsilon", "1e-3", "--emit-csv", str(csv_path)]) == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "k,seminorm"
        assert rows[1] == "0,1.0"
        assert len(rows) == 33  # header + k = 0..31
        assert float(rows[-1].split(",")[1]) == pytest.approx(0.8**31)

    def test_csv_to_a_directory_fails_before_the_report(self, lazy_file, tmp_path, capsys):
        # the CSV was written after the report, which then ended in
        # exit_status = 0 while the command exited 2
        assert main(["simulate", lazy_file, "--epsilon", "1e-3", "--emit-csv", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "exit_status" not in captured.out
        assert captured.err.startswith("error:")

    def test_empty_csv_path_fails_before_the_report(self, lazy_file, capsys):
        # an empty path was read as "no CSV": full report, exit 3, nothing written
        assert main(["simulate", lazy_file, "--emit-csv", ""]) == 2
        captured = capsys.readouterr()
        assert "exit_status" not in captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

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
        assert main(["generate", "cycle-core", "--n", "1", "--out", str(out)]) == 2
        assert main(["generate", "cycle-core", "--alpha", "0.9", "--out", str(out)]) == 2

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


# SHA-256 of each report's stdout without its input.path line, on the four
# presets at n=6, length 40, alpha 0.05, seed 5, and of the generated files;
# a refactor that claims to leave reports and files unchanged must leave these unchanged
PINNED_REPORTS = {
    ("positive-diagonal", "analyze --all-starts"): "a30f172bb8cef55fc0340aed515207dc69997344d7f40b86af38a864d40ea580",
    ("positive-diagonal", "analyze --tol-pos 0.1"): "62cfacb0ab88d461dd76656d3699a606c44e1feb6a677bcae5dfef152e15fa2d",
    ("positive-diagonal", "certify"): "e1a1f6095930f2ce6c079bb0f7d1eb29306ca09814b6487fd4fa0e8210250f1c",
    ("cycle-core", "analyze --all-starts"): "5b30714b79d5bd0f8213661910496c7c9e26c6dab85200860d45a7ec1e18ba32",
    ("cycle-core", "analyze --tol-pos 0.1"): "41f875b835d19edd067eef100e7c4775b658902251a5499d380edbc1fd40c1dd",
    ("cycle-core", "certify"): "080e2c181417b57882c641fc906da1147809851e76d8bfbb6e4c0e67b8cc9f60",
    ("wolfowitz-set", "analyze --all-starts"): "5fb790599b460d9bc243081981f4498c3a5b23e28664752ea49d8eeb68843de3",
    ("wolfowitz-set", "analyze --tol-pos 0.1"): "c4b8f6ef2943ea32adb7f5b71a2bec970d85a122d38a1998351550e79e42110b",
    ("wolfowitz-set", "certify"): "9b1ce895ed1b0da29a3ad2d02b4b111fef2a8c69f01ebb18a280e917126ba728",
    ("periodic-counterexample", "analyze --all-starts"): "36d2c954a2046c9e82813f8d7889b07064d4137f740327fb0e3b8683553bac07",
    ("periodic-counterexample", "analyze --tol-pos 0.1"): "a41c9656d0610e638bff3587f6dca8239ee87703808e736bcbc886226bde867a",
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
}
PINNED_FILES = {
    "positive-diagonal": "c0ca5410c0da885f765b1a53088a7c6622ae2fd99a7284995c96ea5006406b1a",
    "cycle-core": "7ff495c4867c127246f9ffb806325b2e1edb4e705883aa6adb731ac09fb4554b",
    "wolfowitz-set": "3a72b3e0def9810b3a23cd60d9294b6d6aa0e8f069c87a3fd72c62469ac92ec2",
    "periodic-counterexample": "6485931c80ca2869ee02874b51c8f511621dd58770e6f15619b9f0c6095a7d5d",
}


def test_reports_pinned(tmp_path, capsys):
    assert {preset for preset, _ in PINNED_REPORTS} == set(PINNED_FILES) == set(PRESETS)
    mismatches = []
    for (preset, command), expected in PINNED_REPORTS.items():
        path = tmp_path / f"{preset}.seq"
        main(["generate", preset, "--n", "6", "--length", "40", "--alpha", "0.05", "--seed", "5", "--out", str(path)])
        capsys.readouterr()
        if hashlib.sha256(path.read_bytes()).hexdigest() != PINNED_FILES[preset]:
            mismatches.append(f"{preset}: generated file")
        name, *flags = command.split()
        main([name, str(path), *flags])
        report = "".join(
            line for line in capsys.readouterr().out.splitlines(keepends=True) if not line.startswith("input.path = ")
        )
        if hashlib.sha256(report.encode()).hexdigest() != expected:
            mismatches.append(f"{preset}: {command}\n{report}")
    assert not mismatches, "\n".join(mismatches)
