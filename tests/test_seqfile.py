import os
import stat
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ergocert import generate, seqfile, stochastic
from ergocert.errors import DimensionError
from ergocert.generate import PRESETS, generate_sequence
from ergocert.seqfile import (
    SequenceFileError,
    format_sequence,
    parse_sequence_text,
    read_sequence_file,
    write_sequence_file,
)
from ergocert.stochastic import NEGATIVITY_TOL, MatrixSequence, normalize_rows

from oracles import format_per_value, parse_per_token, reports, sequence_of_stack, stack_of

GOOD = """n=2
# preset=demo
0.5 0.5
0.25 0.75

1 0
0 1
"""


class TestParsing:
    def test_well_formed(self):
        seqf = parse_sequence_text(GOOD)
        assert seqf.n == 2
        assert seqf.length == 2
        assert seqf.metadata == {"preset": "demo"}
        assert np.allclose(stack_of(seqf.sequence)[0], [[0.5, 0.5], [0.25, 0.75]])

    def test_missing_header(self):
        # a data line before the header, and a text of only comments and blank lines
        for text, message in [("0.5 0.5\n0.5 0.5\n", "line 1: expected header 'n=<int>'"),
                              ("# preset: demo\n\n#\n", "missing header line 'n=<int>'")]:
            with pytest.raises(SequenceFileError, match=message):
                parse_sequence_text(text)

    def test_malformed_header(self):
        for text, message in [("n=two\n1 0\n0 1\n", "line 1: malformed header"),
                              ("n=0\n", "line 1: dimension must be at least 1")]:
            with pytest.raises(SequenceFileError, match=message):
                parse_sequence_text(text)

    def test_empty_body(self):
        with pytest.raises(SequenceFileError, match="no matrices"):
            parse_sequence_text("n=2\n# nothing\n")

    def test_incomplete_record(self):
        with pytest.raises(SequenceFileError, match="incomplete"):
            parse_sequence_text("n=2\n1 0\n0 1\n0.5 0.5\n")

    def test_wrong_row_width_names_record_and_row(self):
        with pytest.raises(SequenceFileError, match=r"record 1, row 2"):
            parse_sequence_text("n=2\n1 0\n0 1 0\n")

    def test_row_sum_error_names_record_and_row(self):
        text = "n=2\n1 0\n0 1\n\n0.5 0.6\n0.5 0.5\n"
        with pytest.raises(SequenceFileError, match=r"record 2: row 1"):
            parse_sequence_text(text)

    def test_non_numeric(self):
        with pytest.raises(SequenceFileError, match="non-numeric"):
            parse_sequence_text("n=2\n1 zero\n0 1\n")

    def test_each_distinct_line_is_converted_once(self):
        # a periodic sequence at odd n repeats one record; the numpy call used to convert all
        # n * L lines, and now reads the lines of each distinct record once
        seqf = generate_sequence("periodic-counterexample", 7, 30, 0.1, 0)
        text = format_sequence(seqf.sequence, seqf.metadata)
        data_lines = [line for line in text.splitlines()[1:] if line and not line.startswith("#")]
        distinct = list(dict.fromkeys(data_lines))
        assert (len(data_lines), len(distinct)) == (7 * 30, 7)
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            parsed = parse_sequence_text(text)
        spy.assert_called_once()
        assert list(spy.call_args.args[0]) == distinct
        assert_same_parse(parsed, parse_per_token(text))
        assert len(parsed.sequence.factors) == 1
        assert np.array_equal(stack_of(parsed.sequence), stack_of(seqf.sequence))

    def test_rejected_text_converts_each_distinct_line_once(self):
        # the diagnosis converted all n * L lines again, 15 150 at n = 101, L = 150
        seqf = generate_sequence("periodic-counterexample", 7, 30, 0.1, 0)
        lines = format_sequence(seqf.sequence, seqf.metadata).splitlines()
        lines[-1] = lines[-1].replace("1.0", "1.5")  # one row sum broken in the last record
        text = "\n".join(lines) + "\n"
        distinct = dict.fromkeys(line for line in lines[1:] if line and not line.startswith("#"))
        assert len(distinct) == 8
        with mock.patch.object(seqfile, "parse_numbers", wraps=seqfile.parse_numbers) as spy:
            with pytest.raises(SequenceFileError, match="record 30: row 7 sums to"):
                parse_sequence_text(text)
        assert [call.args[0] for call in spy.call_args_list] == list(distinct)

    def test_tolerances_forwarded(self):
        with pytest.raises(SequenceFileError, match="record 1: entry \\(1,2\\) = -1e-11 is below"):
            parse_sequence_text("n=2\n1.0 -1e-11\n0 1\n")
        seqf = parse_sequence_text("n=2\n1.0 -1e-13\n0 1\n")
        assert seqf.sequence.factors[0, 0, 1] == 0.0


class TestRoundTrip:
    def test_format_then_parse_round_trips(self):
        rng = np.random.default_rng(60)
        seq = MatrixSequence([rng.dirichlet(np.ones(3), size=3) for _ in range(4)])
        text = format_sequence(seq, {"seed": "60"})
        back = parse_sequence_text(text)
        assert back.metadata["seed"] == "60"
        # written floats round-trip exactly; re-validation renormalizes
        # rows again, which can move entries by one ulp
        assert np.allclose(stack_of(seq), stack_of(back.sequence), rtol=0, atol=1e-15)

    def test_write_and_read_file(self, tmp_path):
        path = tmp_path / "seq.txt"
        write_sequence_file(path, MatrixSequence([np.eye(2), [[0.25, 0.75], [0.5, 0.5]]]), {"kind": "fixture"})
        seqf = read_sequence_file(path)
        assert seqf.length == 2
        assert seqf.metadata["kind"] == "fixture"
        assert np.array_equal(stack_of(seqf.sequence)[1], [[0.25, 0.75], [0.5, 0.5]])

    def test_decorative_comment_is_not_metadata(self, tmp_path):
        # "# ===== walk =====" was read as the key '' with value '==== walk =====',
        # which the writer then refused, so the file could not be written back
        text = "n=2\n# ===== walk =====\n# preset=cycle-core\n1 0\n0 1\n"
        seqf = parse_sequence_text(text)
        assert seqf.metadata == {"preset": "cycle-core"}
        path = tmp_path / "seq.txt"
        write_sequence_file(path, seqf.sequence, seqf.metadata)
        back = read_sequence_file(path)
        assert back.metadata == {"preset": "cycle-core"}
        assert np.array_equal(stack_of(back.sequence), stack_of(seqf.sequence))

    def test_write_replaces_existing_atomically(self, tmp_path):
        path = tmp_path / "seq.txt"
        write_sequence_file(path, MatrixSequence([np.eye(2)]))
        write_sequence_file(path, MatrixSequence([np.eye(3)]))
        assert read_sequence_file(path).n == 3
        assert list(tmp_path.iterdir()) == [path]

    def test_formatting_rejects_empty(self):
        # an empty list is no sequence, and no sequence is empty
        with pytest.raises(TypeError, match="the writer takes a MatrixSequence, got list"):
            format_sequence([])
        with pytest.raises(DimensionError, match=r"got shape \(0,\)"):
            MatrixSequence([])

    @pytest.mark.parametrize("metadata", [
        {"": "x"}, {"a=b": "c"}, {"a\nb": "c"}, {" a": "c"},
        {"note": "x\n0.5 0.5\n0.5 0.5"}, {"note": "x "}, {"seed": 3}, {3: "seed"},
    ])
    def test_writer_refuses_metadata_that_does_not_read_back(self, tmp_path, metadata):
        # each was written, then read back as other metadata or matrices;
        # a key or value that is not a str crashed the writer
        with pytest.raises(SequenceFileError, match="would not read back unchanged"):
            write_sequence_file(tmp_path / "seq.txt", MatrixSequence([np.eye(2)]), metadata)
        assert list(tmp_path.iterdir()) == []

    def test_new_file_mode_follows_umask(self, tmp_path):
        # the temporary file used to be created 0o600, and the rename kept it
        previous = os.umask(0o022)
        try:
            write_sequence_file(tmp_path / "seq.txt", MatrixSequence([np.eye(2)]))
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "seq.txt").stat().st_mode) == 0o644

    def test_writer_refuses_mixed_dimensions(self, tmp_path):
        # written under the first matrix's n=, the file could not be read back: the writer
        # refuses a list, and no sequence of mixed dimensions can be built
        with pytest.raises(TypeError, match="the writer takes a MatrixSequence, got list"):
            write_sequence_file(tmp_path / "seq.txt", [np.eye(2), np.eye(3)])
        with pytest.raises(DimensionError):
            MatrixSequence([np.eye(2), np.eye(3)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw", [
        np.zeros((0, 2, 2)), np.full((1, 2, 2), 0.3), np.ones((1, 2, 3)) / 3, np.eye(2), np.eye(2, dtype=np.int64)[None],
    ], ids=["no-records", "row-sum", "not-square", "2-d", "int"])
    def test_writer_refuses_raw_arrays_the_parser_rejects(self, tmp_path, raw):
        # a raw array went straight to the text: the first three were written and then
        # refused by the parser, and the 2-D one raised a TypeError. Only a MatrixSequence,
        # validated when it was built, is written now: any array is refused before a file is created
        with pytest.raises(TypeError, match="the writer takes a MatrixSequence, got ndarray"):
            write_sequence_file(tmp_path / "seq.txt", raw)
        assert list(tmp_path.iterdir()) == []

    def test_writer_keeps_the_text_of_signed_zero_rows(self):
        # a row formatted once per equal value would write -0.0 as 0.0: -0.0 == 0.0, but its text differs
        stack = np.array([[[0.0, 1.0], [-0.0, 1.0]], [[-0.0, 1.0], [0.0, 1.0]]])
        text = format_sequence(sequence_of_stack(stack))
        assert text == "n=2\n\n0.0 1.0\n-0.0 1.0\n\n-0.0 1.0\n0.0 1.0\n"

    def test_records_sharing_rows_round_trip(self):
        # at even n the two permutations of periodic-counterexample share every row, each
        # at another index: the writer and the parser key whole records, not rows
        seqf = generate_sequence("periodic-counterexample", 6, 9, 0.1, 0)
        text = format_sequence(seqf.sequence, seqf.metadata)
        back = parse_sequence_text(text)
        factors = seqf.sequence.factors
        assert len(factors) == len(back.sequence.factors) == 2
        assert {row.tobytes() for row in factors[0]} == {row.tobytes() for row in factors[1]}
        assert back.sequence.word.tolist() == seqf.sequence.word.tolist() == [0, 1] * 4 + [0]
        assert back.sequence.factors.tobytes() == factors.tobytes()
        assert format_sequence(back.sequence, back.metadata) == text

    def test_records_equal_in_value_but_written_differently(self):
        # '0.5' and '0.50' are two records to the parser, which keys lines by their text:
        # two factors, one word, and the reports of the file that writes one record twice
        written_twice = parse_sequence_text("n=2\n0.5 0.5\n1 0\n\n0.50 0.5\n1 0\n\n0.5 0.5\n1 0\n").sequence
        written_once = parse_sequence_text("n=2\n0.5 0.5\n1 0\n\n0.5 0.5\n1 0\n\n0.5 0.5\n1 0\n").sequence
        assert (len(written_twice.factors), len(written_once.factors)) == (2, 1)
        assert written_twice.word.tolist() == [0, 1, 0]
        assert reports(written_twice, np.array([1.0, -0.0])) == reports(written_once, np.array([1.0, -0.0]))

    def test_to_sequence(self):
        seqf = parse_sequence_text(GOOD)
        seq = seqf.to_sequence()
        assert len(seq) == 2
        assert seq.n == 2


# entries at float extremes: tiny, subnormal, signed zero, and negatives that
# are clamped to zero (the last one exactly at the negativity tolerance)
SPECIAL_ENTRIES = [0.0, -0.0, 1e-200, 5e-324, 1.5e-310, -1e-13, -NEGATIVITY_TOL]
FILLER_LINES = ["", "   ", "\t", "\f", "# a note", "# seed=1", "#seed=2", "# key = a=b", "#", "# ==== walk ====", "#=x"]
# only LF, CRLF and CR end a line; str.splitlines also broke lines at each of these
OTHER_WHITESPACE = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
NEWLINES = ["\n", "\r\n", "\r"]
TOKEN_FORMATS = ["{!r}", "{:.17e}", "{:.17E}", "{:.17g}"]


@st.composite
def sequence_lines(draw):
    """Lines of a valid sequence file and the indices of its data lines.

    Rows are drawn from a small pool, so values repeat. A repeat keeps the
    text of an earlier row, up to surrounding whitespace, or writes the
    values again in other token formats and gaps.
    """
    n = draw(st.integers(1, 5))
    length = draw(st.integers(1, 4))
    entry = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(0.0, 1.0 / n))
    gap = st.sampled_from([" ", "  ", "\t", " \t ", *OTHER_WHITESPACE])
    edge = st.sampled_from(["", " ", "\t"])

    def fillers():
        return draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))

    def row_values():
        values = draw(st.lists(entry, min_size=n, max_size=n))
        p = draw(st.integers(0, n - 1))
        # the row sum is 1 up to rounding, or off by less than ROW_SUM_TOL
        values[p] = 1.0 - sum(v for i, v in enumerate(values) if i != p) + draw(st.sampled_from([0.0, 4e-10, -4e-10]))
        return values

    def row_text(values):
        tokens = []
        for v in values:
            token = draw(st.sampled_from(TOKEN_FORMATS)).format(v)
            tokens.append(token if token.startswith("-") or not draw(st.booleans()) else "+" + token)
        return "".join(t + draw(gap) for t in tokens[:-1]) + tokens[-1]

    pool = [row_values() for _ in range(draw(st.integers(1, 4)))]
    texts: list[str] = []
    lines = fillers() + [f"n={n}"]
    data = []
    for _ in range(length * n):
        lines += fillers()
        if texts and draw(st.booleans()):
            text = draw(st.sampled_from(texts))
        else:
            text = row_text(draw(st.sampled_from(pool)))
            texts.append(text)
        data.append(len(lines))
        lines.append(draw(edge) + text + draw(edge))
    return lines + fillers(), data


def join_lines(lines, newline="\n"):
    return newline.join(lines) + newline


def outcome(parse, text):
    """The parsed file, or the message of the SequenceFileError it raised."""
    try:
        return parse(text)
    except SequenceFileError as err:
        return str(err)


def assert_same_parse(new, old):
    assert new.n == old.n
    assert new.metadata == old.metadata
    assert new.length == old.length
    # bit for bit: signed zeros and subnormals included
    assert stack_of(new.sequence).tobytes() == stack_of(old.sequence).tobytes()


class TestAgainstPerTokenParse:
    @settings(max_examples=100, deadline=None)
    @given(sequence_lines(), st.sampled_from(NEWLINES))
    @example((["n=1", "# ==== walk ====", "1"], [2]), "\n")  # an empty key is no metadata
    def test_valid_files_parse_bit_for_bit(self, drawn, newline):
        text = join_lines(drawn[0], newline)
        assert_same_parse(parse_sequence_text(text), parse_per_token(text))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sequence_lines(), st.data())
    def test_a_file_parses_as_its_text_bit_for_bit(self, tmp_path, drawn, data):
        # read_sequence_file streams the lines of a file opened with universal newlines, and
        # parse_sequence_text splits a str: one line rule, so one parse, line endings mixed.
        # Each example overwrites the one file
        lines = drawn[0]
        endings = data.draw(st.lists(st.sampled_from(NEWLINES), min_size=len(lines), max_size=len(lines)))
        text = "".join(line + ending for line, ending in zip(lines, endings))
        path = tmp_path / "drawn.seq"
        path.write_text(text, encoding="utf-8", newline="")
        assert path.read_bytes() == text.encode()
        assert_same_parse(read_sequence_file(path), parse_sequence_text(text))

    @settings(max_examples=100, deadline=None)
    @given(sequence_lines(), st.data())
    def test_corrupted_files_fail_with_the_same_message(self, drawn, data):
        lines, data_indices = drawn
        lines = list(lines)
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.sampled_from(data_indices))
            original = lines[index].strip()
            tokens = original.split()
            kind = data.draw(st.sampled_from(["replace", "drop", "append", "comment", "delete", "duplicate"]))
            if kind == "replace" and tokens:
                bad = data.draw(st.sampled_from(["x", "nan", "inf", "-inf", "0.7", "2", "-0.5", "1e", "--1", "0x1",
                                                 "1e-400", "-5E-999", "0e-400"]))
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = bad
            elif kind == "drop" and tokens:
                del tokens[data.draw(st.integers(0, len(tokens) - 1))]
            elif kind == "append":
                tokens.append("0")
            elif kind == "comment":
                tokens.append("# note")
            elif kind == "delete":
                tokens = []
            elif kind == "duplicate":
                tokens += ["\n"] + tokens
            # a line that occurs more than once is corrupted at one occurrence or at every one
            every = data.draw(st.booleans())
            for i in data_indices:
                if i == index or every and lines[i].strip() == original:
                    lines[i] = " ".join(tokens)
        text = join_lines(lines)
        new, old = outcome(parse_sequence_text, text), outcome(parse_per_token, text)
        if isinstance(old, str):
            assert new == old
        else:
            assert_same_parse(new, old)

    @pytest.mark.parametrize(
        "text, prefix",
        [
            # a stochasticity error in record 1 before a short row in record 2
            ("n=2\n0.5 0.6\n0.5 0.5\n\n1\n0 1\n", "record 1: row 1 sums to"),
            # a short row in record 1 before a stochasticity error in record 2
            ("n=2\n1\n0 1\n\n0.5 0.6\n0.5 0.5\n", "record 1, row 1 (line 2): expected 2 values, got 1"),
            # a non-numeric token anywhere before a negativity error in record 1
            ("n=2\n1.5 -0.5\n0 1\n\n1 0\n0 one\n", "line 6: non-numeric value in '0 one'"),
            ("n=2\nnan 1\n0 1\n", "record 1: all entries must be finite"),
            ("n=2\n1 0\n0 inf\n", "record 1: all entries must be finite"),
            ("n=2\n1 0\n-inf 1\n", "record 1: all entries must be finite"),
            ("n=2\n1 0 # identity\n0 1\n", "line 2: non-numeric value in '1 0 # identity'"),
            # an incomplete record before any record's own errors
            ("n=2\n0.5 0.6\n0 1\n\n1 0\n", "record 2 is incomplete: 1 of 2 rows present"),
            # every row equally wide, but not n wide
            ("n=2\n1 0 0\n0 1 0\n", "record 1, row 1 (line 2): expected 2 values, got 3"),
            ("n=2\n1 0\n0 1\n\n1 -0.5\n0 1\n", "record 2: entry (1,2) = -0.5 is below"),
            # records 2 and 3 are one distinct record, named at its first occurrence (lines 5
            # and 6), the only one whose line numbers are kept
            ("n=2\n1 0\n0 1\n\n1 0\n1\n\n1 0\n1\n", "record 2, row 2 (line 6): expected 2 values, got 1"),
            ("n=2\n1 0\n0 1\n\n1 0\n0 one\n\n1 0\n0 one\n", "line 6: non-numeric value in '0 one'"),
            # a row sum broken in the last record of a periodic file, named by its record number
            ("n=2\n0 1\n1 0\n\n1 0\n0 1\n\n0 1\n1 0\n\n1 0\n0 1.5\n", "record 4: row 2 sums to 1.5"),
            # a nonzero entry that reads as 0.0 would drop the self-loop (1,1) from the pattern:
            # written with an exponent, or as a plain decimal with 323 zeros after the point
            ("n=2\n1e-400 1\n1 0\n\n0.5 0.5\n0.5 0.5\n", "line 2: '1e-400' is not zero but reads as 0.0 in float64"),
            pytest.param(f"n=2\n0.{'0' * 323}1 1\n1 0\n", f"line 2: '0.{'0' * 323}1' is not zero but reads as 0.0",
                         id="plain-decimal-underflow"),
            # it is named in file order with non-numeric lines, before any record's own errors
            ("n=2\n0.5 0.6\n0.5 0.5\n\n1 0\n-2E-999 1\n", "line 6: '-2E-999' is not zero but reads as 0.0"),
            ("n=2\n1 0\n0 one\n\n1 0\n1e-400 1\n", "line 3: non-numeric value in '0 one'"),
        ],
    )
    def test_error_precedence(self, tmp_path, text, prefix):
        message = outcome(parse_sequence_text, text)
        assert message.startswith(prefix)
        assert message == outcome(parse_per_token, text)
        path = tmp_path / "case.seq"
        path.write_text(text, encoding="utf-8")
        assert outcome(read_sequence_file, path) == message

    def test_a_form_feed_inside_a_line_separates_tokens(self, tmp_path):
        # only LF, CRLF and CR end a line: str.splitlines broke each row at its form feed,
        # into records of 2-value rows ("expected 4 values, got 2")
        text = "n=4\n" + "0.25 0.25\f0.25 0.25\n" * 4
        path = tmp_path / "ff.seq"
        path.write_text(text, encoding="utf-8")
        for seqf in (parse_sequence_text(text), read_sequence_file(path), parse_per_token(text)):
            assert (seqf.n, seqf.length) == (4, 1)
            assert stack_of(seqf.sequence).tobytes() == np.full((1, 4, 4), 0.25).tobytes()

    @pytest.mark.parametrize("token, refused", [
        ("2.4e-324", True), ("2.5e-324", False), ("1e-0400", True), ("0e-999", False), ("0.000e-400", False),
        # a decimal at least 10 ** (e - z - 1), z zeros after the point: the parser splits a line only
        # for an exponent of -100 or below or a run of 224 zeros, the edges of z - e >= 323
        (f"0.{'0' * 224}1e-99", True), (f"0.{'0' * 223}1e-99", False),
        (f"0.{'0' * 323}1", True), (f"0.{'0' * 322}1", False),
    ], ids=["2.4e-324", "2.5e-324", "leading-zero-exponent", "zero", "zero-mantissa",
            "224-zeros-e-99", "223-zeros-e-99", "323-zeros", "322-zeros"])
    def test_underflow_is_refused_at_its_edges(self, token, refused):
        text = f"n=2\n{token} 1\n1 0\n"
        new, old = outcome(parse_sequence_text, text), outcome(parse_per_token, text)
        if refused:
            assert new == old == f"line 2: {token!r} is not zero but reads as 0.0 in float64"
        else:
            assert_same_parse(new, old)
            assert new.sequence.factors[0, 0, 0] > 0 or float(token) == 0.0

    def test_underscore_separators_are_non_numeric(self):
        # Python float() reads '1_0' as 10; numpy's number grammar has no '_'
        text = "n=1\n1_0\n"
        assert outcome(parse_sequence_text, text) == "line 2: non-numeric value in '1_0'"
        assert outcome(parse_per_token, text).startswith("record 1: row 1 sums to")

    @pytest.mark.parametrize("digits, k", [("1_0", 10), ("٢", 2), ("+3", 3)])
    def test_header_takes_only_ascii_digits(self, digits, k):
        # int() read each as the dimension k; data lines reject '1_0' and the
        # Arabic-Indic digit as non-numeric
        text = f"n={digits}\n" + "".join(" ".join("1" if i == j else "0" for j in range(k)) + "\n" for i in range(k))
        for parse in (parse_sequence_text, parse_per_token):
            assert outcome(parse, text) == f"line 1: malformed header 'n={digits}'"

    def test_records_are_read_only(self):
        # one factor stack and one word per sequence, parsed or generated: the file's matrices
        # are its sequence, and items, iteration and factor(k) are read-only views of the factors
        for seqf in (parse_sequence_text(GOOD), generate_sequence("wolfowitz-set", 3, 6, 0.1, 0)):
            seq = seqf.to_sequence()
            assert seqf.matrices is seq
            views = [*seq.items, *seq, seq.factor(1)]
            assert len(views) == 2 * seqf.length + 1
            assert not seq.factors.flags.writeable and not seq.word.flags.writeable
            assert not any(m.flags.writeable for m in views)
            assert all(np.shares_memory(m, seq.factors) for m in views)
            with pytest.raises(ValueError, match="read-only"):
                seq.factors[0, 0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                seq.word[0] = 0

    def test_generation_and_diagnosis_build_no_matrix(self):
        # the parser and generate each validate their distinct factors with one normalize_rows
        # call and take them over: no per-record validation, and no MatrixSequence
        # constructor, which would check each record once more. A rejected record is
        # checked by the rule the factors failed
        def normalize_rows_calls(fn, *args):
            spy = mock.Mock(wraps=normalize_rows)
            with mock.patch.object(stochastic, "normalize_rows", spy), \
                    mock.patch.object(seqfile, "normalize_rows", spy), mock.patch.object(generate, "normalize_rows", spy):
                fn(*args)
            return spy.call_count

        assert normalize_rows_calls(parse_sequence_text, GOOD) == 1
        for preset in PRESETS:
            assert normalize_rows_calls(generate_sequence, preset, 4, 12, 0.1, 0) == 1
        with pytest.raises(SequenceFileError) as rejected:
            parse_sequence_text("n=2\n1 0\n0 1\n\n0.3 0.4\n0 1\n")
        assert str(rejected.value) == "record 2: row 1 sums to 0.7, not 1 within 1e-09"


@st.composite
def repeating_stacks(draw, entry):
    """(L, n, n) stacks whose rows are drawn from a small pool, so rows repeat."""
    n = draw(st.integers(1, 5))
    pool = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 4)))]
    rows = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 4)) * n)]
    return rows, n


class TestAgainstPerValueWriter:
    """format_sequence's one text per factor row, with a token for entries whose bits
    are all zero, written in word order, against repr of every value."""

    @settings(max_examples=150, deadline=None)
    @given(repeating_stacks(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e16]), st.floats(allow_nan=False, allow_infinity=False)
    )))
    def test_float64_sequences(self, drawn):
        # a MatrixSequence's factors are written as they are, unchecked, as generate writes its
        # sequences; a word takes them backwards, then the first once more
        rows, n = drawn
        stack = np.array(rows, dtype=np.float64).reshape(-1, n, n)
        metadata = {"preset": "drawn"}
        assert format_sequence(sequence_of_stack(stack), metadata) == format_per_value(stack, metadata)
        word = np.r_[np.arange(len(stack))[::-1], 0]
        text = format_sequence(MatrixSequence._of_word(stack, word), metadata)
        assert text == format_per_value(stack[word], metadata)
