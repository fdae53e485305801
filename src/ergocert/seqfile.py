"""Plain-text files holding an ordered sequence of square matrices.

Format, line oriented and diffable:

    n=3                  header: the dimension in ASCII digits, first content line
    # key=value          optional metadata, one pair per comment line; the key is non-empty
    0.2 0.3 0.5          one matrix = n data lines of n decimal reals
    0.1 0.8 0.1
    0.4 0.4 0.2
                         blank line between matrices (writer convention;
    1 0 0                the parser accepts any blank/comment interleaving)
    0 1 0
    0 0 1

A file is read as UTF-8 (a leading byte-order mark skipped) line by line, and a line ends at LF,
CRLF or CR, in a file (universal newlines) as in a str. A record is keyed by the tuple of its n line
texts, and the file becomes the MatrixSequence of its distinct records and a word over them: only
the distinct records' lines and where each first occurs are kept, and a repeat (finite-set and
periodic files repeat whole records) is neither converted nor kept. One numpy call reads the
distinct records' lines, and `stochastic.normalize_rows` (the MatrixSequence constructor's rule)
checks their rows. An entry written nonzero that reads as 0.0 is refused, so no positive entry
drops out of a pattern; only a line with an exponent of -100 or below or a run of 224 zeros can
hold one, and only such a line is split to look. Only rejected input is scanned again, to name
the first bad line or record: each distinct line is converted once by `parse_numbers`, which also
reads the CLI's x0 vectors, and each record's first occurrence is checked by `normalize_rows`;
records and rows are 1-based.
The writer takes a MatrixSequence only and writes each factor's rows, formatted once, in word
order: an entry whose bits are all zero is 0.0, repr writes the rest, and -0.0 keeps its sign.
Writes are atomic: a temporary file in the target directory is renamed into place.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .errors import StochasticityError
from .stochastic import MatrixSequence, normalize_rows

_EXPONENT_BELOW_MINUS_99 = re.compile("-0*[1-9][0-9][0-9]")  # or a negative number of 3+ digits, refused anyway


class SequenceFileError(ValueError):
    """Malformed sequence file: bad header, bad record, or failed validation."""


@dataclass
class SequenceFile:
    """Parsed file: metadata pairs and the validated sequence."""

    metadata: dict[str, str]
    sequence: MatrixSequence

    @property
    def n(self) -> int:
        return self.sequence.n

    @property
    def length(self) -> int:
        return len(self.sequence)

    @property
    def matrices(self) -> MatrixSequence:
        """The file's sequence, kept for the benchmark's traced run."""
        return self.sequence

    def to_sequence(self) -> MatrixSequence:
        return self.sequence


def parse_sequence_text(text: str | Iterable[str]) -> SequenceFile:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if isinstance(text, str) else text
    n: int | None = None
    metadata: dict[str, str] = {}
    # distinct records by their lines, in order of first occurrence: index, 1-based record number, first line numbers
    records: dict[tuple[str, ...], tuple[int, int, list[int]]] = {}
    word: list[int] = []
    record: list[str] = []
    record_lines: list[int] = []

    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, value = line.lstrip("#").partition("=")
            if eq and key.strip():  # a decorative "# ==== x ====" has an empty key and is no metadata
                metadata.setdefault(key.strip(), value.strip())
            continue
        if n is None:
            if not line.startswith("n="):
                raise SequenceFileError(f"line {lineno}: expected header 'n=<int>', got {line!r}")
            if not (line[2:].isascii() and line[2:].strip().isdigit()):
                raise SequenceFileError(f"line {lineno}: malformed header {line!r}")
            n = int(line[2:])
            if n < 1:
                raise SequenceFileError(f"line {lineno}: dimension must be at least 1")
            continue
        record.append(line)
        record_lines.append(lineno)
        if len(record) == n:
            word.append(records.setdefault(tuple(record), (len(records), len(word) + 1, record_lines))[0])
            record, record_lines = [], []

    if n is None:
        raise SequenceFileError("missing header line 'n=<int>'")
    if not word and not record:
        raise SequenceFileError("no matrices")
    lines = [*(line for rows in records for line in rows), *record]
    try:
        values = np.loadtxt(lines, comments=None, ndmin=2)
        # the lines of an incomplete last record are left over; _diagnose names what failed
        if values.shape[1] != n or record or any(_underflow(line, row) for line, row in zip(lines, values)):
            raise ValueError("the rows do not form n x n records, or a nonzero entry reads as 0.0")
        normalize_rows(values)
    except ValueError:
        _diagnose(records, len(word), [*zip(record_lines, record)], n)
    return SequenceFile(metadata, MatrixSequence._of_word(values.reshape(-1, n, n), np.array(word, dtype=np.intp)))


def parse_numbers(line: str) -> np.ndarray:
    """The numbers on one line, in the grammar of the one-call parse.

    ValueError if a token is not a number; an empty line holds no numbers.
    """
    if not line.strip():
        return np.empty(0)
    return np.loadtxt([line], dtype=float, comments=None, ndmin=2)[0]


def _underflow(line: str, row: np.ndarray) -> str | None:
    """The first token of a data line that has a nonzero digit but reads as 0.0 in row, the line's
    values, or None. Such a token is below 2.5e-324, half the least float64 subnormal. With z zeros
    between its point and its first nonzero digit and exponent e, it is at least 10 ** (e - z - 1),
    so z - e >= 323: its exponent is -100 or below, or it holds a run of 224 zeros. Lines with
    neither, ordinary exponents such as e-05 included, are not split."""
    if "0" * 224 in line or "-" in line and _EXPONENT_BELOW_MINUS_99.search(line):
        for token, value in zip(line.split(), row.tolist()):
            if value == 0.0 and any(digit in token.lower().partition("e")[0] for digit in "123456789"):
                return token
    return None


def _diagnose(records: dict[tuple[str, ...], tuple], length: int, tail: list[tuple[int, str]], n: int) -> NoReturn:
    """Raise the error of data the one-call parse rejected, converting each distinct line once.

    A non-numeric line, or one with a nonzero entry that reads as 0.0, anywhere comes first, in file
    order; then an incomplete last record (the tail: the numbered lines after `length` whole
    records); then records in order, a wrong row length before a stochasticity error. A repeated
    record fails as its first occurrence does, so only first occurrences are checked.
    """
    converted: dict[str, np.ndarray] = {}
    for lineno, line in [*(pair for key, (_, _, linenos) in records.items() for pair in zip(linenos, key)), *tail]:
        if line not in converted:  # in file order
            try:
                converted[line] = parse_numbers(line)
            except ValueError:
                raise SequenceFileError(f"line {lineno}: non-numeric value in {line!r}") from None
            token = _underflow(line, converted[line])
            if token is not None:
                raise SequenceFileError(f"line {lineno}: {token!r} is not zero but reads as 0.0 in float64")
    if tail:
        raise SequenceFileError(f"record {length + 1} is incomplete: {len(tail)} of {n} rows present")
    for key, (_, r, linenos) in records.items():
        block = [converted[line] for line in key]
        for offset, row in enumerate(block):
            if len(row) != n:
                raise SequenceFileError(
                    f"record {r}, row {offset + 1} (line {linenos[offset]}): expected {n} values, got {len(row)}"
                )
        try:
            normalize_rows(np.array(block, dtype=float))
        except StochasticityError as err:
            raise SequenceFileError(f"record {r}: {err}") from err
    raise RuntimeError("internal error: every record passed the checks the one-call parse failed")


def read_sequence_file(path: str | Path) -> SequenceFile:
    with open(path, encoding="utf-8-sig") as handle:
        return parse_sequence_text(handle)


def format_sequence(factors, metadata: dict[str, str] | None = None) -> str:
    """Render a MatrixSequence in the file format (TypeError for anything else); floats use
    shortest round-trip form. Refuses metadata keys or values that are not str or would not
    read back unchanged. Each factor's rows are formatted once, all of them by one %-template,
    and the records are written in word order: an entry whose bits are all zero is 0.0, %r
    writes the others, and -0.0 keeps its own text."""
    if not isinstance(factors, MatrixSequence):
        raise TypeError(f"the writer takes a MatrixSequence, got {type(factors).__name__}")
    n = factors.n
    lines = [f"n={n}"]
    for key, value in (metadata or {}).items():
        readable = all(isinstance(s, str) and len(s.splitlines()) <= 1 and s == s.strip() for s in (key, value))
        if not readable or not key or "=" in key:
            raise SequenceFileError(f"metadata {key!r}: {value!r} would not read back unchanged")
        lines.append(f"# {key}={value}")
    rows = factors.factors.reshape(-1, n)
    nonzero = (rows != 0) | np.signbit(rows)
    tokens = np.array([["0.0 ", "%r "], ["0.0\n", "%r\n"]], dtype=bytes)  # [row end?][not all-zero bits?]
    template = tokens[(np.arange(n) == n - 1).view(np.uint8), nonzero.view(np.uint8)].tobytes()
    row_text = (template.replace(b"\0", b"").decode() % tuple(rows[nonzero].tolist())).split("\n")
    blocks = ["\n" + "\n".join(row_text[d * n : (d + 1) * n]) for d in range(len(factors.factors))]
    return "\n".join([*lines, *(blocks[w] for w in factors.word)]) + "\n"


def write_sequence_file(path: str | Path, factors, metadata: dict[str, str] | None = None) -> None:
    """Atomically write format_sequence(factors, metadata) (temp file + rename).

    A new file gets the mode open(path, "w") would give, 0o666 less the umask.
    A path ending in a separator names a directory: IsADirectoryError, as from open.
    An OSError names the path given, not the randomly named temporary file.
    """
    if os.fspath(path).endswith(os.sep):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    target = Path(path)
    content = format_sequence(factors, metadata)
    tmp_name = target.parent / f"{target.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(content)
            os.replace(tmp_name, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
    except OSError as err:
        raise OSError(err.errno, err.strerror, os.fspath(path)) from err
