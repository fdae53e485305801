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

The parser takes text; a file is read as UTF-8, a leading byte-order mark skipped. A record
is keyed by the tuple of its n line texts, and the file becomes the MatrixSequence of its
distinct records and a word over them, with no (L, n, n) stack: finite-set or periodic files
repeat whole records (1 distinct record in 150 for the periodic counterexample at n=101), and a
repeat is neither converted nor kept. One numpy call reads the distinct records' lines, and
`stochastic.normalize_rows` (the rule the MatrixSequence constructor applies to each record)
checks their rows. The writer takes a MatrixSequence only, formats each factor's rows once and
writes the records in word order: an entry whose bits are all zero is 0.0, repr writes the rest,
and -0.0 keeps its sign. Only rejected input is scanned again, to name the first bad line or
record: each distinct line is converted once by `parse_numbers`, which also reads the CLI's x0
vectors, and the first occurrence of each record is checked by `normalize_rows`. Records and
rows in error messages are 1-based. Writes are atomic: content goes to a temporary file in the
target directory and is renamed into place.
"""

from __future__ import annotations

import contextlib
import errno
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import StochasticityError
from .stochastic import MatrixSequence, normalize_rows


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


def parse_sequence_text(text: str) -> SequenceFile:
    n: int | None = None
    metadata: dict[str, str] = {}
    line_numbers: list[int] = []
    records: dict[tuple[str, ...], int] = {}  # distinct records by their lines, in order of first occurrence
    word: list[int] = []
    record: list[str] = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
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
        line_numbers.append(lineno)
        record.append(line)
        if len(record) == n:
            word.append(records.setdefault(tuple(record), len(records)))
            record = []

    if n is None:
        raise SequenceFileError("missing header line 'n=<int>'")
    if not line_numbers:
        raise SequenceFileError("no matrices")
    distinct = list(records)
    try:
        values = np.loadtxt([*(line for rows in distinct for line in rows), *record], comments=None, ndmin=2)
        if values.shape[1] != n or record:  # the lines of an incomplete last record are left over
            raise ValueError("the rows do not form n x n records")
        normalize_rows(values)
    except ValueError:
        _diagnose(distinct, word, record, line_numbers, n)
    return SequenceFile(metadata, MatrixSequence._of_word(values.reshape(-1, n, n), np.array(word, dtype=np.intp)))


def parse_numbers(line: str) -> np.ndarray:
    """The numbers on one line, in the grammar of the one-call parse.

    ValueError if a token is not a number; an empty line holds no numbers.
    """
    if not line.strip():
        return np.empty(0)
    return np.loadtxt([line], dtype=float, comments=None, ndmin=2)[0]


def _diagnose(distinct: list[tuple[str, ...]], word: list[int], tail: list[str], line_numbers: list[int], n: int) -> NoReturn:
    """Raise the error of data the one-call parse rejected, converting each distinct line once.

    A non-numeric line anywhere comes first, then an incomplete last record (its lines are the
    tail); then records in order, a wrong row length before a stochasticity error. A repeated
    record fails as its first occurrence does, so only first occurrences are checked.
    """
    first = np.unique(word, return_index=True)[1].tolist()
    lines = [(line_numbers[r * n + i], line) for d, r in enumerate(first) for i, line in enumerate(distinct[d])]
    converted: dict[str, np.ndarray] = {}
    for lineno, line in [*lines, *zip(line_numbers[len(word) * n :], tail)]:  # in file order
        if line not in converted:
            try:
                converted[line] = parse_numbers(line)
            except ValueError:
                raise SequenceFileError(f"line {lineno}: non-numeric value in {line!r}") from None
    if tail:
        raise SequenceFileError(f"record {len(word) + 1} is incomplete: {len(tail)} of {n} rows present")
    for d, r in enumerate(first):
        block = [converted[line] for line in distinct[d]]
        for offset, row in enumerate(block):
            if len(row) != n:
                raise SequenceFileError(
                    f"record {r + 1}, row {offset + 1} (line {line_numbers[r * n + offset]}): "
                    f"expected {n} values, got {len(row)}"
                )
        try:
            normalize_rows(np.array(block, dtype=float))
        except StochasticityError as err:
            raise SequenceFileError(f"record {r + 1}: {err}") from err
    raise RuntimeError("internal error: every record passed the checks the one-call parse failed")


def read_sequence_file(path: str | Path) -> SequenceFile:
    return parse_sequence_text(Path(path).read_text(encoding="utf-8-sig"))


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
