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

The parser takes text; a file is read as UTF-8, a leading byte-order mark skipped. Each
distinct data line is converted and validated once: one numpy call reads the distinct
lines, `stochastic.normalize_rows` (the rule the MatrixSequence constructor applies to
each record) checks their rows, and they are gathered into one validated (L, n, n) stack,
which the file's MatrixSequence takes over. Finite-set or periodic factors repeat rows
(101 distinct lines in 15 150 for the periodic counterexample at n=101, L=150); a repeat
is neither converted nor kept, and a file of distinct lines pays one dict insert per
line, 4-10% of its parse. The writer takes a MatrixSequence only and formats each
distinct row once: an entry whose bits are all zero is 0.0, repr writes the rest, and
-0.0 keeps its sign. Only rejected input is scanned again, to name the first bad line or
record: each distinct line is converted once by `parse_numbers`, which also reads the
CLI's x0 vectors, and each record is checked by `normalize_rows`. Records and rows in
error messages are 1-based. Writes are atomic: content goes to a temporary file in the
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
    slots: dict[str, int] = {}  # distinct data lines in order of first occurrence; repeats are not kept
    slot_of_line: list[int] = []

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
        slot_of_line.append(slots.setdefault(line, len(slots)))

    if n is None:
        raise SequenceFileError("missing header line 'n=<int>'")
    if not slots:
        raise SequenceFileError("no matrices")
    distinct = list(slots)
    try:
        values = np.loadtxt(distinct, dtype=float, comments=None, ndmin=2)
        if values.shape[1] != n or len(slot_of_line) % n:
            raise ValueError("the rows do not form n x n records")
        normalize_rows(values)
    except ValueError:
        _diagnose(distinct, slot_of_line, line_numbers, n)
    if len(distinct) < len(slot_of_line):
        values = values[slot_of_line]
    return SequenceFile(metadata, MatrixSequence._of_stack(values.reshape(-1, n, n)))


def parse_numbers(line: str) -> np.ndarray:
    """The numbers on one line, in the grammar of the one-call parse.

    ValueError if a token is not a number; an empty line holds no numbers.
    """
    if not line.strip():
        return np.empty(0)
    return np.loadtxt([line], dtype=float, comments=None, ndmin=2)[0]


def _diagnose(distinct: list[str], slot_of_line: list[int], line_numbers: list[int], n: int) -> NoReturn:
    """Raise the error of data the one-call parse rejected, converting each distinct line once.

    A non-numeric line anywhere comes first; then records in order, a wrong
    row length before a stochasticity error.
    """
    converted: list[np.ndarray] = []
    for lineno, slot in zip(line_numbers, slot_of_line):
        if slot == len(converted):  # slots are numbered in order of first occurrence
            try:
                converted.append(parse_numbers(distinct[slot]))
            except ValueError:
                raise SequenceFileError(f"line {lineno}: non-numeric value in {distinct[slot]!r}") from None
    rows = [converted[slot] for slot in slot_of_line]
    if len(rows) % n != 0:
        raise SequenceFileError(
            f"record {len(rows) // n + 1} is incomplete: {len(rows) % n} of {n} rows present"
        )
    for record_index in range(len(rows) // n):
        block = rows[record_index * n : (record_index + 1) * n]
        for offset, row in enumerate(block):
            if len(row) != n:
                lineno = line_numbers[record_index * n + offset]
                raise SequenceFileError(
                    f"record {record_index + 1}, row {offset + 1} (line {lineno}): "
                    f"expected {n} values, got {len(row)}"
                )
        try:
            normalize_rows(np.array(block, dtype=float))
        except StochasticityError as err:
            raise SequenceFileError(f"record {record_index + 1}: {err}") from err
    raise RuntimeError("internal error: every record passed the checks the whole stack failed")


def read_sequence_file(path: str | Path) -> SequenceFile:
    return parse_sequence_text(Path(path).read_text(encoding="utf-8-sig"))


def format_sequence(factors, metadata: dict[str, str] | None = None) -> str:
    """Render a MatrixSequence in the file format (TypeError for anything else); floats use
    shortest round-trip form. Refuses metadata keys or values that are not str or would not
    read back unchanged. Each distinct row, keyed by its bytes, is formatted once, all of
    them by one %-template: an entry whose bits are all zero is 0.0, %r writes the others,
    and -0.0 keeps its own text."""
    if not isinstance(factors, MatrixSequence):
        raise TypeError(f"the writer takes a MatrixSequence, got {type(factors).__name__}")
    stack = factors.stack
    n = stack.shape[1]
    lines = [f"n={n}"]
    for key, value in (metadata or {}).items():
        readable = all(isinstance(s, str) and len(s.splitlines()) <= 1 and s == s.strip() for s in (key, value))
        if not readable or not key or "=" in key:
            raise SequenceFileError(f"metadata {key!r}: {value!r} would not read back unchanged")
        lines.append(f"# {key}={value}")
    rows = stack.reshape(len(stack) * n, n)
    slots: dict[bytes, int] = {}
    slot = [slots.setdefault(row.tobytes(), len(slots)) for row in rows]
    unique = rows[np.unique(np.array(slot, dtype=np.intp), return_index=True)[1]]
    nonzero = (unique != 0) | np.signbit(unique)
    tokens = np.array([["0.0 ", "%r "], ["0.0\n", "%r\n"]], dtype=bytes)  # [row end?][not all-zero bits?]
    template = tokens[(np.arange(n) == n - 1).view(np.uint8), nonzero.view(np.uint8)].tobytes()
    row_text = (template.replace(b"\0", b"").decode() % tuple(unique[nonzero].tolist())).split("\n")
    for record in range(len(stack)):
        lines += ["", *(row_text[k] for k in slot[record * n : (record + 1) * n])]
    return "\n".join(lines) + "\n"


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
