"""Plain-text files holding an ordered sequence of square matrices.

Format, line oriented and diffable:

    n=3                  header: the dimension, first content line
    # key=value          optional metadata, one pair per comment line
    0.2 0.3 0.5          one matrix = n data lines of n decimal reals
    0.1 0.8 0.1
    0.4 0.4 0.2
                         blank line between matrices (writer convention;
    1 0 0                the parser accepts any blank/comment interleaving)
    0 1 0
    0 0 1

All data lines are converted by one numpy call and all records are
validated as one stack; only rejected input is scanned again, line by line,
to name the first bad line or record. Records and rows in error messages are
1-based. Writes are atomic: content goes to a temporary file in the target
directory and is renamed into place.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import StochasticityError
from .hypotheses import MatrixSequence
from .stochastic import NEGATIVITY_TOL, ROW_SUM_TOL, StochasticMatrix, check_tolerance


class SequenceFileError(ValueError):
    """Malformed sequence file: bad header, bad record, or failed validation."""


@dataclass
class SequenceFile:
    """Parsed file: dimension, metadata pairs, and the validated matrices."""

    n: int
    metadata: dict[str, str] = field(default_factory=dict)
    matrices: tuple[StochasticMatrix, ...] = ()

    @property
    def length(self) -> int:
        return len(self.matrices)

    def to_sequence(self) -> MatrixSequence:
        return MatrixSequence(self.matrices)


def parse_sequence_text(
    text: str,
    *,
    tol_row: float = ROW_SUM_TOL,
    tol_neg: float = NEGATIVITY_TOL,
) -> SequenceFile:
    check_tolerance("tol_row", tol_row)
    check_tolerance("tol_neg", tol_neg)
    n: int | None = None
    metadata: dict[str, str] = {}
    data_lines: list[str] = []
    line_numbers: list[int] = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = body.split("=", 1)
                metadata.setdefault(key.strip(), value.strip())
            continue
        if n is None:
            if not line.startswith("n="):
                raise SequenceFileError(f"line {lineno}: expected header 'n=<int>', got {line!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise SequenceFileError(f"line {lineno}: malformed header {line!r}") from None
            if n < 1:
                raise SequenceFileError(f"line {lineno}: dimension must be at least 1")
            continue
        data_lines.append(line)
        line_numbers.append(lineno)

    if n is None:
        raise SequenceFileError("missing header line 'n=<int>'")
    if not data_lines:
        raise SequenceFileError("no matrices")
    try:
        values = np.loadtxt(data_lines, dtype=float, comments=None, ndmin=2)
    except ValueError:
        _diagnose(data_lines, line_numbers, n, tol_row, tol_neg)
    if values.shape[1] != n or len(values) % n or not _normalize(values, tol_row, tol_neg):
        _diagnose(data_lines, line_numbers, n, tol_row, tol_neg)
    stack = values.reshape(-1, n, n)
    stack.setflags(write=False)
    return SequenceFile(n, metadata, tuple(StochasticMatrix._trusted(m) for m in stack))


def _normalize(rows: np.ndarray, tol_row: float, tol_neg: float) -> bool:
    """StochasticMatrix's checks on all rows at once, in place; False on any failure."""
    if not np.isfinite(rows).all() or (rows < -tol_neg).any():
        return False
    rows[rows < 0] = 0.0
    sums = rows.sum(axis=1)
    if (np.abs(sums - 1.0) > tol_row).any():
        return False
    rows /= sums[:, None]
    return True


def _diagnose(data_lines: list[str], line_numbers: list[int], n: int, tol_row: float, tol_neg: float) -> NoReturn:
    """Raise the error of data the one-call parse rejected, line by line.

    A non-numeric line anywhere comes first; then records in order, a wrong
    row length before a stochasticity error.
    """
    rows = []
    for lineno, line in zip(line_numbers, data_lines):
        try:
            rows.append(np.loadtxt([line], dtype=float, comments=None, ndmin=2)[0])
        except ValueError:
            raise SequenceFileError(f"line {lineno}: non-numeric value in {line!r}") from None
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
            StochasticMatrix(block, tol_row=tol_row, tol_neg=tol_neg)
        except StochasticityError as err:
            raise SequenceFileError(f"record {record_index + 1}: {err}") from err
    raise RuntimeError("internal error: every record passed the checks the whole stack failed")


def read_sequence_file(
    path: str | Path,
    *,
    tol_row: float = ROW_SUM_TOL,
    tol_neg: float = NEGATIVITY_TOL,
) -> SequenceFile:
    return parse_sequence_text(Path(path).read_text(encoding="utf-8"), tol_row=tol_row, tol_neg=tol_neg)


def format_sequence(
    matrices: Sequence[StochasticMatrix] | Iterable[StochasticMatrix],
    metadata: dict[str, str] | None = None,
) -> str:
    """Render matrices in the file format; floats use shortest round-trip form."""
    mats = list(matrices)
    if not mats:
        raise SequenceFileError("no matrices")
    n = mats[0].n
    lines = [f"n={n}"]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    for m in mats:
        lines.append("")
        for row in m.entries:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_sequence_file(
    path: str | Path,
    matrices: Sequence[StochasticMatrix] | Iterable[StochasticMatrix],
    metadata: dict[str, str] | None = None,
) -> None:
    """Atomically write a sequence file (temp file + rename)."""
    target = Path(path)
    content = format_sequence(matrices, metadata)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
