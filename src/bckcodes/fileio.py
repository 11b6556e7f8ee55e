"""Text formats: .code files (one word per line) and .alg files (header plus
table rows).  '#' starts a comment in both."""
from __future__ import annotations

import numpy as np

from .errors import FormatError
from .model import DOT, STAR, BlockCode, OpTable


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_code_file(text: str) -> BlockCode:
    """One codeword per non-empty, non-comment line; equal lengths, no
    duplicates."""
    seen = {}
    length = None
    for lineno, line in _content_lines(text):
        if any(c not in "01" for c in line):
            raise FormatError(f"codeword {line!r} has characters outside {{0,1}}", line=lineno)
        if length is None:
            length = len(line)
        elif len(line) != length:
            raise FormatError(
                f"codeword {line!r} has length {len(line)}, expected {length}", line=lineno
            )
        if line in seen:
            raise FormatError(
                f"duplicate codeword {line!r} (first seen on line {seen[line]})", line=lineno
            )
        seen[line] = lineno
    if not seen:
        raise FormatError("no codewords found")
    return BlockCode.from_strings(seen)


def serialize_code(code: BlockCode) -> str:
    return "\n".join(code.strings()) + "\n"


def _renumber(table: np.ndarray, theta: int, labels):
    """Move theta to index 0, keeping the other elements' relative order."""
    n = table.shape[0]
    order = [theta] + [i for i in range(n) if i != theta]
    new_of = np.argsort(order)
    out = new_of[table[np.ix_(order, order)]]
    new_labels = tuple(labels[i] for i in order) if labels is not None else None
    return out, new_labels


def parse_algebra_file(text: str) -> OpTable:
    """Header lines `kind star|dot`, `n <int>`, `theta <index>`, optional
    `labels <n names>`, then n rows of n indices.  The result is renumbered
    so theta is element 0, with labels carried along."""
    kind = None
    n = None
    theta = None
    labels = None
    rows = []
    expect_rows = False
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if not expect_rows and tokens[0] in ("kind", "n", "theta", "labels"):
            key, *rest = tokens
            if key == "kind":
                if len(rest) != 1 or rest[0] not in (STAR, DOT):
                    raise FormatError("kind must be 'star' or 'dot'", line=lineno)
                kind = rest[0]
            elif key == "n":
                try:
                    n = int(rest[0]) if len(rest) == 1 else None
                except ValueError:
                    n = None
                if n is None or n < 1:
                    raise FormatError("n must be a positive integer", line=lineno)
            elif key == "theta":
                try:
                    theta = int(rest[0]) if len(rest) == 1 else None
                except ValueError:
                    theta = None
                if theta is None:
                    raise FormatError("theta must be an element index", line=lineno)
            else:
                labels = tuple(rest)
            continue
        expect_rows = True
        if n is None:
            raise FormatError("table rows before an 'n' header", line=lineno)
        try:
            row = [int(tok) for tok in tokens]
        except ValueError:
            raise FormatError(f"non-integer table entry in {line!r}", line=lineno) from None
        if len(row) != n:
            raise FormatError(f"expected {n} entries per row, got {len(row)}", line=lineno)
        for v in row:
            if not (0 <= v < n):
                raise FormatError(f"entry {v} out of range [0, {n})", line=lineno)
        rows.append(row)
        if len(rows) > n:
            raise FormatError(f"more than {n} table rows", line=lineno)
    if kind is None:
        raise FormatError("missing 'kind' header")
    if n is None:
        raise FormatError("missing 'n' header")
    if theta is None:
        raise FormatError("missing 'theta' header")
    if len(rows) != n:
        raise FormatError(f"expected {n} table rows, found {len(rows)}")
    if not (0 <= theta < n):
        raise FormatError(f"theta index {theta} out of range [0, {n})")
    if labels is not None and len(labels) != n:
        raise FormatError(f"expected {n} labels, got {len(labels)}")
    table = np.array(rows, dtype=np.int64)
    if theta != 0:
        table, labels = _renumber(table, theta, labels)
    return OpTable(table=table, kind=kind, labels=labels)


def serialize_algebra(t: OpTable) -> str:
    lines = [f"kind {t.kind}", f"n {t.n}", "theta 0"]
    if t.labels is not None:
        lines.append("labels " + " ".join(t.labels))
    for row in t.table:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def sniff_format(text: str) -> str:
    """'algebra' when the first content line is an .alg header, else 'code'."""
    for _, line in _content_lines(text):
        head = line.split()[0]
        return "algebra" if head in ("kind", "n", "theta", "labels") else "code"
    return "code"
