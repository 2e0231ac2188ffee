"""Minimal MatrixMarket coordinate-format reader and writer.

SuiteSparse distributes its matrices in this format; the library reads
``real``, ``integer``, and ``pattern`` coordinate files with ``general``
or ``symmetric`` symmetry, which covers every matrix the paper uses.

Every :class:`~repro.errors.FormatError` the reader raises carries
``line <n>`` context (message, ``SP605`` diagnostic) naming the
offending line, so a malformed multi-gigabyte download points at the
byte that broke instead of aborting a figure run with a context-free
error. ``symmetric`` headers on non-square matrices are rejected up
front — mirroring such a file either crashes deep inside
:class:`~repro.formats.coo.COOMatrix` or silently produces a wrong
matrix. ``strict=True`` additionally rejects out-of-bounds indices,
trailing tokens, duplicate coordinates, and non-finite values, which
is the right mode for untrusted downloads.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import NoReturn, Union

import numpy as np

from repro.errors import Diagnostic, FormatError
from repro.formats.coo import COOMatrix
from repro.resilience.faults import maybe_corrupt_text

_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRY = {"general", "symmetric"}


def _fail(lineno: int, message: str) -> NoReturn:
    raise FormatError(
        f"line {lineno}: {message}",
        diagnostics=(Diagnostic.error("SP605", message, f"line {lineno}"),),
    )


def read_matrix_market(
    source: Union[str, Path, io.TextIOBase], strict: bool = False
) -> COOMatrix:
    """Parse a MatrixMarket coordinate file into a :class:`COOMatrix`.

    ``pattern`` entries get value 1.0; ``symmetric`` files must be
    square and are expanded by mirroring off-diagonal entries.
    ``strict`` adds the untrusted-input checks described in the module
    docs. Malformed input raises :class:`FormatError` with ``line <n>``
    context and an ``SP605`` diagnostic.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            return read_matrix_market(handle, strict=strict)
    try:
        return _read_stream(source, strict)
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"non-ASCII byte in MatrixMarket stream: {exc}",
            diagnostics=(Diagnostic.error(
                "SP605", "non-ASCII byte in MatrixMarket stream"),),
        ) from exc


def _read_stream(source, strict: bool) -> COOMatrix:
    lines = enumerate(source, start=1)
    lineno, raw = next(lines, (1, ""))
    header = raw.strip().split()
    if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
        _fail(lineno, f"not a MatrixMarket matrix header: {' '.join(header)!r}")
    layout, field, symmetry = header[2], header[3].lower(), header[4].lower()
    if layout != "coordinate":
        _fail(lineno, f"only coordinate layout is supported, got {layout!r}")
    if field not in _SUPPORTED_FIELDS:
        _fail(lineno, f"unsupported field {field!r}")
    if symmetry not in _SUPPORTED_SYMMETRY:
        _fail(lineno, f"unsupported symmetry {symmetry!r}")

    size_line = None
    for lineno, raw in lines:
        stripped = raw.strip()
        if stripped and not stripped.startswith("%"):
            size_line = stripped
            break
    if size_line is None:
        _fail(lineno + 1, "missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        _fail(lineno, f"malformed size line: {size_line!r}")
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError:
        _fail(lineno, f"non-integer size line: {size_line!r}")
    if nrows < 0 or ncols < 0 or nnz < 0:
        _fail(lineno, f"negative dimension in size line: {size_line!r}")
    if symmetry == "symmetric" and nrows != ncols:
        _fail(lineno,
              f"symmetric symmetry requires a square matrix, "
              f"got {nrows} x {ncols}")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.ones(nnz, dtype=np.float64)
    n_tokens = 2 if field == "pattern" else 3
    seen = 0
    coords = set() if strict else None
    for lineno, raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        stripped = maybe_corrupt_text("ingest.entry", lineno, stripped)
        if seen >= nnz:
            _fail(lineno, f"more entries than the declared {nnz}")
        tokens = stripped.split()
        if len(tokens) < n_tokens:
            _fail(lineno,
                  f"entry line has {len(tokens)} token(s), expected "
                  f"{n_tokens}: {stripped!r}")
        if strict and len(tokens) != n_tokens:
            _fail(lineno, f"trailing tokens on entry line: {stripped!r}")
        try:
            r, c = int(tokens[0]), int(tokens[1])
        except ValueError:
            _fail(lineno, f"non-integer coordinates: {stripped!r}")
        if not (1 <= r <= nrows) or not (1 <= c <= ncols):
            _fail(lineno,
                  f"coordinate ({r}, {c}) outside the declared "
                  f"{nrows} x {ncols} shape")
        if coords is not None:
            if (r, c) in coords:
                _fail(lineno, f"duplicate coordinate ({r}, {c})")
            coords.add((r, c))
        rows[seen] = r - 1  # MatrixMarket is 1-based
        cols[seen] = c - 1
        if field != "pattern":
            try:
                value = float(tokens[2])
            except ValueError:
                _fail(lineno, f"non-numeric value: {stripped!r}")
            if strict and not math.isfinite(value):
                _fail(lineno, f"non-finite value: {stripped!r}")
            vals[seen] = value
        seen += 1
    if seen != nnz:
        _fail(lineno, f"declared {nnz} entries but found {seen}")

    if symmetry == "symmetric":
        off_diag = rows != cols
        mirror_rows, mirror_cols, mirror_vals = cols[off_diag], rows[off_diag], vals[off_diag]
        rows = np.concatenate((rows, mirror_rows))
        cols = np.concatenate((cols, mirror_cols))
        vals = np.concatenate((vals, mirror_vals))
    return COOMatrix((nrows, ncols), rows, cols, vals)


def write_matrix_market(
    matrix: COOMatrix, destination: Union[str, Path, io.TextIOBase]
) -> None:
    """Write a :class:`COOMatrix` as a ``general real`` coordinate file."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as handle:
            write_matrix_market(matrix, handle)
        return

    dedup = matrix.canonical()
    destination.write("%%MatrixMarket matrix coordinate real general\n")
    destination.write(f"{dedup.nrows} {dedup.ncols} {dedup.nnz}\n")
    for r, c, v in zip(dedup.rows, dedup.cols, dedup.vals):
        destination.write(f"{int(r) + 1} {int(c) + 1} {float(v):.17g}\n")
