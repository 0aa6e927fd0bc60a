"""Text persistence for symbol matrices.

A document is one header line followed by one line per row:

    kind=universal n=4 q=2 rows=6 d=2 method=lemma1+derand
    0000
    ...

Header keys come in the fixed order kind, n, q, rows, then any optional
keys (d, method, r, s, seed) alphabetically. Rows are strings of base-36
digits, one symbol per character ('a' is symbol 10). Lines end with LF and
the document carries a trailing newline; there is no other whitespace.

``read_array`` is strict: it accepts a header line only if it is the line
``write_array`` emits for the header it names, validates every invariant
before building a matrix, and names the offending line in each diagnostic.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .core import CffSpec, SymbolMatrix, UniversalSpec, _check_shape, decode_row
from .errors import ConsistencyError, FormatError, ParameterError

KINDS = ("universal", "cff", "raw")

_FIXED_KEYS = ("kind", "n", "q", "rows")
OPTIONAL_KEYS = ("d", "method", "r", "s", "seed")
_REQUIRED_BY_KIND = {"universal": ("d",), "cff": ("r", "s"), "raw": ()}
_INT_KEYS = {"n", "q", "rows", "d", "r", "s", "seed"}


@dataclass(frozen=True)
class ArrayFileHeader:
    """Metadata line of an array document."""

    kind: str
    n: int
    q: int
    rows: int
    d: int | None = None
    r: int | None = None
    s: int | None = None
    method: str | None = None
    seed: int | None = None


def _validate_header(header: ArrayFileHeader, *, where: str = "header") -> None:
    if header.kind not in KINDS:
        raise FormatError(f"{where}: unknown kind {header.kind!r}")
    required = _REQUIRED_BY_KIND[header.kind]
    for key in ("d", "r", "s"):
        value = getattr(header, key)
        if key in required and value is None:
            raise FormatError(f"{where}: kind={header.kind} requires key {key}")
        if key not in required and value is not None:
            raise FormatError(f"{where}: key {key} is not allowed for kind={header.kind}")
    try:
        _check_shape(header.n, header.q)
        if header.kind == "universal":
            UniversalSpec(header.n, header.d, header.q)
        elif header.kind == "cff":
            CffSpec(header.n, header.r, header.s)
    except ParameterError as exc:
        raise FormatError(f"{where}: {exc}") from None
    if header.rows < 0:
        raise FormatError(f"{where}: rows must be non-negative, got {header.rows}")
    if header.kind == "cff" and header.q != CffSpec.q:
        raise FormatError(f"{where}: kind=cff requires q={CffSpec.q}, got q={header.q}")
    if header.method is not None:
        if not header.method or any(ch.isspace() or ch == "=" for ch in header.method):
            raise FormatError(
                f"{where}: method must be a non-empty token without spaces or '='"
            )


def _header_line(header: ArrayFileHeader) -> str:
    pairs = ((key, getattr(header, key)) for key in _FIXED_KEYS + OPTIONAL_KEYS)
    return " ".join(f"{key}={value}" for key, value in pairs if value is not None)


def write_array(m: SymbolMatrix, header: ArrayFileHeader) -> str:
    """Serialize matrix and header; raises ConsistencyError on mismatch."""
    try:
        _validate_header(header)
    except FormatError as exc:
        raise ConsistencyError(str(exc)) from None
    if header.n != m.n or header.q != m.q or header.rows != m.num_rows:
        raise ConsistencyError(
            f"header (n={header.n}, q={header.q}, rows={header.rows}) does not match "
            f"matrix (n={m.n}, q={m.q}, rows={m.num_rows})"
        )
    lines = [_header_line(header)]
    lines.extend(m.row_strings())
    lines.append("")  # the trailing newline, without a second copy of the text
    return "\n".join(lines)


def _parse_header_line(line: str) -> ArrayFileHeader:
    """The header ``line`` names, accepted only as ``write_array`` emits it."""
    where = "line 1"
    fields: dict[str, object] = {}
    for token in line.split(" "):
        key, _, value = token.partition("=")
        if key not in _FIXED_KEYS and key not in OPTIONAL_KEYS:
            raise FormatError(f"{where}: unknown key {key!r} in token {token!r}")
        try:
            fields[key] = int(value) if key in _INT_KEYS else value
        except ValueError:
            raise FormatError(f"{where}: key {key} needs an integer, got {value!r}") from None
    if not fields.keys() >= set(_FIXED_KEYS):
        raise FormatError(f"{where}: header needs the keys {', '.join(_FIXED_KEYS)}")
    header = ArrayFileHeader(**fields)  # type: ignore[arg-type]
    _validate_header(header, where=where)
    canonical = _header_line(header)
    if line != canonical:
        raise FormatError(f"{where}: header must read {canonical!r}")
    return header


def read_array(text: str) -> tuple[SymbolMatrix, ArrayFileHeader]:
    """Parse a document; inverse of write_array on valid input."""
    if not text.endswith("\n"):
        raise FormatError("end of input: missing trailing newline")
    lines = text.split("\n")[-2::-1]  # reversed, less the final "": a popped line is freed once decoded
    header = _parse_header_line(lines.pop())
    if len(lines) < header.rows:
        raise FormatError(
            f"end of input: header declares rows={header.rows} but found {len(lines)} row lines"
        )
    if len(lines) > header.rows:
        raise FormatError(
            f"line {header.rows + 2}: header declares rows={header.rows} "
            f"but extra content follows"
        )
    rows = []
    for i in range(2, header.rows + 2):
        line = lines.pop()
        if len(line) != header.n:
            raise FormatError(f"line {i}: row has {len(line)} symbols, expected n={header.n}")
        rows.append(decode_row(line, header.q, where=f"line {i}", error=FormatError))
    return SymbolMatrix(header.n, header.q, tuple(rows)), header


def save_array(path: str | Path, m: SymbolMatrix, header: ArrayFileHeader) -> None:
    """Write a document atomically (temp file in place, then rename)."""
    target = Path(path)
    text = write_array(m, header)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_array(path: str | Path) -> tuple[SymbolMatrix, ArrayFileHeader]:
    """Read a UTF-8 document; a byte that is not UTF-8 is a FormatError."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"line {line}: byte {data[exc.start]:#04x} is not UTF-8 text") from None
    return read_array(text)
