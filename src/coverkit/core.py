"""Domain types shared by every module: parameter specs, symbol matrices,
and the elementary row transforms (complement, dedup).

A ``SymbolMatrix`` is an N x n array over the alphabet {0, ..., q-1}. Rows
are test vectors (ground-set elements in the cover-free reading); column j
is the block B_j, so for q = 2 the matrix is an incidence matrix. All types
here are immutable; transforms return new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

from .errors import AlphabetError, ParameterError, ResourceLimitError

# File format and repr encode one symbol per character; q is capped where
# the digit alphabet ends.
SYMBOL_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_ALPHABET = len(SYMBOL_DIGITS)

# Hard cap on the number of constraints a constructor or the oracle tracks.
CONSTRAINT_CAP = 2**26


def _check_shape(n: int, q: int) -> None:
    """Raise ParameterError unless there is a column (n >= 1) and q is an
    alphabet size the digit alphabet can write."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if not 2 <= q <= MAX_ALPHABET:
        raise ParameterError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {q}")


@dataclass(frozen=True)
class UniversalSpec:
    """Names an (n, d)-universal-set requirement over a q-symbol alphabet.

    n: number of coordinates, d: strength, q: alphabet size.
    """

    n: int
    d: int
    q: int = 2

    def __post_init__(self) -> None:
        _check_shape(self.n, self.q)
        if not 1 <= self.d <= self.n:
            raise ParameterError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")


@dataclass(frozen=True)
class CffSpec:
    """Names an (n, (r, s))-cover-free-family requirement on n blocks."""

    n: int
    r: int
    s: int

    def __post_init__(self) -> None:
        _check_shape(self.n, 2)  # cover-free families are binary
        if self.r < 0 or self.s < 0:
            raise ParameterError(f"r and s must be non-negative, got ({self.r}, {self.s})")
        if not 1 <= self.r + self.s <= self.n:
            raise ParameterError(
                f"need 1 <= r+s <= n, got r+s={self.r + self.s}, n={self.n}"
            )

    @property
    def d(self) -> int:
        """Combined cover order r + s."""
        return self.r + self.s


def _num_constraints(spec: UniversalSpec | CffSpec) -> int:
    """C(n, d) q**d (columns, pattern) pairs, or C(n, r) C(n - r, s) (R, S) pairs."""
    if isinstance(spec, UniversalSpec):
        return comb(spec.n, spec.d) * spec.q**spec.d
    return comb(spec.n, spec.r) * comb(spec.n - spec.r, spec.s)


def _power_over(base: int, k: int, cap: int) -> bool:
    """Whether base**k > cap for base >= 2, without a power past the cap."""
    return k >= cap.bit_length() or base**k > cap


def _check_constraint_cap(spec: UniversalSpec | CffSpec) -> None:
    """Raise ResourceLimitError if ``spec`` has more than CONSTRAINT_CAP
    constraints. q**d >= 2**d and C(n, k) >= 2**min(k, n - k), so a spec
    whose exponents sum past the cap's is refused before any count is built;
    below that, every factor is a small binomial or power."""
    if isinstance(spec, UniversalSpec):
        exponent = min(spec.d, spec.n - spec.d) + spec.d
    else:
        exponent = min(spec.r, spec.n - spec.r) + min(spec.s, spec.n - spec.d)
    if exponent >= CONSTRAINT_CAP.bit_length():
        size = f"at least 2**{exponent}"
    elif (count := _num_constraints(spec)) > CONSTRAINT_CAP:
        try:
            size = str(count)
        except ValueError:  # more digits than the interpreter will print
            size = f"at least 2**{count.bit_length() - 1}"
    else:
        return
    raise ResourceLimitError(f"constraint set of size {size} exceeds the cap of {CONSTRAINT_CAP}")


def _check_row(row: Sequence[int], n: int, q: int, index: int) -> tuple[int, ...]:
    t = tuple(row)
    if len(t) != n:
        raise ParameterError(f"row {index} has {len(t)} entries, expected {n}")
    for sym in t:
        if not isinstance(sym, int) or isinstance(sym, bool) or not 0 <= sym < q:
            raise AlphabetError(f"row {index} contains symbol {sym!r} outside 0..{q - 1}")
    return t


@dataclass(frozen=True)
class SymbolMatrix:
    """Immutable N x n matrix of symbols over {0, ..., q-1}.

    Rows are a sequence, so duplicates are representable; the covering
    properties are defined on the row set and dedup is always explicit.
    Symbols are validated at construction, never later.
    """

    n: int
    q: int
    rows: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        _check_shape(self.n, self.q)
        object.__setattr__(
            self,
            "rows",
            tuple(_check_row(row, self.n, self.q, i) for i, row in enumerate(self.rows)),
        )

    @classmethod
    def from_strings(cls, rows: Iterable[str], *, q: int = 2, n: int | None = None) -> "SymbolMatrix":
        """Build from digit strings like "0110" (base-36 digits for q > 10).

        ``n`` is required only when ``rows`` is empty.
        """
        decoded = []
        for i, text in enumerate(rows):
            decoded.append(tuple(decode_symbol(ch, q, where=f"row {i}") for ch in text))
        if not decoded:
            if n is None:
                raise ParameterError("empty matrix needs an explicit n")
            return cls(n=n, q=q, rows=())
        return cls(n=len(decoded[0]) if n is None else n, q=q, rows=tuple(decoded))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row_string(self, i: int) -> str:
        return "".join(SYMBOL_DIGITS[sym] for sym in self.rows[i])

    def row_strings(self) -> list[str]:
        return [self.row_string(i) for i in range(self.num_rows)]

    def __repr__(self) -> str:
        shown = ",".join(self.row_strings()[:8])
        if self.num_rows > 8:
            shown += ",..."
        return f"SymbolMatrix(n={self.n}, q={self.q}, rows[{self.num_rows}]=[{shown}])"


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bitset(indices: Iterable[int], size: int) -> int:
    """The int with bit i set for each i in ``indices``, all below ``size``.

    Packed through one byte per bit: setting bits one at a time on a
    Python int copies it on every step, which is quadratic in ``size``.
    """
    flags = bytearray(size)
    for i in indices:
        flags[i] = 1
    return int(flags.translate(_BIT_DIGITS)[::-1], 2) if size else 0


def _column_index(
    n: int, q: int, items: Iterable[Iterable[tuple[int, int]]]
) -> tuple[list[list[int]], int]:
    """(index, size) for ``size`` items, where bit i of the int
    ``index[j][c]`` is set when item i holds symbol c at column j.

    An item is an iterable of (column, symbol) pairs on distinct columns: a
    constraint's requirements, or a row as ``enumerate(row)``. Over
    constraints, a row meets those requiring no other symbol at any of its
    columns; over rows, a constraint is met by the AND of its pairs' sets.
    The sets of one column are disjoint, so their sum is their union.
    """
    members: list[list[list[int]]] = [[[] for _ in range(q)] for _ in range(n)]
    size = 0
    for i, pairs in enumerate(items):
        for j, c in pairs:
            members[j][c].append(i)
        size = i + 1
    return [[_bitset(held, size) for held in column] for column in members], size


def decode_symbol(ch: str, q: int, *, where: str = "input") -> int:
    """Map a base-36 digit character back to a symbol, range-checked."""
    sym = SYMBOL_DIGITS.find(ch)
    if sym < 0:
        raise AlphabetError(f"{where}: {ch!r} is not a symbol digit")
    if sym >= q:
        raise AlphabetError(f"{where}: symbol {sym} out of range for q={q}")
    return sym


def complement(m: SymbolMatrix) -> SymbolMatrix:
    """Flip every bit of a binary matrix; row order is preserved.

    Sends an (n, (r, s))-cover-free family to an (n, (s, r)) one, and is an
    involution.
    """
    if m.q != 2:
        raise AlphabetError(f"complement needs a binary matrix, got q = {m.q}")
    return SymbolMatrix(
        n=m.n, q=2, rows=tuple(tuple(1 - bit for bit in row) for row in m.rows)
    )


def dedup_rows(m: SymbolMatrix) -> SymbolMatrix:
    """Drop duplicate rows, keeping the first occurrence in order."""
    seen: set[tuple[int, ...]] = set()
    kept = []
    for row in m.rows:
        if row not in seen:
            seen.add(row)
            kept.append(row)
    return SymbolMatrix(n=m.n, q=m.q, rows=tuple(kept))
