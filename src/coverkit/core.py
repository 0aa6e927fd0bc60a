"""Domain types shared by every module: parameter specs, symbol matrices,
and the elementary row transforms (complement, dedup).

A ``SymbolMatrix`` is an N x n array over the alphabet {0, ..., q-1}: each
row, a test vector (a ground-set element in the cover-free reading), is
``bytes``, a byte a symbol, and column j is the block B_j, so for q = 2
it is an incidence matrix. All types are immutable; transforms return
new values. This module alone owns the alphabet: ``CffSpec.q`` is always
2, only ``decode_row`` and ``encode_row`` read and write the base-36
digits that stand for symbols, only ``_digits`` turns a rank into a row,
and only ``_column_index`` reads symbol bytes as one bitset per symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import ClassVar, Iterable, Sequence

from .errors import AlphabetError, ParameterError, ResourceLimitError

# File format and repr encode one symbol per character; q is capped where
# the digit alphabet ends. _ENCODE maps a symbol's byte to its digit's,
# _DECODE a digit's byte to its symbol's and any other byte to 255, and
# _SYMBOLS[:q] holds the symbols below q. _ONE_AT[c], ``_column_index``'s
# table, maps byte c to the binary digit "1" and every other byte to "0".
SYMBOL_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_ALPHABET = len(SYMBOL_DIGITS)
_SYMBOLS = bytes(range(MAX_ALPHABET))
_ENCODE = SYMBOL_DIGITS.encode().ljust(256)
_DECODE = bytes(SYMBOL_DIGITS.find(chr(b)) & 255 for b in range(256))
_ONE_AT = [bytes(48 + (b == c) for b in range(256)) for c in range(MAX_ALPHABET)]

# In ``_work``'s units, about a bit operation of big-integer arithmetic each,
# 2**35 is a few seconds; 2**20 more admits 2**24 patterns on a few rows.
WORK_BUDGET = 2**35 + 2**20


def _column_index(q: int, columns: Iterable[bytes]) -> tuple[list[list[int]], int]:
    """(index, size) for ``size`` items, where bit i of the int
    ``index[j][c]`` is set when byte i of the j-th of ``columns`` is c.

    A column holds one byte per item: the symbol the item holds there, or q
    for none. The sets of one column are disjoint, so their sum is their
    union. Each set is one ``translate`` and one ``int(..., 2)`` in C, and
    the columns are taken one at a time, so a lazy ``columns`` keeps
    O(size) bytes alive besides the index.
    """
    index, size = [], 0
    for column in columns:
        size = len(column)
        digits = column[::-1]  # item 0 is the last digit
        index.append([int(digits.translate(_ONE_AT[c]) or b"0", 2) for c in range(q)])
    return index, size


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
    q: ClassVar[int] = 2  # cover-free families are binary; not a field

    def __post_init__(self) -> None:
        _check_shape(self.n, self.q)
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


def _power_bounds(base: int, k: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= base**k <= hi * 2**e, by square and
    multiply, rounding lo down and hi up to ``bits`` bits after each step."""
    lo = hi = 1
    e = 0
    for bit in bin(k)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi = lo * base, hi * base
        cut = hi.bit_length() - bits
        if cut > 0:
            lo, hi, e = lo >> cut, -(-hi >> cut), e + cut
    return lo, hi, e


def _power_below(m: int, a: int, b: int, k: int) -> bool:
    """Whether m * a**k < b**k, for 0 <= a < b, decided exactly.

    The two powers are bounded at rising precision until the bounds settle
    the comparison; at worst the precision reaches the powers' own size,
    where the bounds are the exact values. So the cost follows how close
    the two sides are, not the size of the powers.
    """
    bits = 64
    while True:
        a_lo, a_hi, ae = _power_bounds(a, k, bits)
        b_lo, b_hi, be = _power_bounds(b, k, bits)
        e = min(ae, be)
        if (m * a_hi) << (ae - e) < b_lo << (be - e):
            return True
        if (m * a_lo) << (ae - e) >= b_hi << (be - e):
            return False
        bits *= 2


def greedy_row_bound(num_constraints: int, covered: int, whole: int) -> int:
    """Rows needed when every row covers at least the fraction covered/whole
    of what remains: the least k with M * (whole - covered)**k < whole**k for
    M constraints, in exact integers. In real arithmetic this is
    floor(ln M / -ln(1 - c)) + 1. M <= 1 or a rate of 1 means one row."""
    if num_constraints <= 1 or covered >= whole:
        return 1
    # Bisect: ln M < M.bit_length() and c < -ln(1 - c), so hi rows are
    # enough, and no rows (lo) are not, as M > 1.
    lo, hi = 0, num_constraints.bit_length() * whole // covered + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _power_below(num_constraints, whole - covered, whole, mid):
            hi = mid
        else:
            lo = mid
    return hi


def derandomized_size_bound(spec: CffSpec) -> int:
    """The guaranteed row-count bound of the derandomized constructor."""
    r, s, d = spec.r, spec.s, spec.d
    # c = p**r (1-p)**s at p = r/d; 0**0 == 1 covers the edges
    return greedy_row_bound(_num_constraints(spec), r**r * s**s, d**d)


def universal_greedy_size_bound(spec: UniversalSpec) -> int:
    """Guaranteed row bound of the direct greedy:
    floor(ln(C(n,d) q**d) / -ln(1 - q**-d)) + 1."""
    return greedy_row_bound(_num_constraints(spec), 1, spec.q**spec.d)


def _binomial_exponent(spec: UniversalSpec | CffSpec) -> int:
    """k with 2**k <= C(n, d), or C(n, r) C(n - r, s), <= n**k: the sum of
    min(j, m - j) over its binomials C(m, j)."""
    n, d = spec.n, spec.d
    if isinstance(spec, UniversalSpec):
        return min(d, n - d)
    return min(spec.r, n - spec.r) + min(spec.s, n - d)


def _work(spec: UniversalSpec | CffSpec, op: str, rows: int) -> int:
    """The estimated work of ``op`` on ``spec``, an exact integer. With M
    constraints and the greedy row bound R:

    * "construct": n q M index bits, with 2**11 per column and d-subset or
      R, an interpreter step the index no longer takes, kept until the
      estimate is refitted (ROADMAP.md, item 3); and a pass over the bits
      for each of max(R, ``rows``) rows; a Las Vegas run takes at least its
      batch, and about R, and draws and records each of its ``rows`` at
      2**11 a column and 15 * 2**11 a row. The self-verify is checked apart.
    * "verify" of ``rows`` rows: if there are any, 2**14 and 2**8 a row
      for each d-subset and 2**11 for each of the q**d patterns, or 2**11
      and 1 a row for each (R, S) pair; an empty matrix is not scanned.
      Either family adds 2**12 for each of the d columns of the first
      witness, which a verdict on an empty matrix builds and the CLI
      prints without a scan.
    * "search": q**n cover masks, kept and rescanned, at 2**9 a bit and
      2**14 a candidate, a mask laid out by ``oracle._layout``: a field per
      d-subset of the power of two at or above its g = q**d or C(r + s, r)
      patterns (M bits in all where g is a power of two).
    * "count": the constraint count built whole, C(n, d) q**d or C(n, r)
      C(n - r, s), of b <= k n.bit_length() + d q.bit_length() bits for the
      k of ``_binomial_exponent`` (no q**d for a cover-free family), at
      b**2 / 2**9.
    """
    n, d, universal = spec.n, spec.d, isinstance(spec, UniversalSpec)
    if op == "count":
        bits = _binomial_exponent(spec) * n.bit_length() + (d * spec.q.bit_length() if universal else 0)
        return bits**2 >> 9
    if op == "verify" and universal:
        return ((comb(n, d) * (rows + 2**6) + 8 * spec.q**d if rows else 0) + 16 * d) << 8
    if op == "verify":
        return (_num_constraints(spec) * (rows + 2**11) if rows else 0) + (d << 12)
    q, m = spec.q, _num_constraints(spec)
    if op == "search":
        g = q**d if universal else comb(d, spec.r)
        return q**n * ((comb(n, d) << (g - 1).bit_length()) + 2**5) << 9
    bound = universal_greedy_size_bound(spec) if universal else derandomized_size_bound(spec)
    subsets = comb(n, d if universal else spec.r)
    return ((max(rows, bound) + 1) * q * m + (subsets << 11)) * n + (rows * (n + 15) << 11)


def _check_work(spec: UniversalSpec | CffSpec, op: str, rows: int = 0) -> None:
    """Raise ResourceLimitError if ``_work`` exceeds WORK_BUDGET: at once if
    2**e does, a lower bound from bit lengths alone (``_binomial_exponent``,
    q >= 2**(q.bit_length() - 1)), before any big count is built. A
    "count" estimate is a small integer, so it needs no such bound."""
    n, d, universal = spec.n, spec.d, isinstance(spec, UniversalSpec)
    log_q = spec.q.bit_length() - 1
    steps = _binomial_exponent(spec)
    patterns = d * log_q if universal else 0
    e = {"verify": 11 + (max(steps, patterns) if rows else 0),
         "search": n * log_q + max(steps + patterns, 5) + 9,
         "construct": n.bit_length() - 1 + log_q + steps + patterns,
         "count": 0}[op]
    if e < WORK_BUDGET.bit_length():
        work = _work(spec, op, rows)
        if work <= WORK_BUDGET:
            return
        e = work.bit_length() - 1
    raise ResourceLimitError(f"estimated work of at least 2**{e} exceeds the budget of {WORK_BUDGET}")


def _check_row(row: Sequence[int], n: int, q: int, index: int) -> bytes:
    """The row as n bytes, a symbol each: an int but not a bool, in 0..q-1.
    A ``bytes`` row, or one of exact ints, passes by one ``translate``; any
    other row is scanned symbol by symbol, naming the first bad one."""
    t = row if type(row) is bytes else tuple(row)
    if len(t) != n:
        raise ParameterError(f"row {index} has {len(t)} entries, expected {n}")
    try:
        if type(t) is bytes or {int}.issuperset(map(type, t)):
            if not bytes(t).translate(None, _SYMBOLS[:q]):
                return bytes(t)  # the row itself if it is bytes
    except ValueError:  # an int outside 0..255
        pass
    for sym in t:
        if not isinstance(sym, int) or isinstance(sym, bool) or not 0 <= sym < q:
            raise AlphabetError(f"row {index} contains symbol {sym!r} outside 0..{q - 1}")
    return bytes(t)


@dataclass(frozen=True)
class SymbolMatrix:
    """Immutable N x n matrix of symbols over {0, ..., q-1}.

    Rows are a sequence, so duplicates are representable; the covering
    properties are defined on the row set and dedup is always explicit.
    The constructor checks every row, whatever built it, and stores it as
    ``bytes``, one byte a symbol; nothing is checked later.
    """

    n: int
    q: int
    rows: tuple[bytes, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_shape(self.n, self.q)
        object.__setattr__(
            self,
            "rows",
            tuple(_check_row(row, self.n, self.q, i) for i, row in enumerate(self.rows)),
        )

    @classmethod
    def from_strings(cls, rows: Iterable[str], *, q: int = 2, n: int | None = None) -> "SymbolMatrix":
        """Build from digit strings like "0110" (base-36 digits for q > 10);
        ``n`` is required only when ``rows`` is empty. The constructor checks
        the shape, then decodes and checks each row in turn."""
        texts = list(rows)
        if not texts and n is None:
            raise ParameterError("empty matrix needs an explicit n")
        n = len(texts[0]) if n is None else n
        return cls(n, q, (decode_row(text, q, where=f"row {i}") for i, text in enumerate(texts)))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row_strings(self) -> list[str]:
        return list(map(encode_row, self.rows))

    def __repr__(self) -> str:
        shown = ",".join(map(encode_row, self.rows[:8]))
        if self.num_rows > 8:
            shown += ",..."
        return f"SymbolMatrix(n={self.n}, q={self.q}, rows[{self.num_rows}]=[{shown}])"


def decode_row(text: str, q: int, *, where: str, error=AlphabetError) -> bytes:
    """The symbols of a string of base-36 digits, one byte each, decoded in C
    for q <= MAX_ALPHABET; raises ``error``, after ``where``, at the first
    non-digit or symbol outside 0..q-1."""
    if text.isascii():
        row = text.encode().translate(_DECODE)
        if not row.translate(None, _SYMBOLS[:q]):
            return row
    for ch in text:
        sym = SYMBOL_DIGITS.find(ch)
        if not 0 <= sym < q:
            what = f"{ch!r} is not a symbol digit" if sym < 0 else f"symbol {sym} out of range for q={q}"
            raise error(f"{where}: {what}")


def encode_row(row: Sequence[int]) -> str:
    """The base-36 digit string of a row of symbols, encoded in C."""
    return bytes(row).translate(_ENCODE).decode()


def _digits(rank: int, q: int, n: int) -> tuple[int, ...]:
    """The n base-q digits of ``rank``, most significant first: the row of
    that rank in ``product(range(q), repeat=n)`` order."""
    digits = [0] * n
    for k in reversed(range(n)):
        rank, digits[k] = divmod(rank, q)
    return tuple(digits)


# _FLIP maps each binary symbol's byte to the other's.
_FLIP = bytes.maketrans(_SYMBOLS[:CffSpec.q], _SYMBOLS[CffSpec.q - 1::-1])


def complement(m: SymbolMatrix) -> SymbolMatrix:
    """Flip every bit of a binary matrix, one ``translate`` a row; row
    order is preserved.

    Sends an (n, (r, s))-cover-free family to an (n, (s, r)) one, and is an
    involution.
    """
    if m.q != CffSpec.q:
        raise AlphabetError(f"complement needs a binary matrix, got q = {m.q}")
    rows = tuple(row.translate(_FLIP) for row in m.rows)
    return SymbolMatrix(n=m.n, q=CffSpec.q, rows=rows)


def dedup_rows(m: SymbolMatrix) -> SymbolMatrix:
    """Drop duplicate rows, keeping the first occurrence in order."""
    return SymbolMatrix(n=m.n, q=m.q, rows=tuple(dict.fromkeys(m.rows)))
