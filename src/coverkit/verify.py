"""Exhaustive, definitional verification of the universal-set and
cover-free properties, with concrete violation witnesses.

Both verifiers enumerate every constraint:

* universal: every d-subset S of columns must show all q**d patterns. The
  indices S shows on all rows are one sum of packed columns; where they fit
  a byte (q**d <= 256), one ``bytes.translate`` deletes them from the q**d
  indices and leaves the missing ones, and wider indices go into a ``set``;
* cover-free: every disjoint pair (R, S) with |R| = r, |S| = s must have a
  row that is all-1 on R and all-0 on S. Where a cost estimate on (n, r,
  s, rows) favours it and its memory fits a cap, every S of one R is
  counted in a few big-int operations over one packed field per s-subset;
  otherwise, on wide rows or where C(n, s) far outnumbers the C(n - r, s)
  pairs of one R, by one AND of row bitsets per pair. Either form lists a
  failing R's witnesses pair by pair, by that AND.

A count sums how many constraints each subset or R misses; only a verdict
builds a witness.

Edge conventions for the cover-free check: r = 0 reads the empty
intersection as the full ground set, so the requirement becomes "some row
is all-0 on S"; s = 0 symmetrically requires "some row is all-1 on R".
These conventions are exactly what makes the universal/cover-free bridge
hold for the all-zero and all-one patterns.

Violated verdicts always carry the lexicographically first failing
constraint so they are deterministic and testable.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product, repeat
from math import comb
from typing import Container, Iterable, Iterator, Literal, Union

from .core import MAX_ALPHABET, CffSpec, SymbolMatrix, UniversalSpec, _check_work, _num_constraints
from .errors import AlphabetError, ParameterError


@dataclass(frozen=True)
class UniversalWitness:
    """A d-subset of columns and the pattern missing from its projection."""

    columns: tuple[int, ...]
    pattern: tuple[int, ...]


@dataclass(frozen=True)
class CffWitness:
    """Disjoint column sets (R, S) no row separates (all-1 on R, all-0 on S)."""

    r_columns: tuple[int, ...]
    s_columns: tuple[int, ...]


Witness = Union[UniversalWitness, CffWitness]

# A group of missed constraints, one subset's or one R's: how many, and a
# lazy iterator that builds their witnesses in order as it is read.
Missed = tuple[int, Iterator[Witness]]


@dataclass(frozen=True)
class Verdict:
    status: Literal["valid", "violated"]
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if (self.status == "violated") != (self.witness is not None):
            raise ParameterError("witness must be present exactly when violated")

    @property
    def valid(self) -> bool:
        return self.status == "valid"


_VALID = Verdict("valid")


def _missing_universal(m: SymbolMatrix, spec: UniversalSpec) -> Iterator[Missed]:
    """Every (columns, pattern) pair ``m`` misses, in (subset, then pattern)
    order, grouped by subset: each subset that misses any, with how many.

    Each column is packed into one Python int with a fixed-width field per
    row, holding that row's symbol at the column: 1, 2 or 4 bytes, the
    fewest that hold q**d - 1, laid out as a native array of unsigned ints.
    The pattern index of subset S on every row, sum(symbol at S[k] *
    q**(d-1-k)), is then one big-int sum of scaled columns, since no field
    can carry into the next; its fields are the indices S shows, and S
    misses the patterns whose rank in ``product`` order is not among them.
    With 1-byte fields (q**d <= 256), deleting the sum's bytes from
    ``bytes(range(q**d))`` with one ``translate`` leaves exactly those
    ranks. Wider fields are read back through ``memoryview.cast`` into a
    ``set``, and S misses q**d less its size. A count builds no witness;
    ``_unshown`` lists S's from the bytes or the set. The sums over each
    head S[:d-1] are shared across ``combinations`` order, so most subsets
    cost one add. A subset holds O(rows) bytes, whatever q**d is.
    The widest field holds indices below 2**32: ``_missing`` runs this only
    within WORK_BUDGET, which charges 2**11 a pattern, so q**d <= 2**24.
    """
    q, n, rows, d = m.q, m.n, m.rows, spec.d
    total = q**d
    code = "B" if total <= 1 << 8 else "H" if total <= 1 << 16 else "I"
    # The same native byte order on both sides, so wider fields read back whole.
    order = sys.byteorder
    size = len(rows) * array(code).itemsize
    columns = [int.from_bytes(array(code, col).tobytes(), order) for col in zip(*rows)]
    powers = [q**k for k in reversed(range(d))]
    every = bytes(range(total)) if code == "B" else None
    # partial[k]: the sum over the current head's first k columns; a head
    # keeps those of the last head up to the first column where they differ.
    partial = [0] * d
    last_head = (-1,) * (d - 1)
    for head in combinations(range(n - 1), d - 1):
        k = 0
        while k < d - 2 and head[k] == last_head[k]:
            k += 1
        for k in range(k, d - 1):
            partial[k + 1] = partial[k] + columns[head[k]] * powers[k]
        last_head, base = head, partial[-1]
        # The last column of S has weight q**0.
        for j in range(head[-1] + 1 if head else 0, n):
            fields = (base + columns[j]).to_bytes(size, order)
            if every:
                missing = every.translate(None, fields)
                if missing:
                    yield len(missing), _unshown(head + (j,), q, fields)
                continue
            shown = set(memoryview(fields).cast(code))
            if len(shown) < total:
                yield total - len(shown), _unshown(head + (j,), q, shown)


def _unshown(S: tuple[int, ...], q: int, shown: Container[int]) -> Iterator[UniversalWitness]:
    """The witnesses of the patterns on ``S`` whose rank is not in ``shown``."""
    for idx, pattern in enumerate(product(range(q), repeat=len(S))):
        if idx not in shown:
            yield UniversalWitness(S, pattern)


# _ONE_AT[c] maps byte c to the digit "1" and every other byte to "0".
_ONE_AT = [bytes(48 + (b == c) for b in range(256)) for c in range(MAX_ALPHABET)]


def _column_index(q: int, columns: Iterable[bytes]) -> tuple[list[list[int]], int]:
    """(index, size) for ``size`` items, where bit i of the int
    ``index[j][c]`` is set when byte i of the j-th of ``columns`` is c.

    A column holds one byte per item: the symbol the item requires or holds
    there, or q for none. Over constraints, a row meets those requiring no
    other symbol at any of its columns; over rows, a constraint is met by
    the AND of its requirements' sets. The sets of one column are disjoint,
    so their sum is their union. Each set is one ``translate`` and one
    ``int(..., 2)`` in C, and the columns are taken one at a time, so a lazy
    ``columns`` keeps O(size) bytes alive besides the index.
    """
    index, size = [], 0
    for column in columns:
        size = len(column)
        digits = column[::-1]  # item 0 is the last digit
        index.append([int(digits.translate(_ONE_AT[c]) or b"0", 2) for c in range(q)])
    return index, size


def _cff_columns(n: int, r: int, s: int) -> Iterator[bytes]:
    """Each column's byte per (R, S) pair, in ``_missing_cff`` order: 1 where
    it is in R, 0 where it is in S, else 2. Per R, a column in R has a block
    of C(n - r, s) ones; any other has the mask of its rank among the
    columns outside R."""
    ones, rest = b"\1" * comb(n - r, s), range(n - r)
    masks = [bytes(0 if t in S else 2 for S in combinations(rest, s)) for t in rest]
    for j in range(n):
        yield b"".join(
            ones if j in R else masks[j - bisect_left(R, j)] for R in combinations(range(n), r)
        )


def _universal_columns(n: int, d: int, q: int) -> Iterator[bytes]:
    """Each column's byte per (columns, pattern) pair, in
    ``_missing_universal`` order: digit k of the pattern where it is S[k],
    else q."""
    digits = [bytes(p[k] for p in product(range(q), repeat=d)) for k in range(d)]
    none = bytes([q]) * q**d
    for j in range(n):
        yield b"".join(
            digits[S.index(j)] if j in S else none for S in combinations(range(n), d)
        )


def _constraint_index(spec: UniversalSpec | CffSpec) -> tuple[list[list[int]], int]:
    """``_column_index`` over the constraints of ``spec``: bit i is the i-th
    constraint its verifier scans."""
    if isinstance(spec, UniversalSpec):
        return _column_index(spec.q, _universal_columns(spec.n, spec.d, spec.q))
    return _column_index(spec.q, _cff_columns(spec.n, spec.r, spec.s))


def _row_index(m: SymbolMatrix) -> tuple[list[list[int]], int]:
    """``_column_index`` over the rows of ``m``: bit i is row i."""
    return _column_index(m.q, map(bytes, zip(*m.rows)) if m.rows else [b""] * m.n)


def _missing_cff(m: SymbolMatrix, spec: CffSpec) -> Iterator[Missed]:
    """Every (R, S) pair no row of ``m`` separates, in (R, then S) order.

    ``_row_index`` is built once; the rows all-1 on R are the AND of its
    sets over R, and those all-0 on S the AND over S. ``_packs`` then picks
    ``_packed_cff``, which answers every S of one R in a few big-int
    operations, or ``_pairwise_cff``, one AND per pair; both give the same
    groups, so the choice moves only time and memory.
    """
    index, size = _row_index(m)
    n, r, s = spec.n, spec.r, spec.s
    form = _packed_cff if _packs(n, r, s, size) else _pairwise_cff
    return form(index, size, n, r, s)


# The packed form keeps at most n + 6 ints of its block's size alive. It
# runs only while n + 7 of them fit in _PACKED_CAP bytes, the one more for
# the index and the rest; an int takes 16 bytes for each 15 it holds, as
# CPython stores 30 bits in each 4-byte digit.
_PACKED_CAP = 2**24


def _packs(n: int, r: int, s: int, rows: int) -> bool:
    """Whether ``_packed_cff`` should scan the (n, (r, s)) pairs of ``rows``
    rows: it fits the cap and is estimated to cost less than the per-pair
    loop. It loses on wide rows, and where C(n, s) is much more than the
    C(n - r, s) pairs of one R.

    Both estimates are in units of 1/100 ns, with terms fitted on random
    matrices of 4 to 6,000 rows and specs from (10, (7, 3)) to (200,
    (1, 1)) (CPython 3.11, 2 vCPUs); on those, the form picked took at most
    1.1x the time of the other.
    """
    width, fields, heads = rows // 8 + 1, comb(n, s), comb(n, r)
    # Per R, the loop lists the columns outside R; per pair, it takes an
    # interpreter step and an AND per column of S.
    pairwise = heads * (15000 * n + comb(n - r, s) * (10000 + s * (7000 + 2 * width)))
    # Each field is packed and each column's set repeated once; per R, a few
    # passes over the block.
    packed = fields * (100000 + 130 * n * width) + heads * (50000 + 135 * fields * width)
    return (n + 7) * fields * width * 16 <= _PACKED_CAP * 15 and packed < pairwise


def _pairwise_cff(index: list[list[int]], size: int, n: int, r: int, s: int) -> Iterator[Missed]:
    """``_missing_cff`` by one AND per pair: each pair no row separates is
    a group of its own, so a verdict stops at the first."""
    full = (1 << size) - 1
    for R in combinations(range(n), r):
        for S in _unseparated(index, full, n, R, s):
            yield 1, map(CffWitness, (R,), (S,))


def _unseparated(index: list[list[int]], full: int, n: int, R: tuple, s: int) -> Iterator[tuple]:
    """The s-subsets S outside R, in ``combinations`` order, that no row
    separates from R: the AND of R's rows all-1 and S's rows all-0 is empty."""
    on_R = full
    for j in R:
        on_R &= index[j][1]
    for S in combinations([j for j in range(n) if j not in R], s):
        separated = on_R
        for j in S:
            separated &= index[j][0]
        if not separated:
            yield S


def _packed_cff(index: list[list[int]], size: int, n: int, r: int, s: int) -> Iterator[Missed]:
    """``_missing_cff`` by a few big-int operations per R, grouped by R.

    The block is one int with a field of ``width`` bytes per s-subset S of
    the columns, in ``combinations`` order: the rows all-0 on S, below a
    spare top bit. Each column's rows all-1 are repeated into every field of
    an int of the same size. Per R, ANDing the block with those of R leaves
    in each field the rows that separate (R, S); adding 2**size - 1 to every
    field carries into the spare bit exactly where one is left, and no field
    carries into the next. A field whose S meets R is always empty, so R
    misses C(n - r, s) less the spare bits set; its witnesses are listed by
    ``_unseparated`` once they are read. At most n + 6 ints of the block's
    size are alive at once.
    """
    width = size // 8 + 1
    full = (1 << size) - 1
    fields = comb(n, s)
    packed = bytearray()
    for S in combinations(range(n), s):
        zero = full
        for j in S:
            zero &= index[j][0]
        packed += zero.to_bytes(width, "little")
    block = int.from_bytes(packed, "little")
    del packed
    ones = [int.from_bytes(sets[1].to_bytes(width, "little") * fields, "little") for sets in index]
    spare = int.from_bytes(b"\1".ljust(width, b"\0") * fields, "little") << size
    fill = spare - (spare >> size)
    pairs = comb(n - r, s)
    for R in combinations(range(n), r):
        # sep: the rows that separate, plus 2**size - 1 per field; met: the
        # spare bits that carried. The last R's met is freed only once this
        # R's is built, so its pages are not handed back and faulted in again.
        sep = block
        for j in R:
            sep &= ones[j]
        sep += fill
        met = sep & spare
        missed = pairs - met.bit_count()
        if missed:
            yield missed, map(CffWitness, repeat(R), _unseparated(index, full, n, R, s))


def _missing(m: SymbolMatrix, spec: UniversalSpec | CffSpec) -> Iterator[Missed]:
    """Every constraint of ``spec``, a valid spec on the n and q of ``m``,
    that ``m`` misses, in its verifier's order and grouped as its kernel
    finds them, once ``_check_work`` admits the scan. An empty matrix misses
    them all: it gives one group of only the first, built once it is asked
    for, and ``count_uncovered`` counts it apart."""
    _check_work(spec, "verify", m.num_rows)
    if isinstance(spec, UniversalSpec):
        scan = _missing_universal
        first = _unshown(tuple(range(spec.d)), spec.q, ())
    else:
        scan = _missing_cff
        first = (CffWitness(tuple(range(r)), tuple(range(r, spec.d))) for r in [spec.r])
    return scan(m, spec) if m.rows else iter([(1, first)])


def _verdict(missing: Iterator[Missed]) -> Verdict:
    for _, witnesses in missing:
        return Verdict("violated", next(witnesses))
    return _VALID


def verify_universal(m: SymbolMatrix, d: int) -> Verdict:
    """Check that every d columns of ``m`` exhibit all q**d patterns.

    Returns a valid verdict, or the lexicographically first missing
    (columns, pattern) pair under (subset, then pattern) order.
    """
    return _verdict(_missing(m, UniversalSpec(m.n, d, m.q)))


def verify_cff(m: SymbolMatrix, r: int, s: int) -> Verdict:
    """Check the (n, (r, s)) cover-free property of a binary matrix.

    Returns a valid verdict, or the lexicographically first failing
    (R, S) pair.
    """
    if m.q != CffSpec.q:
        raise AlphabetError(f"cover-free check needs a binary matrix, got q = {m.q}")
    return _verdict(_missing(m, CffSpec(m.n, r, s)))


def count_uncovered(m: SymbolMatrix, spec: UniversalSpec | CffSpec) -> int:
    """Exact number of unmet constraints of ``m`` against ``spec``.

    Zero exactly when the corresponding verifier returns valid. An empty
    matrix meets none, so its count is the constraint count, not a scan,
    charged to the work budget before it is built.
    """
    if not isinstance(spec, (UniversalSpec, CffSpec)):
        raise ParameterError(f"unsupported spec type {type(spec).__name__}")
    if spec.n != m.n:
        raise ParameterError(f"spec has n={spec.n} but matrix has n={m.n}")
    if isinstance(spec, CffSpec) and m.q != spec.q:
        raise AlphabetError(f"cover-free check needs a binary matrix, got q = {m.q}")
    if spec.q != m.q:
        raise ParameterError(f"spec has q={spec.q} but matrix has q={m.q}")
    missing = _missing(m, spec)
    if not m.rows:
        _check_work(spec, "count")
        return _num_constraints(spec)
    return sum(count for count, _ in missing)
