"""Exhaustive, definitional verification of the universal-set and
cover-free properties, with concrete violation witnesses.

Both verifiers enumerate every constraint: every d-subset S of columns
must show all q**d patterns (``_missing_universal``), and every disjoint
pair (R, S) with |R| = r, |S| = s must have a row that is all-1 on R and
all-0 on S (``_missing_cff``, on ``core._column_index``'s bitsets). A
count sums how many constraints each block misses; only a verdict builds
a witness. Both read the matrix alone, by column, never ``cff``'s index.

Edge conventions for the cover-free check: r = 0 reads the empty
intersection as the full ground set, so the requirement becomes "some row
is all-0 on S"; s = 0 symmetrically requires "some row is all-1 on R".
These conventions are exactly what makes the universal/cover-free bridge
hold for the all-zero and all-one patterns.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import combinations, filterfalse, repeat
from math import comb
from typing import Callable, Iterable, Iterator, Literal, Union

from .core import CffSpec, SymbolMatrix, UniversalSpec, _check_work, _column_index, _digits, _num_constraints
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


def _columns(m: SymbolMatrix) -> list[bytes]:
    """The columns of ``m``, one byte a row, each one strided slice in C."""
    joined = b"".join(m.rows)
    return [joined[j::m.n] for j in range(m.n)]


def _missing_universal(m: SymbolMatrix, spec: UniversalSpec,
                       length: int | None = None) -> Iterator[Missed]:
    """Every (columns, pattern) pair ``m`` misses, in (subset, then pattern)
    order, grouped by window: each window of up to ``length`` subsets
    (``_window_length``'s by default) that misses any, with how many.

    Each column is packed into one Python int with a field per row holding
    that row's symbol: 1, 2 or 4 bytes, the fewest that hold q**d - 1, laid
    out as a native array of unsigned ints. The pattern index of subset S
    on every row, sum(symbol at S[k] * q**(d-1-k)), is then one big-int sum
    of scaled columns, as no field can carry into the next; S misses the
    patterns whose rank in ``product`` order is not among its fields.

    S is a head and a tail of t columns, t = 2 for windows of more than one
    subset at d >= 3 and 1 otherwise. The tails, in ``combinations`` order,
    are cut into windows of ``length`` aligned to the last. Slot i of a
    window holds its i-th tail's sum plus i * q**d in every field; adding
    the head's sum, repeated into every slot, gives the indices of
    ``length`` subsets, each slot's in its own range of values. With 1-byte
    fields (q**d <= 256, so length <= 256 // q**d), one ``translate``
    deletes them from ``bytes(range(length * q**d))`` and leaves the
    missing (slot, rank) pairs in order. Every window is joined from the
    packed columns as a head first needs it and kept within ``_WINDOW_CAP``
    bytes, the last ones, which the most heads share, first. Wider fields
    take windows of one subset, read back as a ``set``.

    A window holds O(length * rows) bytes, whatever q**d is. The widest
    field holds indices below 2**32: ``_missing`` runs this only within
    WORK_BUDGET, which charges a scan 2**11 a pattern, so q**d <= 2**24.
    """
    q, n, rows, d = m.q, m.n, m.rows, spec.d
    total = q**d
    code = "B" if total <= 1 << 8 else "H" if total <= 1 << 16 else "I"
    # The same native byte order on both sides, so wider fields read back whole.
    order = sys.byteorder
    size = len(rows) * array(code).itemsize
    packed = _columns(m)  # 1-byte fields are the columns as they are
    if code != "B":  # fed ints, as ``array`` reads ``bytes`` as machine words
        packed = [array(code, iter(col)).tobytes() for col in packed]
        length = 1
    elif length is None:
        length = _window_length(n, d, q, len(rows))
    t = 2 if length > 1 and d >= 3 else 1
    h, width = d - t, length * size
    powers = [q**k for k in reversed(range(d))]
    # first[c]: the position of the first tail after column c - 1. Window u
    # holds the tails from u * length - pad on; the first pad slots are empty.
    tails = comb(n, t)
    first = [tails - comb(n - c, t) for c in range(n + 1)]
    count = -(-tails // length)
    pad = count * length - tails
    every = bytes(range(length * total)) if code == "B" else b""
    # begins[c]: the first window of the tails after column c - 1, and the
    # table that leaves out its slots before them
    tables = [every[skip * total:] for skip in range(length)]
    begins = [(u, tables[skip]) for u, skip in (divmod(p + pad, length) for p in first)]
    # The head sums are taken over columns repeated into every slot, each
    # repeated when a head first takes it; windows are built likewise.
    spread = cache(lambda j: int.from_bytes(packed[j] * length, order))
    windows: dict[int, int] = {}
    # kept: the first window kept, in the room the spread columns leave
    kept = count - (_WINDOW_CAP - n * width) // width
    # lift: slot i's i * q**d in every field
    lift = int.from_bytes(b"".join(bytes([i * total]) * size for i in range(length)), order)

    def tail(position: int) -> tuple[int, ...]:
        a = bisect_right(first, position) - 1
        return (a,) if t == 1 else (a, a + 1 + position - first[a])

    def build(u: int) -> int:
        """Window u, joined from runs of the packed columns: a run of
        tails (a, b) that share a is a run of columns b, plus column a
        repeated and scaled by q."""
        start = u * length - pad
        end, position = start + length, max(start, 0)
        zeros = bytes((position - start) * size)
        if t == 1:
            window = int.from_bytes(zeros + b"".join(packed[position:end]), order)
        else:
            lows, highs = [zeros], [zeros]
            a, b = tail(position)
            while position < end:
                run = min(end - position, n - b)
                lows += packed[b:b + run]
                highs.append(packed[a] * run)
                position += run
                a, b = a + 1, a + 2
            window = int.from_bytes(b"".join(lows), order) + q * int.from_bytes(b"".join(highs), order)
        window += lift
        if u >= kept:
            windows[u] = window
        return window

    # partial[k]: the sum over the current head's first k columns; a head
    # keeps those of the last head up to the first column where they differ.
    partial = [0] * (h + 1)
    last_head = (-1,) * h
    for head in combinations(range(n - t), h):
        k = 0
        while k < h - 1 and head[k] == last_head[k]:
            k += 1
        for k in range(k, h):
            partial[k + 1] = partial[k] + spread(head[k]) * powers[k]
        last_head, base = head, partial[h]
        u, table = begins[head[-1] + 1 if head else 0]
        for u in range(u, count):
            try:
                window = windows[u]
            except KeyError:
                window = build(u)
            fields = (base + window).to_bytes(width, order)
            if every:
                missing = table.translate(None, fields)
                table, missed = every, len(missing)
            else:
                shown = set(memoryview(fields).cast(code))
                missed, missing = total - len(shown), filterfalse(shown.__contains__, range(total))
            if missed:
                yield missed, _window_witnesses(head, tail, u * length - pad, q, d, missing)


def _window_witnesses(head: tuple[int, ...], tail: Callable[[int], tuple[int, ...]], start: int,
                      q: int, d: int, missing: Iterable[int]) -> Iterator[UniversalWitness]:
    """The witnesses of a window's ``missing`` values, in order, each
    slot * q**d plus a pattern's rank, where slot i is the subset of
    ``head`` and the tail at position start + i."""
    for value in missing:
        slot, rank = divmod(value, q**d)
        yield UniversalWitness(head + tail(start + slot), _digits(rank, q, d))


# The bytes of repeated columns and windows ``_missing_universal`` keeps.
_WINDOW_CAP = 2**22


def _window_length(n: int, d: int, q: int, rows: int) -> int:
    """The window length, a power of two up to 256 // q**d, at which
    ``_missing_universal`` is estimated to scan (n, d, q) on ``rows`` rows
    fastest, among those whose repeated columns fit ``_WINDOW_CAP``. The
    estimates are in units of 1/100 ns; windows the cap does not keep are
    built on each use."""
    best = comb(n, d) * (20000 + 200 * rows) + comb(n - 1, d - 1) * 85000
    length, window, top = 1, 2, 256 // q**d
    t = 2 if d >= 3 else 1
    h = d - t
    # (heads, tails): how many heads end at column c - 1, and the tails after it
    ends = [(1, comb(n, t))]
    if h:
        ends = [(comb(c - 1, h - 1), comb(n - c, t)) for c in range(h, n - t + 1)]
    while window <= top and n * window * rows <= _WINDOW_CAP:
        width = window * rows
        room = (_WINDOW_CAP - n * width) // width  # the windows kept
        used = sum([k * -(-tails // window) for k, tails in ends])
        built = -(-ends[0][1] // window)
        if built > room:
            built = room + sum([k * max(-(-tails // window) - room, 0) for k, tails in ends])
        cost = (used * (20000 + 200 * width) + comb(n - t, h) * (85000 + 40 * width)
                + built * (120000 + 300 * width) + n * 140 * width)
        if cost < best:
            best, length = cost, window
        window *= 2
    return length


def _missing_cff(m: SymbolMatrix, spec: CffSpec) -> Iterator[Missed]:
    """Every (R, S) pair no row of ``m`` separates, in (R, then S) order, by
    ``_packed_cff`` (a group per R) or ``_pairwise_cff`` (one per pair) as
    ``_packs`` picks: the same witnesses in order and the same total count."""
    index, size = _column_index(m.q, _columns(m))
    n, r, s = spec.n, spec.r, spec.s
    form = _packed_cff if _packs(n, r, s, size) else _pairwise_cff
    return form(index, size, n, r, s)


# The packed form keeps at most n + r + 5 ints of its block's size alive
# while it scans: the block, its e-bits and fill, the n repeated columns,
# r - 1 prefix blocks and three while an R is decided. Its e-bit marks, n
# bytes a field, are freed as the columns are repeated, so never outweigh
# them. It runs only while these, with one block more for the index and the
# rest, fit in _PACKED_CAP bytes; an int takes 16 bytes for each 15 it
# holds, as CPython stores 30 bits in each 4-byte digit.
_PACKED_CAP = 2**24


def _packs(n: int, r: int, s: int, rows: int) -> bool:
    """Whether ``_packed_cff`` should scan the (n, (r, s)) pairs of ``rows``
    rows: it fits ``_PACKED_CAP`` and is estimated, in units of 1/100 ns,
    to cost less than the per-pair loop. It loses on wide rows, and where
    C(n, s) is much more than the C(n - r, s) pairs of one R."""
    width, fields, heads = (rows + 1) // 8 + 1, comb(n, s), comb(n, r)
    # Per R, the loop lists the columns outside R; per pair, it takes an
    # interpreter step and an AND per column of S.
    pairwise = heads * (15000 * n + comb(n - r, s) * (10000 + s * (7000 + 2 * width)))
    # Each field is packed and marked, and each column's set repeated once;
    # per R, a step and an AND, an add and an AND over the block.
    packed = n * 130000 + fields * (100000 + 200 * n * width) + heads * (50000 + 70 * fields * width)
    return (n + r + 6) * width * fields * 16 <= _PACKED_CAP * 15 and packed < pairwise


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
    the columns, in ``combinations`` order: the rows all-0 on S in bits 0
    to size - 1, then an e-bit at bit ``size``, then an overflow bit. Each
    column j's rows all-1 are repeated into every field of an int of the
    same size, with the e-bit set where j is not in S: one ``translate`` of
    j's marks, a byte a field set as the fields are packed where S holds j.
    The block sets every e-bit, so ANDing it with the ints of R leaves in
    each field the rows that separate (R, S), and the e-bit just where S is
    disjoint from R. A field whose S meets R is then all 0: no row is both
    1 and 0 on a column of both.

    Adding 2**size - 1 to every field carries out of the rows exactly where
    one is left. With the e-bit set the carry clears it and sets the
    overflow bit; without it, the rows are empty and the e-bit stays clear.
    So the e-bits left set are the pairs of R no row separates, and a zero
    leaves R with no popcount. A field holds at most 2**(size + 1) - 1
    before the add, so less than 2**(size + 2) after: no field carries into
    the next. The ANDs over R's first r - 1 columns are kept as prefix
    blocks and redone from the first column where R differs from the last
    R, so most R's cost one AND, one add and one AND. A count is one
    popcount per R that misses pairs; the witnesses are listed by
    ``_unseparated`` once they are read.
    """
    width = (size + 1) // 8 + 1
    full = (1 << size) - 1
    fields = comb(n, s)
    packed = bytearray()
    inside = [bytearray(fields) for _ in range(n)]  # inside[j][f]: the f-th S holds j
    for f, S in enumerate(combinations(range(n), s)):
        zero = full
        for j in S:
            zero &= index[j][0]
            inside[j][f] = 1
        packed += zero.to_bytes(width, "little")
    # spare: the e-bits; the block's fields sit below them, so adding sets them
    spare = int.from_bytes(b"\1".ljust(width, b"\0") * fields, "little") << size
    block = int.from_bytes(packed, "little") + spare
    del packed
    fill = spare - (spare >> size)

    def group(R: tuple, unmet: int) -> Missed:
        return unmet.bit_count(), map(CffWitness, repeat(R), _unseparated(index, full, n, R, s))

    if not r:
        unmet = (block + fill) & spare
        if unmet:
            yield group((), unmet)
        return
    # Byte ``at`` of each field holds the e-bit, as bit ``bit``, above its top rows.
    at, bit = divmod(size, 8)
    ones = []
    for sets in index:
        row = sets[1].to_bytes(width, "little")
        marked = bytearray(row) * fields
        marked[at::width] = inside.pop(0).translate(bytes([row[at] | 1 << bit, row[at]]).ljust(256, b"\0"))
        ones.append(int.from_bytes(marked, "little"))
        del marked
    # R is a head of h columns and one column after it. partial[k]: the
    # block ANDed with the ints of the head's first k columns; a head keeps
    # those of the last head up to the first column where they differ.
    h = r - 1
    partial = [block] * r
    last = (-1,) * h
    for head in combinations(range(n - 1), h):
        k = 0
        while k < h and head[k] == last[k]:
            k += 1
        for k in range(k, h):
            partial[k + 1] = partial[k] & ones[head[k]]
        last, sep = head, partial[h]
        for j in range(head[-1] + 1 if h else 0, n):
            unmet = ((sep & ones[j]) + fill) & spare
            if unmet:
                yield group(head + (j,), unmet)


def _missing(m: SymbolMatrix, spec: UniversalSpec | CffSpec) -> Iterator[Missed]:
    """Every constraint of ``spec``, a valid spec on the n and q of ``m``,
    that ``m`` misses, in its verifier's order and grouped as its kernel
    finds them, once ``_check_work`` admits the scan. An empty matrix misses
    them all, and only a verdict asks for it (``count_uncovered`` answers
    it apart), so it gives one group of only the first, built directly."""
    _check_work(spec, "verify", m.num_rows)
    if m.rows:
        return (_missing_universal if isinstance(spec, UniversalSpec) else _missing_cff)(m, spec)
    if isinstance(spec, UniversalSpec):
        first = UniversalWitness(tuple(range(spec.d)), (0,) * spec.d)
    else:
        first = CffWitness(tuple(range(spec.r)), tuple(range(spec.r, spec.d)))
    return iter([(1, iter([first]))])


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
    matrix meets none, so its count is the constraint count, not a scan:
    it is charged by the "count" estimate alone, before it is built, and
    never reaches ``_missing``.
    """
    if not isinstance(spec, (UniversalSpec, CffSpec)):
        raise ParameterError(f"unsupported spec type {type(spec).__name__}")
    if spec.n != m.n:
        raise ParameterError(f"spec has n={spec.n} but matrix has n={m.n}")
    if isinstance(spec, CffSpec) and m.q != spec.q:
        raise AlphabetError(f"cover-free check needs a binary matrix, got q = {m.q}")
    if spec.q != m.q:
        raise ParameterError(f"spec has q={spec.q} but matrix has q={m.q}")
    if not m.rows:
        _check_work(spec, "count")
        return _num_constraints(spec)
    return sum(count for count, _ in _missing(m, spec))
