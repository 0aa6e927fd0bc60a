"""Exhaustive, definitional verification of the universal-set and
cover-free properties, with concrete violation witnesses.

Both verifiers enumerate every constraint:

* universal: every d-subset S of columns must show all q**d patterns;
* cover-free: every disjoint pair (R, S) with |R| = r, |S| = s must have a
  row that is all-1 on R and all-0 on S.

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
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Literal, Union

from .core import CffSpec, SymbolMatrix, UniversalSpec, _column_index, _power_over
from .errors import AlphabetError, ParameterError, ResourceLimitError

# Largest pattern space q**d checked: its indices fit the widest (4-byte)
# field of the packed columns, and a subset missing patterns is scanned over
# all q**d of them.
PATTERN_CAP = 2**24


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


def _check_universal_params(m: SymbolMatrix, d: int) -> None:
    if not 1 <= d <= m.n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={m.n}")
    if _power_over(m.q, d, PATTERN_CAP):
        raise ResourceLimitError(
            f"pattern space q**d = {m.q}**{d} exceeds the cap of {PATTERN_CAP}"
        )


def _missing_universal(m: SymbolMatrix, d: int) -> Iterator[UniversalWitness]:
    """Every (columns, pattern) pair ``m`` misses, in (subset, then pattern) order.

    Each column is packed into one Python int with a fixed-width field per
    row, holding that row's symbol at the column: 1, 2 or 4 bytes, the
    fewest that hold q**d - 1, laid out as a native array of unsigned ints.
    The pattern index of subset S on every row, sum(symbol at S[k] *
    q**(d-1-k)), is then one big-int sum of scaled columns, since no field
    can carry into the next. Its bytes, read back as fields, are the indices
    S shows; S is complete when they number q**d, and it misses the patterns
    whose rank in ``product`` order is not among them. The sums over each
    head S[:d-1] are shared across ``combinations`` order, so most subsets
    cost one add. A subset holds O(rows) bytes, whatever q**d is.
    """
    q, n, rows = m.q, m.n, m.rows
    total = q**d
    code = "B" if total <= 1 << 8 else "H" if total <= 1 << 16 else "I"
    # The same native byte order on both sides, so wider fields read back whole.
    order = sys.byteorder
    size = len(rows) * array(code).itemsize
    columns = (
        [int.from_bytes(array(code, col).tobytes(), order) for col in zip(*rows)]
        if rows
        else [0] * n
    )
    powers = [q**k for k in reversed(range(d))]
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
            shown = set(memoryview((base + columns[j]).to_bytes(size, order)).cast(code))
            if len(shown) < total:
                S = head + (j,)
                for idx, pattern in enumerate(product(range(q), repeat=d)):
                    if idx not in shown:
                        yield UniversalWitness(S, pattern)


def _verdict(missing: Iterator[Witness]) -> Verdict:
    witness = next(missing, None)
    return _VALID if witness is None else Verdict("violated", witness)


def verify_universal(m: SymbolMatrix, d: int) -> Verdict:
    """Check that every d columns of ``m`` exhibit all q**d patterns.

    Returns a valid verdict, or the lexicographically first missing
    (columns, pattern) pair under (subset, then pattern) order.
    """
    _check_universal_params(m, d)
    return _verdict(_missing_universal(m, d))


def _check_cff_params(m: SymbolMatrix, r: int, s: int) -> None:
    if m.q != 2:
        raise AlphabetError(f"cover-free check needs a binary matrix, got q = {m.q}")
    if r < 0 or s < 0 or r + s < 1:
        raise ParameterError(f"need r, s >= 0 and r+s >= 1, got ({r}, {s})")
    if r + s > m.n:
        raise ParameterError(f"need r+s <= n, got r+s={r + s}, n={m.n}")


def _cff_pairs(n: int, r: int, s: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All disjoint (R, S) column pairs in lexicographic (R, then S) order."""
    cols = range(n)
    for R in combinations(cols, r):
        rest = [j for j in cols if j not in R]
        for S in combinations(rest, s):
            yield R, S


def _cff_requirements(n: int, r: int, s: int) -> Iterator[Iterator[tuple[int, int]]]:
    """Each (R, S) pair as a one-pass iterator of the requirements "1 on R,
    0 on S", in ``_missing_cff``'s scan order."""
    symbols = (1,) * r + (0,) * s
    for R, S in _cff_pairs(n, r, s):
        yield zip(R + S, symbols)


def _universal_requirements(n: int, d: int, q: int) -> Iterator[Iterator[tuple[int, int]]]:
    """Each (columns, pattern) pair as a one-pass iterator of its
    requirements, in ``_missing_universal``'s scan order."""
    for S in combinations(range(n), d):
        for pattern in product(range(q), repeat=d):
            yield zip(S, pattern)


def _missing_cff(m: SymbolMatrix, r: int, s: int) -> Iterator[CffWitness]:
    """Every (R, S) pair no row of ``m`` separates, in (R, then S) order:
    over the rows' ``_column_index``, the rows all-1 on R, found once per R,
    share no row with those all-0 on S."""
    index, size = _column_index(m.n, 2, map(enumerate, m.rows))
    last_R, on_R = None, 0
    for R, S in _cff_pairs(m.n, r, s):
        if R != last_R:
            last_R, on_R = R, (1 << size) - 1
            for j in R:
                on_R &= index[j][1]
        separated = on_R
        for j in S:
            separated &= index[j][0]
        if not separated:
            yield CffWitness(R, S)


def verify_cff(m: SymbolMatrix, r: int, s: int) -> Verdict:
    """Check the (n, (r, s)) cover-free property of a binary matrix.

    Returns a valid verdict, or the lexicographically first failing
    (R, S) pair.
    """
    _check_cff_params(m, r, s)
    return _verdict(_missing_cff(m, r, s))


def count_uncovered(m: SymbolMatrix, spec: UniversalSpec | CffSpec) -> int:
    """Exact number of unmet constraints of ``m`` against ``spec``.

    Zero exactly when the corresponding verifier returns valid.
    """
    if spec.n != m.n:
        raise ParameterError(f"spec has n={spec.n} but matrix has n={m.n}")
    if isinstance(spec, UniversalSpec):
        if spec.q != m.q:
            raise ParameterError(f"spec has q={spec.q} but matrix has q={m.q}")
        _check_universal_params(m, spec.d)
        missing: Iterator[Witness] = _missing_universal(m, spec.d)
    elif isinstance(spec, CffSpec):
        _check_cff_params(m, spec.r, spec.s)
        missing = _missing_cff(m, spec.r, spec.s)
    else:
        raise ParameterError(f"unsupported spec type {type(spec).__name__}")
    return sum(1 for _ in missing)
