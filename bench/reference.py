"""Slow, definitional reference for the benchmark's correctness gate.

Nothing here imports coverkit. The parser reads the documented file format
directly and the checkers enumerate every constraint straight from the
definitions:

* cover-free (r, s): every disjoint (R, S) with |R| = r, |S| = s has a row
  that is 1 on all of R and 0 on all of S;
* universal (d): every d columns show all q**d patterns.

Uncovered constraints are yielded in the order coverkit's verifiers scan
them (R then S, or columns then pattern, each lexicographic), so the first
one is the witness ``coverkit verify`` must print.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def parse_array(text: str) -> tuple[dict, list[tuple[int, ...]]]:
    """Header fields and rows of an array document."""
    if not text.endswith("\n"):
        raise ValueError("document lacks its trailing newline")
    lines = text[:-1].split("\n")
    header: dict = {}
    for token in lines[0].split(" "):
        key, _, value = token.partition("=")
        header[key] = value if key in ("kind", "method") else int(value)
    rows = [tuple(DIGITS.index(ch) for ch in line) for line in lines[1:]]
    return header, rows


def format_array(header: dict, rows) -> str:
    """The document for ``header`` (keys in file order) and ``rows``."""
    head = " ".join(f"{k}={v}" for k, v in header.items())
    return "\n".join([head] + ["".join(DIGITS[x] for x in row) for row in rows]) + "\n"


def _cff_constraints(n: int, r: int, s: int):
    """Each (R, S) in the verifier's order, with R also as a set."""
    for R in combinations(range(n), r):
        need = frozenset(R)
        rest = [j for j in range(n) if j not in need]
        for S in combinations(rest, s):
            yield need, R, S


def _ones(rows) -> list[frozenset]:
    return [frozenset(j for j, bit in enumerate(row) if bit == 1) for row in rows]


def _projections(rows, n: int, d: int):
    """Each d-subset of columns, in the verifier's order, with the rows
    that show each pattern on it."""
    for S in combinations(range(n), d):
        shown: dict[tuple, list[int]] = {}
        for k, row in enumerate(rows):
            shown.setdefault(tuple(row[j] for j in S), []).append(k)
        yield S, shown


def cff_uncovered(rows, n: int, r: int, s: int):
    """Yield each (R, S) no row covers, in the verifier's order."""
    ones = _ones(rows)
    for need, R, S in _cff_constraints(n, r, s):
        if not any(need <= row and row.isdisjoint(S) for row in ones):
            yield R, S


def universal_uncovered(rows, n: int, d: int, q: int):
    """Yield each (columns, pattern) no row shows, in the verifier's order."""
    for S, shown in _projections(rows, n, d):
        for pattern in product(range(q), repeat=d):
            if pattern not in shown:
                yield S, pattern


def uncovered(header: dict, rows):
    if header["kind"] == "cff":
        return cff_uncovered(rows, header["n"], header["r"], header["s"])
    return universal_uncovered(rows, header["n"], header["d"], header["q"])


def check_document(text: str, expect: dict) -> str | None:
    """Why a constructed document is wrong, or None. ``expect`` holds the
    header fields the construction was asked for."""
    try:
        header, rows = parse_array(text)
    except ValueError as exc:
        return f"unreadable document: {exc}"
    for key, value in expect.items():
        if header.get(key) != value:
            return f"header {key}={header.get(key)!r}, expected {value!r}"
    if header.get("rows") != len(rows):
        return f"header rows={header.get('rows')} but {len(rows)} row lines"
    if any(len(row) != header["n"] or max(row, default=0) >= header["q"] for row in rows):
        return "a row has the wrong length or an out-of-range symbol"
    missing = next(uncovered(header, rows), None)
    if missing is not None:
        return f"constraint {missing} is uncovered"
    return None


def unique_covers(header: dict, rows) -> dict[int, list]:
    """Row index -> the constraints that row alone covers. Deleting row k
    leaves exactly ``unique_covers[k]`` uncovered."""
    only: dict[int, list] = {}
    n = header["n"]
    if header["kind"] == "cff":
        ones = _ones(rows)
        for need, R, S in _cff_constraints(n, header["r"], header["s"]):
            hits = [k for k, row in enumerate(ones) if need <= row and row.isdisjoint(S)]
            if len(hits) == 1:
                only.setdefault(hits[0], []).append([list(R), list(S)])
        return only
    for S, shown in _projections(rows, n, header["d"]):
        for pattern, ks in shown.items():
            if len(ks) == 1:
                only.setdefault(ks[0], []).append([list(S), list(pattern)])
    return only


def num_constraints(header: dict) -> int:
    """How many constraints the property in ``header`` has."""
    n = header["n"]
    if header["kind"] == "cff":
        return comb(n, header["r"]) * comb(n - header["r"], header["s"])
    return comb(n, header["d"]) * header["q"] ** header["d"]


def constraints_scanned(header: dict, witness) -> int:
    """Constraints the verifier has examined when it stops at ``witness``,
    or all of them when there is none. The universal verifier checks the
    patterns of a column block together, so it finishes the block."""
    if witness is None:
        return num_constraints(header)
    n = header["n"]
    if header["kind"] == "cff":
        R, S = witness
        rest = [j for j in range(n) if j not in R]
        local = tuple(rest.index(j) for j in S)
        return (combo_rank(R, n) * comb(n - len(R), len(S))
                + combo_rank(local, n - len(R)) + 1)
    return (combo_rank(witness[0], n) + 1) * header["q"] ** header["d"]


def combo_rank(combo, n: int) -> int:
    """Lexicographic rank of a sorted combination of range(n)."""
    rank, prev, k = 0, -1, len(combo)
    for i, c in enumerate(combo):
        for skipped in range(prev + 1, c):
            rank += comb(n - skipped - 1, k - i - 1)
        prev = c
    return rank
