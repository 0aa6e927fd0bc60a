"""The bit-sliced greedy engine and Las Vegas filter against the
per-constraint list code they replaced, kept here as slow references, the
engine's squeeze against a gather of one bit at a time, and the engine's
memory."""

import random
import tracemalloc
from itertools import combinations, compress, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from coverkit import (CffSpec, SymbolMatrix, UniversalSpec, construct_cff_derandomized, construct_cff_randomized,
                      construct_universal_greedy)
from coverkit import cff
from coverkit.cff import MAX_BATCHES, GreedyTrace, GreedyTraceRow, _constraint_index, _greedy_cover, _squeezer
from coverkit.core import _column_index


def at_least(n):
    """n Hypothesis examples, or the profile's budget where it is larger:
    2,000 under --hypothesis-profile=thorough."""
    return max(n, settings.default.max_examples)


def reference_greedy_cover(n, requirements, weights):
    """Conditional expectations with one numerator per constraint, walked
    in Python for every column of every row."""
    q, total = len(weights), sum(weights)
    # by_column[j][c]: the constraints requiring symbol c at column j.
    by_column: list[list[list[int]]] = [[[] for _ in range(q)] for _ in range(n)]
    # fresh[i]: constraint i's numerator at the start of a row; 0 once a row met it.
    fresh: list[int] = []
    for i, reqs in enumerate(requirements):
        base = 1
        for j, c in reqs:
            by_column[j][c].append(i)
            base *= weights[c]
        fresh.append(base)

    remaining = len(fresh)
    rows: list[tuple[int, ...]] = []
    trace_rows: list[GreedyTraceRow] = []
    while remaining:
        num = fresh.copy()
        row = []
        for groups in by_column:
            best, best_gain = 0, -1
            for c, members in enumerate(groups):
                gain = sum(map(num.__getitem__, members)) // weights[c] * total
                if gain > best_gain:
                    best, best_gain = c, gain
            row.append(best)
            for c, members in enumerate(groups):
                if c == best:
                    w = weights[c]
                    for i in members:
                        num[i] = num[i] // w * total
                else:
                    for i in members:
                        num[i] = 0
        # Every column is decided: a constraint still nonzero is met by the row.
        covered = list(compress(range(len(num)), num))
        for i in covered:
            fresh[i] = 0
        remaining -= len(covered)
        rows.append(tuple(row))
        trace_rows.append(GreedyTraceRow(rows[-1], len(covered), remaining))
    return SymbolMatrix(n=n, q=q, rows=tuple(rows)), GreedyTrace(tuple(trace_rows))


def greedy_cover(n, requirements, weights, gaps=None):
    """``_greedy_cover`` on constraints given as lists of (column, symbol)
    requirements, passed to it as one byte per item at each column: the
    symbol required there, or q for none. With ``gaps``, one more than the
    constraints, gaps[i] items of padding, which require nothing and which
    the mask of live constraints leaves out, come before constraint i, and
    gaps[-1] after the last."""
    q = len(weights)
    gaps = gaps or [0] * (len(requirements) + 1)
    columns = [bytearray([q]) * (len(requirements) + sum(gaps)) for _ in range(n)]
    live = at = 0
    for reqs, gap in zip(requirements, gaps):
        at += gap
        live |= 1 << at
        for j, c in reqs:
            columns[j][at] = c
        at += 1
    return _greedy_cover(_column_index(q, columns)[0], live, weights)


@st.composite
def engine_inputs(draw):
    """n, constraints of 1-3 requirements on distinct columns, and positive
    symbol weights, equal or not."""
    n = draw(st.integers(1, 7))
    q = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=q, max_size=q)))
    requirements = []
    for _ in range(draw(st.integers(0, 40))):
        k = draw(st.integers(1, min(3, n)))
        columns = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        symbols = draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
        requirements.append(list(zip(columns, symbols)))
    return n, requirements, weights


@st.composite
def padded_inputs(draw):
    """``engine_inputs`` and 0-9 items of padding around each constraint."""
    n, requirements, weights = draw(engine_inputs())
    gaps = draw(st.lists(st.integers(0, 9), min_size=len(requirements) + 1, max_size=len(requirements) + 1))
    return n, requirements, weights, gaps


class TestAgainstReference:
    @given(engine_inputs())
    @example((3, [], (1, 1)))
    @example((2, [[(0, 1)], [(0, 0)], [(1, 1), (0, 0)]], (1, 3)))
    @example((3, [[(0, 2), (1, 0)], [(2, 1)], [(1, 1), (2, 2), (0, 0)]], (2, 1, 1)))
    # Gain 2 at column 1 only for symbol 0, from the first constraint, which
    # the first row's symbol 0 at column 0 drops: symbol 1 wins there.
    @example((2, [[(0, 1), (1, 0)], [(1, 1)], [(0, 0)]], (1, 1)))
    # Gain 2 at column 1 only for symbol 1: its gain 3 beats symbol 0's 2.
    @example((2, [[(0, 0), (1, 1)], [(1, 0)], [(1, 0)], [(1, 1)]], (1, 1)))
    # At q = 3, symbols 1 and 2 tie above symbol 0, and 1 takes the column.
    @example((2, [[(0, 1)], [(0, 2), (1, 1)], [(0, 0)], [(0, 1), (1, 2)], [(0, 2)]], (2, 1, 1)))
    # All three tie at column 0, and symbol 0 takes it.
    @example((1, [[(0, 0)], [(0, 1)], [(0, 2)]], (1, 1, 1)))
    @settings(max_examples=at_least(150), deadline=None)
    def test_same_rows_and_trace(self, case):
        # At the floor's default these never compact, and at a floor of 1
        # they compact as often as the rule allows.
        n, requirements, weights = case
        expected = reference_greedy_cover(n, requirements, weights)
        for floor in (cff._COMPACT_FLOOR, 1):
            with patch.object(cff, "_COMPACT_FLOOR", floor):
                assert greedy_cover(n, requirements, weights) == expected

    @given(padded_inputs())
    @example((2, [[(0, 1)], [(0, 0)], [(1, 1), (0, 0)]], (1, 3), [7, 0, 9, 5]))
    @settings(deadline=None)
    def test_padding_changes_no_row_or_trace(self, case):
        # Under the floor the padding stays; past it, the first compaction
        # drops it with the met constraints.
        n, requirements, weights, gaps = case
        for floor in (cff._COMPACT_FLOOR, 1):
            with patch.object(cff, "_COMPACT_FLOOR", floor):
                assert greedy_cover(n, requirements, weights, gaps) == greedy_cover(n, requirements, weights)

    def test_ties_go_to_the_smallest_symbol(self):
        # Symbols 0 and 1 tie at column 0 and at column 1.
        m, _ = greedy_cover(2, [[(0, 0)], [(0, 1)], [(1, 1)], [(1, 0)]], (1, 1))
        assert m.rows[0] == b"\x00\x00"


@st.composite
def wide_alphabet_inputs(draw):
    """As ``engine_inputs``, at q = 5 or 6 with symbol weights not all equal."""
    n = draw(st.integers(1, 6))
    q = draw(st.integers(5, 6))
    weights = tuple(
        draw(st.lists(st.integers(1, 6), min_size=q, max_size=q).filter(lambda w: len(set(w)) > 1))
    )
    requirements = []
    for _ in range(draw(st.integers(0, 60))):
        k = draw(st.integers(1, min(3, n)))
        columns = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        symbols = draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
        requirements.append(list(zip(columns, symbols)))
    return n, requirements, weights


class TestWideAlphabets:
    @given(wide_alphabet_inputs())
    @example((2, [[(0, 4), (1, 0)], [(1, 4)], [(0, 2)], [(1, 3), (0, 1)]], (1, 2, 3, 4, 5)))
    @example((3, [[(2, 5)], [(0, 5), (1, 5)], [(1, 0)], [(0, 3), (2, 1)]], (6, 1, 1, 2, 1, 3)))
    @settings(max_examples=at_least(100), deadline=None)
    def test_same_rows_and_trace_at_q_5_and_6(self, case):
        n, requirements, weights = case
        assert greedy_cover(n, requirements, weights) == reference_greedy_cover(
            n, requirements, weights
        )


def compacted(build):
    """What ``build()`` returns, and the width each compaction of
    ``_greedy_cover`` squeezed its sets to: the live constraints it kept."""
    widths = []

    def squeezer(keep):
        widths.append(keep.bit_count())
        return _squeezer(keep)

    with patch.object(cff, "_squeezer", squeezer):
        return build(), widths


@st.composite
def compacting_inputs(draw):
    """144-400 distinct constraints of 2-4 requirements on 12-16 column
    sets, in any order, and symbol weights not all equal.

    A row meets at most one constraint per column set, so at most m <= 16
    constraints, and there are at least 12 * m, for a column set has at
    least 12 patterns: 3 columns at q = 3, 2 at q = 4. The first row to
    leave at most a third of them unmet therefore leaves more than 3 * m:
    with no floor on the width, it compacts, and so does the first row to
    leave at most a third of those, which leaves at least one. They are
    fewer than ``_COMPACT_FLOOR``, so the tests lower it.
    """
    n = draw(st.integers(6, 8))
    q = draw(st.integers(3, 4))
    weights = tuple(
        draw(st.lists(st.integers(1, 5), min_size=q, max_size=q).filter(lambda w: len(set(w)) > 1))
    )
    column_sets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=6 - q, max_size=4, unique=True),
            min_size=12, max_size=16, unique_by=frozenset,
        )
    )
    requirements = []
    for columns in column_sets:
        tuples = list(product(range(q), repeat=len(columns)))
        for t in draw(st.sets(st.integers(0, len(tuples) - 1), min_size=12, max_size=25)):
            requirements.append(list(zip(columns, tuples[t])))
    return n, draw(st.permutations(requirements)), weights


class TestProgress:
    def test_a_row_that_meets_nothing_raises(self):
        # One constraint requiring both symbols at column 0: no row meets it.
        with pytest.raises(AssertionError, match="meets none"):
            _greedy_cover([[1, 1]], 1, (1, 1))


class TestCompaction:
    @given(compacting_inputs())
    @settings(max_examples=at_least(50), deadline=None)
    def test_same_rows_and_trace_across_compactions(self, case):
        n, requirements, weights = case
        with patch.object(cff, "_COMPACT_FLOOR", 1):
            built, widths = compacted(lambda: greedy_cover(n, requirements, weights))
        assert len(widths) >= 2
        assert built == reference_greedy_cover(n, requirements, weights)

    @pytest.mark.parametrize("build, widths", [
        (lambda: construct_cff_derandomized(CffSpec(24, 2, 2)), [19294, 6007, 1972]),
        (lambda: construct_universal_greedy(UniversalSpec(16, 4, 2)), [9290, 2902, 946]),
    ], ids=["derandomized-24-2-2", "greedy-16-4-2"])
    def test_the_widths_compacted_to(self, build, widths):
        # Each width is the first live count at most a third of the last,
        # down to the floor: the next would be 633 and 275 constraints.
        assert compacted(build)[1] == widths

    def test_a_third_live_compacts(self):
        # Row (0, 0) meets constraints 0 and 1 of the three, leaving exactly
        # a third of the width live: that compacts, to the one left.
        need = [[0b001, 0b100], [0b010, 0]]
        with patch.object(cff, "_COMPACT_FLOOR", 1):
            (m, _), widths = compacted(lambda: _greedy_cover(need, 0b111, (1, 1)))
        assert widths == [1]
        assert m == SymbolMatrix(n=2, q=2, rows=((0, 0), (1, 0)))


class TestMemory:
    def test_peak_at_derandomized_24_2_2(self):
        # At q = 2 the signed terms hold one set per gain for both symbols;
        # a set per (symbol, gain) peaks here at 0.92 MiB.
        need, live = _constraint_index(CffSpec(24, 2, 2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _greedy_cover(need, live, (2, 2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 2**20


def gather(x, keep):
    """The bits of x at the set positions of keep, packed from bit 0 up,
    taken one at a time."""
    out = 0
    for k, i in enumerate(i for i in range(keep.bit_length()) if keep >> i & 1):
        out |= (x >> i & 1) << k
    return out


class TestSqueezer:
    @pytest.mark.parametrize("kind", ["empty", "full", "top bit", "random"])
    def test_matches_a_gather_at_every_width(self, kind):
        rng = random.Random(kind)
        for width in range(1, 301):
            keep = {
                "empty": 0,
                "full": (1 << width) - 1,
                "top bit": 1 << width - 1,
                "random": rng.getrandbits(width) | 1 << width - 1,
            }[kind]
            squeeze = _squeezer(keep)
            # bits set outside keep, above its top bit too
            for x in (rng.getrandbits(width + 9), ~keep & (1 << width + 9) - 1):
                assert squeeze(x) == gather(x, keep), (width, keep, x)

    @given(st.integers(0, 1 << 300), st.integers(0, 1 << 310))
    def test_matches_a_gather(self, keep, x):
        assert _squeezer(keep)(x) == gather(x, keep)


def reference_randomized_rows(spec, seed, batch):
    """The rows of ``construct_cff_randomized`` with one (rmask, smask) pair
    per pending constraint, filtered in Python against each batch."""
    n, r, s = spec.n, spec.r, spec.s
    p = r / spec.d
    rng = random.Random(seed)
    # (rmask, smask) of each constraint still uncovered
    pending = [
        (sum(1 << j for j in R), sum(1 << j for j in S))
        for R in combinations(range(n), r)
        for S in combinations([j for j in range(n) if j not in R], s)
    ]

    rows: list[tuple[int, ...]] = []
    for _ in range(MAX_BATCHES):
        fresh_masks = []
        for _ in range(batch):
            bits = tuple(1 if rng.random() < p else 0 for _ in range(n))
            rows.append(bits)
            fresh_masks.append(sum(bit << j for j, bit in enumerate(bits)))
        pending = [
            (rmask, smask)
            for rmask, smask in pending
            if not any(row & rmask == rmask and row & smask == 0 for row in fresh_masks)
        ]
        if not pending:
            return tuple(rows)
    raise AssertionError("the reference did not converge")


@st.composite
def las_vegas_inputs(draw):
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, n - 1))
    s = draw(st.integers(1, n - r))
    return CffSpec(n, r, s), draw(st.integers(0, 1000)), draw(st.integers(1, 8))


class TestLasVegasAgainstReference:
    @given(las_vegas_inputs())
    @settings(max_examples=at_least(150), deadline=None)
    def test_same_rows(self, case):
        spec, seed, batch = case
        built = construct_cff_randomized(spec, seed, batch)
        assert built.rows == tuple(map(bytes, reference_randomized_rows(spec, seed, batch)))
