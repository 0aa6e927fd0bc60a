import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations, product, starmap
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from coverkit import (
    AlphabetError,
    CffSpec,
    CffWitness,
    ParameterError,
    ResourceLimitError,
    SymbolMatrix,
    UniversalSpec,
    UniversalWitness,
    Verdict,
    build_universal_lemma1,
    complement,
    count_uncovered,
    verify_cff,
    verify_universal,
)
from coverkit import verify
from coverkit.core import WORK_BUDGET
from coverkit.verify import (
    _PACKED_CAP,
    _column_index,
    _columns,
    _missing_universal,
    _packed_cff,
    _packs,
    _pairwise_cff,
    _verdict,
    _window_length,
)

from reference import cff_uncovered, universal_uncovered
from test_cli import child_env
from test_core import matrices


def full_enumeration(n, q):
    return SymbolMatrix(n=n, q=q, rows=tuple(product(range(q), repeat=n)))


def uncovered(m, spec):
    """The constraints of ``spec`` that ``m`` leaves uncovered, from the
    benchmark's definitional reference, lazily and in the verifiers' order,
    as the witnesses the verifiers return."""
    if isinstance(spec, UniversalSpec):
        return starmap(UniversalWitness, universal_uncovered(m.rows, m.n, spec.d, m.q))
    return starmap(CffWitness, cff_uncovered(m.rows, m.n, spec.r, spec.s))


def witnesses(groups):
    """The witnesses of a kernel's groups, in order, after checking that each
    group holds as many as its count says, and at least one."""
    found = []
    for count, group in groups:
        group = list(group)
        assert count == len(group) > 0
        found += group
    return found


class TestVerdict:
    @pytest.mark.parametrize("status, witness", [
        ("valid", CffWitness((0,), (1,))),
        ("violated", None),
    ])
    def test_a_witness_exactly_when_violated(self, status, witness):
        with pytest.raises(ParameterError, match="^witness must be present exactly when violated$"):
            Verdict(status, witness)


class TestVerifyUniversal:
    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3)])
    def test_full_enumeration_is_universal(self, n, q):
        m = full_enumeration(n, q)
        for d in range(1, n + 1):
            assert verify_universal(m, d).valid

    def test_constant_rows_violate_with_first_witness(self):
        m = SymbolMatrix.from_strings(["000", "111"])
        verdict = verify_universal(m, 2)
        assert not verdict.valid
        assert verdict.witness == UniversalWitness(columns=(0, 1), pattern=(0, 1))

    def test_five_row_strength_two_design(self):
        m = SymbolMatrix.from_strings(["0000", "0111", "1011", "1101", "1110"])
        assert verify_universal(m, 2).valid
        # independent definitional check of the same matrix
        assert next(universal_uncovered(m.rows, 4, 2, 2), None) is None

    def test_witness_is_lexicographically_first(self):
        # single row: first subset (0, 1), first missing pattern (0, 1)
        m = SymbolMatrix.from_strings(["0000"])
        verdict = verify_universal(m, 2)
        assert verdict.witness == UniversalWitness(columns=(0, 1), pattern=(0, 1))

    def test_d_out_of_range(self):
        m = SymbolMatrix.from_strings(["01"])
        with pytest.raises(ParameterError):
            verify_universal(m, 3)

    def test_pattern_space_cap(self):
        m = SymbolMatrix(n=30, q=2, rows=((0,) * 30,))
        with pytest.raises(ResourceLimitError):
            verify_universal(m, 25)

    def test_an_empty_verdict_is_not_charged_for_the_patterns(self):
        # 2**25 patterns: a scan is refused, but an empty matrix builds only
        # its first witness.
        started = time.perf_counter()
        verdict = verify_universal(SymbolMatrix(n=30, q=2), 25)
        assert time.perf_counter() - started < 1.0
        assert verdict.witness == UniversalWitness(tuple(range(25)), (0,) * 25)


def random_matrix(n, q, rows, seed):
    rng = random.Random(seed)
    return SymbolMatrix(
        n=n, q=q, rows=tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(rows))
    )


class TestPackedFields:
    """The verifier packs one field per row into each column, 1, 2 or 4
    bytes wide by q**d; every width must give the definitional answer."""

    @pytest.mark.parametrize("n,d,q", [(3, 2, 17), (5, 3, 7), (5, 4, 5)])
    @pytest.mark.parametrize("rows", [1, 7, 60])
    def test_two_byte_fields_match_definition(self, n, d, q, rows):
        m = random_matrix(n, q, rows, seed=rows)
        assert 2**8 < q**d <= 2**16
        unmet = list(uncovered(m, UniversalSpec(n, d, q)))
        assert count_uncovered(m, UniversalSpec(n, d, q)) == len(unmet)
        assert verify_universal(m, d).witness == (unmet[0] if unmet else None)

    @pytest.mark.parametrize("n,d,q", [(17, 17, 2), (11, 11, 3)])
    def test_four_byte_fields_match_projections(self, n, d, q):
        # One subset: the count lists every one of its ~q**d missing patterns.
        m = random_matrix(n, q, 6, seed=n)
        m = SymbolMatrix(n=n, q=q, rows=m.rows + m.rows[:2])  # with duplicate rows
        assert q**d > 2**16
        unmet = uncovered(m, UniversalSpec(n, d, q))
        first = next(unmet)
        assert first.columns == tuple(range(d))
        assert verify_universal(m, d).witness == first
        assert count_uncovered(m, UniversalSpec(n, d, q)) == 1 + sum(1 for _ in unmet)

    @pytest.mark.parametrize("n,d,q", [(9, 8, 2), (3, 2, 16), (16, 16, 2), (4, 4, 16)])
    def test_largest_index_of_each_width(self, n, d, q):
        # q**d - 1, shown by the all-(q-1) row, fills its 1- or 2-byte field.
        assert q**d in (2**8, 2**16)
        m = random_matrix(n, q, 30, seed=d)
        m = SymbolMatrix(n=n, q=q, rows=m.rows + ((q - 1,) * n,))
        unmet = uncovered(m, UniversalSpec(n, d, q))
        first = next(unmet)
        assert first.columns == tuple(range(d))
        assert verify_universal(m, d).witness == first
        assert count_uncovered(m, UniversalSpec(n, d, q)) == 1 + sum(1 for _ in unmet)

    @pytest.mark.parametrize("n,d,q", [(3, 2, 2), (3, 2, 17), (17, 17, 2)])
    def test_zero_rows_miss_everything(self, n, d, q):
        m = SymbolMatrix(n=n, q=q)
        assert count_uncovered(m, UniversalSpec(n, d, q)) == comb(n, d) * q**d
        assert verify_universal(m, d).witness == UniversalWitness(tuple(range(d)), (0,) * d)

    @pytest.mark.parametrize("q,d", [(2, 3), (3, 2), (17, 2)])
    def test_duplicate_rows_count_once(self, q, d):
        m = random_matrix(5, q, 12, seed=q)
        doubled = SymbolMatrix(n=5, q=q, rows=m.rows * 2 + m.rows[:3])
        unmet = list(uncovered(m, UniversalSpec(5, d, q)))
        assert list(uncovered(doubled, UniversalSpec(5, d, q))) == unmet
        assert count_uncovered(doubled, UniversalSpec(5, d, q)) == len(unmet)
        assert verify_universal(doubled, d).witness == (unmet[0] if unmet else None)

    def test_pattern_cap_needs_memory_of_the_rows_not_the_patterns(self):
        # q**d == 2**24: a per-subset pattern bitmap would take 16 MB.
        m = random_matrix(25, 2, 50, seed=24)
        first = next(uncovered(m, UniversalSpec(25, 24, 2)))
        assert first.columns == tuple(range(24))
        tracemalloc.start()
        try:
            verdict = verify_universal(m, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.witness == first
        assert peak < 2 * 2**20


@st.composite
def kernel_cases(draw, q=None, d=None, max_n=None):
    """(matrix, spec) with 1 to 40 rows, drawn with repeats from a pool of
    distinct-or-not rows, so duplicate rows are common. Without a fixed
    (q, d), q is 2..6 and q**d falls on both sides of 256; with one, n is
    d to ``max_n``, by default d + 2."""
    if d is None:
        q, n = draw(st.integers(2, 6)), draw(st.integers(1, 6))
        d = draw(st.integers(1, n))
    else:
        n = draw(st.integers(d, max_n or d + 2))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    pool = draw(st.lists(row, min_size=1, max_size=40))
    if draw(st.booleans()):
        pool.append((q - 1,) * n)  # shows index q**d - 1, the top of its field
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return SymbolMatrix(n=n, q=q, rows=tuple(rows)), UniversalSpec(n, d, q)


class TestKernelAgainstReference:
    """The whole witness list of ``_missing_universal`` equals the
    reference's, on the 1-byte ``translate`` path and the wider ``set`` path."""

    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_small_alphabets(self, case):
        m, spec = case
        assert witnesses(_missing_universal(m, spec)) == list(uncovered(m, spec))

    @pytest.mark.parametrize("q,d", [(2, 8), (4, 4), (16, 2), (3, 6), (17, 2)])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_at_and_past_the_byte_boundary(self, q, d, data):
        # q**d is 256, the last 1-byte field, or just past it (729, 289).
        m, spec = data.draw(kernel_cases(q, d))
        assert witnesses(_missing_universal(m, spec)) == list(uncovered(m, spec))


class TestWindows:
    """Each window length of the 1-byte path, and the windows of one that
    wider fields take, called directly, lists the reference's witnesses in
    groups whose counts are right, whether its windows are kept or built
    again; ``_window_length`` picks among them only on cost."""

    # n runs past a window of tails and past the tails of one first column
    # (tails of two columns from d = 3 on), and the slot offsets fill the byte.
    @pytest.mark.parametrize("q,d,max_n", [
        (2, 1, 9), (2, 2, 12), (3, 2, 9), (2, 3, 14), (2, 4, 12), (3, 3, 9), (4, 3, 7), (2, 5, 9),
    ])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_every_length_matches_the_reference(self, q, d, max_n, data):
        m, spec = data.draw(kernel_cases(q, d, max_n))
        expected = list(uncovered(m, spec))
        for length in range(1, 256 // q**d + 1):
            groups = list(_missing_universal(m, spec, length))
            assert sum(count for count, _ in groups) == len(expected)
            assert witnesses(groups) == expected
            first = _verdict(_missing_universal(m, spec, length)).witness
            assert first == (expected[0] if expected else None)

    @pytest.mark.parametrize("room", [-1, 0, 3])
    @pytest.mark.parametrize("n,d,q,length,width", [(14, 3, 2, 8, 96), (9, 6, 3, 1, 24)])
    def test_windows_past_the_cap_are_built_again(self, n, d, q, length, width, room, monkeypatch):
        # On 12 rows a window of 1-byte fields at length 8 takes 96 bytes, and
        # one of 2-byte fields, at their forced length of one, 24. The n
        # repeated columns take n windows' bytes; the cap leaves room for
        # ``room`` windows more.
        m, spec = random_matrix(n, q, 12, seed=n), UniversalSpec(n, d, q)
        monkeypatch.setattr(verify, "_WINDOW_CAP", (n + room) * width)
        assert witnesses(_missing_universal(m, spec, length)) == list(uncovered(m, spec))

    def test_a_verdict_that_fails_at_once_builds_one_window(self):
        # Column 0 is all 0, so the first subset misses (1, 0, 0). All the
        # windows of the C(2000, 2) tails on 40 rows would take some 80 MB.
        rng = random.Random(2000)
        rows = tuple((0,) + tuple(rng.randrange(2) for _ in range(1999)) for _ in range(40))
        m, spec = SymbolMatrix(n=2000, q=2, rows=rows), UniversalSpec(2000, 3, 2)
        assert _window_length(2000, 3, 2, 40) == 32
        for length in (None, 1, 2, 32):
            tracemalloc.start()
            try:
                verdict = _verdict(_missing_universal(m, spec, length))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert verdict.witness == UniversalWitness((0, 1, 2), (1, 0, 0))
            assert peak < 2 * 2**20

    def test_a_full_scan_keeps_its_windows_within_the_cap(self, monkeypatch):
        # (120, 3, 2) on 40 rows at length 32: 224 windows of 1,280 bytes and
        # 150 KB of repeated columns, more than a cap of 256 KB holds.
        m, spec = random_matrix(120, 2, 40, seed=120), UniversalSpec(120, 3, 2)
        peaks = []
        for cap in (2**18, 2**30):
            monkeypatch.setattr(verify, "_WINDOW_CAP", cap)
            tracemalloc.start()
            try:
                count = sum(count for count, _ in _missing_universal(m, spec, 32))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert count == 12877
        assert peaks[0] <= 2**18 + 2**17 < peaks[1]

    @pytest.mark.parametrize("n,d,q,rows", [
        (30, 4, 2, 81), (16, 3, 3, 84), (14, 5, 2, 720), (7, 3, 5, 253), (3, 2, 17, 5), (5, 1, 2, 9),
    ])
    def test_the_length_picked_is_a_power_of_two_that_fits(self, n, d, q, rows):
        length = _window_length(n, d, q, rows)
        assert length & (length - 1) == 0
        assert length == 1 or length * q**d <= 256 and n * length * rows <= verify._WINDOW_CAP


@st.composite
def cff_cases(draw):
    """(matrix, r, s) with n up to 12 and any r, s with 1 <= r + s <= n,
    rows drawn with repeats from a pool that may hold the all-0 and all-1
    rows. The row count is often 6, 7, 8, 14, 15, 16, 22, 23 or 24: in the
    fields of ``_packed_cff`` the overflow bit above the e-bit is then the
    top bit of a byte, or the e-bit is, or the e-bit starts a byte."""
    n = draw(st.integers(1, 12))
    r = draw(st.integers(0, n))
    s = draw(st.integers(0 if r else 1, n - r))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=12))
    pool += [(bit,) * n for bit in (0, 1) if draw(st.booleans())]
    size = draw(st.sampled_from([6, 7, 8, 14, 15, 16, 22, 23, 24]) | st.integers(1, 30))
    rows = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return SymbolMatrix(n=n, q=2, rows=tuple(rows)), r, s


# The forms are compared on at least 200 examples, and on the profile's
# budget where it is larger: 2,000 under --hypothesis-profile=thorough.
CFF_FORM_EXAMPLES = max(200, settings.default.max_examples)


class TestCffForms:
    """Both forms of the cover-free scan, each called directly, list every
    (R, S) pair no row separates, in the definition's order, in groups whose
    counts are right; ``_packs`` picks between them, and only on cost."""

    @given(cff_cases())
    @example((SymbolMatrix(n=6, q=2, rows=((0,) * 6,) * 8), 2, 2))  # no R has a row all-1
    @example((SymbolMatrix(n=6, q=2, rows=((1,) * 6,) * 16), 2, 2))
    @example((SymbolMatrix(n=12, q=2, rows=((0, 1) * 6,) * 24), 0, 3))
    @example((SymbolMatrix(n=12, q=2, rows=((1, 0) * 6,) * 23), 4, 0))
    # Consecutive R's share their first one or two columns (three at r = 4),
    # and 38 of the 84 R's, 73 of the 210, miss pairs.
    @example((random_matrix(9, 2, 96, seed=9), 3, 2))
    @example((random_matrix(10, 2, 200, seed=10), 4, 2))
    # Column 0 is all 0: the first 28 R's hold it, and the prefix blocks
    # they share keep no row, so each misses all its pairs.
    @example((SymbolMatrix(n=9, q=2, rows=tuple(b"\0" + row[1:] for row in random_matrix(9, 2, 96, seed=9).rows)),
              3, 2))
    @settings(max_examples=CFF_FORM_EXAMPLES, deadline=None)
    def test_both_forms_match_the_definition(self, case):
        m, r, s = case
        index, size = _column_index(m.q, _columns(m))
        packed = witnesses(_packed_cff(index, size, m.n, r, s))
        assert packed == witnesses(_pairwise_cff(index, size, m.n, r, s))
        assert packed == list(uncovered(m, CffSpec(m.n, r, s)))

    def test_both_forms_list_alike_where_the_packed_form_runs(self):
        # (20, (1, 5)) at 288 rows: 15,504 fields of 37 bytes, which _packs
        # picks, and 2,201 pairs no row separates.
        m = random_matrix(20, 2, 288, seed=288)
        assert _packs(20, 1, 5, 288)
        index, size = _column_index(m.q, _columns(m))
        pairwise = witnesses(_pairwise_cff(index, size, 20, 1, 5))
        assert witnesses(_packed_cff(index, size, 20, 1, 5)) == pairwise
        assert len(pairwise) == count_uncovered(m, CffSpec(20, 1, 5)) == 2201
        assert verify_cff(m, 1, 5).witness == pairwise[0]

    def test_the_packed_form_stays_within_its_cap(self, monkeypatch):
        # (20, (1, 5)) has 15,504 fields. At 288 rows, 37-byte fields, the
        # packed form is the cheaper one and its n + 7 blocks fit the cap;
        # at 296 rows, 38-byte fields, they would not fit, and only the cap
        # keeps it from packing.
        spec = CffSpec(20, 1, 5)
        for rows, packs in [(288, True), (296, False)]:
            assert _packs(20, 1, 5, rows) == packs
            m = random_matrix(20, 2, rows, seed=rows)
            tracemalloc.start()
            try:
                count_uncovered(m, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _PACKED_CAP
        monkeypatch.setattr(verify, "_PACKED_CAP", 2**30)
        assert _packs(20, 1, 5, 296)

    def test_the_packed_form_stays_within_its_cap_with_a_prefix_block(self, monkeypatch):
        # (20, (2, 5)) has 15,504 fields, and each R's first column is kept
        # as a prefix block. At 280 rows, 36-byte fields, its n + r + 6
        # blocks fit the cap; at 288 rows, 37-byte fields, they would not,
        # and only the cap keeps it from packing.
        assert not _packs(20, 2, 5, 288)
        assert _packs(20, 2, 5, 280)
        m = random_matrix(20, 2, 280, seed=280)
        tracemalloc.start()
        try:
            count = count_uncovered(m, CffSpec(20, 2, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 210299  # as the per-pair form counts
        assert peak <= _PACKED_CAP
        monkeypatch.setattr(verify, "_PACKED_CAP", 2**30)
        assert _packs(20, 2, 5, 288)

    def test_the_packed_form_stays_within_its_cap_at_one_byte_fields(self, monkeypatch):
        # (21, (1, 9)) at 6 rows has 293,930 fields of 1 byte. While the
        # columns are repeated, _kinds' planes of the elements of each S,
        # 18 bytes a field, outweigh the blocks; they fit the cap beside
        # them. (21, (1, 10)), 352,716 fields and 20 bytes of planes each,
        # would not, and only the cap keeps it from packing.
        assert _packs(21, 1, 9, 6)
        assert not _packs(21, 1, 10, 6)
        m = random_matrix(21, 2, 6, seed=6)
        tracemalloc.start()
        try:
            count = count_uncovered(m, CffSpec(21, 1, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 3526390  # as the per-pair form counts
        assert peak <= _PACKED_CAP
        monkeypatch.setattr(verify, "_PACKED_CAP", 2**30)
        assert _packs(21, 1, 10, 6)

    @pytest.mark.parametrize("r,s", [(0, 300), (0, 299), (1, 299)])
    def test_more_than_255_columns_in_s_take_the_per_pair_form(self, r, s):
        # _kinds marks position k of S by the byte k + 1, so the packed
        # form takes s <= 255 only. Rows: the first three unit rows and an
        # all-0 one, so R = (3,) is the first that misses at r = 1.
        m = SymbolMatrix(n=300, q=2, rows=tuple(tuple(int(j == i) for j in range(300)) for i in range(3))
                         + ((0,) * 300,))
        assert not _packs(300, r, s, m.num_rows)
        index, size = _column_index(m.q, _columns(m))
        expected = witnesses(_pairwise_cff(index, size, 300, r, s))
        assert len(expected) == (297 if r else 0)
        assert count_uncovered(m, CffSpec(300, r, s)) == len(expected)
        assert verify_cff(m, r, s).witness == (expected[0] if expected else None)


class TestCountBuildsNoWitness:
    """``count_uncovered`` sums each kernel's group counts; only reading a
    group builds its witnesses."""

    @pytest.mark.parametrize("m,spec", [
        (random_matrix(7, 3, 5, seed=1), UniversalSpec(7, 3, 3)),  # 1-byte fields
        (random_matrix(5, 7, 9, seed=2), UniversalSpec(5, 3, 7)),  # 2-byte fields
        (random_matrix(12, 2, 9, seed=3), CffSpec(12, 2, 2)),  # packed
        (random_matrix(10, 2, 40, seed=4), CffSpec(10, 7, 3)),  # per pair
    ])
    def test_counts_without_witnesses(self, m, spec, monkeypatch):
        expected = list(uncovered(m, spec))
        if isinstance(spec, CffSpec):
            assert _packs(spec.n, spec.r, spec.s, m.num_rows) == (spec.r == 2)
        assert expected

        def refuse(*args):
            raise AssertionError("a count built a witness")

        monkeypatch.setattr(verify, "UniversalWitness", refuse)
        monkeypatch.setattr(verify, "CffWitness", refuse)
        assert count_uncovered(m, spec) == len(expected)


class TestVerifyCff:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_identity_matrix(self, n):
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        m = SymbolMatrix(n=n, q=2, rows=rows)
        assert verify_cff(m, 1, n - 1).valid

    def test_all_ones_row_violates(self):
        m = SymbolMatrix.from_strings(["11"])
        verdict = verify_cff(m, 1, 1)
        assert verdict.witness == CffWitness(r_columns=(0,), s_columns=(1,))

    def test_two_subset_incidence_matrix(self):
        # columns are the six 2-subsets of a 4-element ground set
        blocks = list(combinations(range(4), 2))
        rows = tuple(tuple(1 if i in b else 0 for b in blocks) for i in range(4))
        m = SymbolMatrix(n=6, q=2, rows=rows)
        assert verify_cff(m, 1, 1).valid
        # independent check over all 30 ordered pairs
        assert next(cff_uncovered(rows, 6, 1, 1), None) is None

    def test_r_zero_means_all_zero_on_s(self):
        m = SymbolMatrix.from_strings(["000"])
        assert verify_cff(m, 0, 2).valid
        assert not verify_cff(SymbolMatrix.from_strings(["111"]), 0, 2).valid

    def test_s_zero_means_all_one_on_r(self):
        m = SymbolMatrix.from_strings(["111"])
        assert verify_cff(m, 2, 0).valid
        assert not verify_cff(SymbolMatrix.from_strings(["000"]), 2, 0).valid

    def test_rejects_non_binary(self):
        m = SymbolMatrix.from_strings(["012"], q=3)
        with pytest.raises(AlphabetError):
            verify_cff(m, 1, 1)

    def test_rejects_oversized_pair(self):
        m = SymbolMatrix.from_strings(["01"])
        with pytest.raises(ParameterError):
            verify_cff(m, 1, 2)

    def test_witness_columns_disjoint_and_sorted(self):
        m = SymbolMatrix.from_strings(["0101", "1010"])
        verdict = verify_cff(m, 2, 1)
        assert not verdict.valid
        w = verdict.witness
        assert list(w.r_columns) == sorted(w.r_columns)
        assert list(w.s_columns) == sorted(w.s_columns)
        assert not set(w.r_columns) & set(w.s_columns)


class TestCountUncovered:
    def test_empty_matrix_counts_everything(self):
        assert count_uncovered(SymbolMatrix(n=3, q=2), UniversalSpec(3, 2, 2)) == 12
        # Counted, not scanned: nothing of size n is built.
        huge = SymbolMatrix(n=10**9, q=2)
        assert count_uncovered(huge, UniversalSpec(10**9, 1, 2)) == 2 * 10**9
        assert count_uncovered(huge, CffSpec(10**9, 1, 1)) == 10**9 * (10**9 - 1)

    def test_an_empty_count_builds_no_witness(self):
        # The first witness's R alone would hold 10**9 - 1 indices, about
        # 8 GB, so the count runs in a child with 1 GiB of address space.
        code = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from coverkit import CffSpec, SymbolMatrix, count_uncovered\n"
            "print(count_uncovered(SymbolMatrix(n=10**9, q=2), CffSpec(10**9, 10**9 - 1, 1)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=30
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, f"{10**9}\n", "")

    def test_an_empty_count_past_the_budget_is_refused_before_it_is_built(self):
        # C(4 * 10**6, 2 * 10**6) has 4 * 10**6 bits and took over 100 s to
        # build; its charge, the square of (2 * 10**6 + 1) * 22 bits over 2**9,
        # is refused at once. A child keeps a regression from stalling the suite.
        code = (
            "import time\n"
            "from coverkit import CffSpec, ResourceLimitError, SymbolMatrix, count_uncovered\n"
            "started = time.perf_counter()\n"
            "try:\n"
            "    count_uncovered(SymbolMatrix(n=4 * 10**6, q=2), CffSpec(4 * 10**6, 2 * 10**6, 1))\n"
            "except ResourceLimitError as exc:\n"
            "    print(exc)\n"
            "print(time.perf_counter() - started)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=30
        )
        message, elapsed = result.stdout.splitlines()
        assert (result.returncode, result.stderr) == (0, "")
        assert message == f"estimated work of at least 2**41 exceeds the budget of {WORK_BUDGET}"
        assert float(elapsed) < 1.0

    @pytest.mark.parametrize("n, d, q", [(30, 25, 2), (5, 5, 28)])
    def test_an_empty_count_is_charged_by_its_own_estimate(self, n, d, q):
        # C(30, 25) 2**25 and 28**5 are a few dozen bits. A scan's charge of
        # 2**11 a pattern refuses both on one row; a count pays only for its bits.
        started = time.perf_counter()
        assert count_uncovered(SymbolMatrix(n=n, q=q), UniversalSpec(n, d, q)) == comb(n, d) * q**d
        assert time.perf_counter() - started < 1.0
        with pytest.raises(ResourceLimitError):
            verify_universal(SymbolMatrix(n=n, q=q, rows=((0,) * n,)), d)

    def test_an_empty_count_charges_the_bits_of_its_patterns(self):
        # 3**(16 * 10**6) has about 2.5 * 10**7 bits; its charge, their
        # square over 2**9, is refused at once. A child keeps a regression
        # from stalling the suite.
        code = (
            "import time\n"
            "from coverkit import ResourceLimitError, SymbolMatrix, UniversalSpec, count_uncovered\n"
            "started = time.perf_counter()\n"
            "try:\n"
            "    count_uncovered(SymbolMatrix(n=16 * 10**6, q=3), UniversalSpec(16 * 10**6, 16 * 10**6, 3))\n"
            "except ResourceLimitError as exc:\n"
            "    print(exc)\n"
            "print(time.perf_counter() - started)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=30
        )
        message, elapsed = result.stdout.splitlines()
        assert (result.returncode, result.stderr) == (0, "")
        assert message == f"estimated work of at least 2**40 exceeds the budget of {WORK_BUDGET}"
        assert float(elapsed) < 1.0

    def test_an_empty_count_never_scans(self, monkeypatch):
        def scan(m, spec):
            raise AssertionError("an empty matrix was scanned")

        monkeypatch.setattr(verify, "_missing", scan)
        assert count_uncovered(SymbolMatrix(n=4, q=3), UniversalSpec(4, 2, 3)) == 6 * 9
        assert count_uncovered(SymbolMatrix(n=4, q=2), CffSpec(4, 1, 2)) == 4 * 3

    def test_rejects_a_non_binary_matrix_for_a_cff_spec(self):
        m = SymbolMatrix.from_strings(["012"], q=3)
        with pytest.raises(AlphabetError) as info:
            count_uncovered(m, CffSpec(3, 1, 1))
        assert str(info.value) == "cover-free check needs a binary matrix, got q = 3"

    def test_constant_rows_leave_six(self):
        m = SymbolMatrix.from_strings(["000", "111"])
        assert count_uncovered(m, UniversalSpec(3, 2, 2)) == 6

    def test_zero_iff_valid_universal(self):
        m = full_enumeration(2, 2)
        assert count_uncovered(m, UniversalSpec(2, 2, 2)) == 0

    def test_cff_counts(self):
        m = SymbolMatrix(n=2, q=2)
        assert count_uncovered(m, CffSpec(2, 1, 1)) == 2
        m = SymbolMatrix.from_strings(["10"])
        assert count_uncovered(m, CffSpec(2, 1, 1)) == 1

    def test_spec_shape_mismatch(self):
        m = SymbolMatrix.from_strings(["01"])
        with pytest.raises(ParameterError):
            count_uncovered(m, UniversalSpec(3, 2, 2))
        with pytest.raises(ParameterError):
            count_uncovered(m, UniversalSpec(2, 2, 3))

    @pytest.mark.parametrize("spec", [(2, 1), None, "cff"])
    def test_a_value_that_is_no_spec_is_refused(self, spec):
        m = SymbolMatrix.from_strings(["01"])
        with pytest.raises(ParameterError, match="unsupported spec type"):
            count_uncovered(m, spec)

    @given(matrices(max_n=4, max_rows=6), st.integers(1, 3))
    @settings(max_examples=60)
    def test_zero_exactly_when_valid(self, m, d):
        if d > m.n:
            d = m.n
        spec = UniversalSpec(m.n, d, m.q)
        assert (count_uncovered(m, spec) == 0) == verify_universal(m, d).valid

    @given(matrices(max_n=4, max_rows=6), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=60)
    def test_zero_exactly_when_valid_cff(self, m, r, s):
        if not 1 <= r + s <= m.n:
            return
        spec = CffSpec(m.n, r, s)
        assert (count_uncovered(m, spec) == 0) == verify_cff(m, r, s).valid

    @given(matrices(max_n=5, max_rows=8, qs=(2, 3)), st.integers(1, 3))
    @settings(max_examples=80)
    def test_matches_definition_universal(self, m, d):
        d = min(d, m.n)
        unmet = list(uncovered(m, UniversalSpec(m.n, d, m.q)))
        assert count_uncovered(m, UniversalSpec(m.n, d, m.q)) == len(unmet)
        assert verify_universal(m, d).witness == (unmet[0] if unmet else None)

    @given(matrices(max_n=5, max_rows=8), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=80)
    def test_matches_definition_cff(self, m, r, s):
        if not 1 <= r + s <= m.n:
            return
        unmet = list(uncovered(m, CffSpec(m.n, r, s)))
        assert count_uncovered(m, CffSpec(m.n, r, s)) == len(unmet)
        assert verify_cff(m, r, s).witness == (unmet[0] if unmet else None)


class TestProperties:
    @pytest.mark.parametrize("n,d", [(4, 2), (5, 3), (6, 3)])
    def test_strength_monotonicity(self, n, d):
        m = build_universal_lemma1(n, d)
        assert verify_universal(m, d).valid
        for weaker in range(1, d):
            assert verify_universal(m, weaker).valid

    def test_cff_parameter_monotonicity(self):
        blocks = list(combinations(range(4), 2))
        rows = tuple(tuple(1 if i in b else 0 for b in blocks) for i in range(4))
        m = SymbolMatrix(n=6, q=2, rows=rows)
        assert verify_cff(m, 1, 1).valid
        assert verify_cff(m, 1, 0).valid
        assert verify_cff(m, 0, 1).valid

    @given(matrices(max_n=5, max_rows=6), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=60)
    def test_complement_duality(self, m, r, s):
        if not 1 <= r + s <= m.n:
            return
        assert verify_cff(m, r, s).valid == verify_cff(complement(m), s, r).valid

    @given(matrices(max_n=5, max_rows=8), st.integers(1, 3))
    @settings(max_examples=80)
    def test_universal_cff_bridge(self, m, d):
        if d > m.n:
            d = m.n
        universal = verify_universal(m, d).valid
        cff_all = all(verify_cff(m, i, d - i).valid for i in range(d + 1))
        assert universal == cff_all
