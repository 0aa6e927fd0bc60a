import hashlib
from contextlib import contextmanager
import time
import tracemalloc
from bisect import bisect_left
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from coverkit import (
    CffSpec,
    ParameterError,
    ResourceLimitError,
    SearchBudget,
    SymbolMatrix,
    UniversalSpec,
    construct_cff_derandomized,
    construct_universal_greedy,
    derandomized_size_bound,
    minimal_cff_size,
    minimal_universal_size,
    sperner_row_count,
    universal_greedy_size_bound,
    verify_cff,
    verify_universal,
)
from coverkit import oracle
from coverkit.core import _check_work, _work
from coverkit.oracle import (
    SearchOutcome, _OutOfNodes, _cover_bound, _crowding, _last_covers, _layout, _scan_tables, _suffix_tables,
    _joined_tie_list, _tie_list,
)
from coverkit.verify import _constraint_index


def kleitman_spencer(n):
    """The fewest rows of a binary (n, 2)-universal set: the least k with
    C(k - 1, ceil(k / 2)) >= n (Kleitman & Spencer, "Families of
    k-independent sets", Discrete Math. 6, 1973)."""
    k = 1
    while comb(k - 1, -(-k // 2)) < n:
        k += 1
    return k


class TestMinimalUniversal:
    @pytest.mark.parametrize("n,expected", [(n, kleitman_spencer(n)) for n in range(2, 11)])
    def test_ground_truth(self, n, expected):
        outcome = minimal_universal_size(UniversalSpec(n, 2, 2))
        assert outcome.found
        assert outcome.size == expected
        assert outcome.certificate.num_rows == expected
        assert verify_universal(outcome.certificate, 2).valid

    def test_kleitman_direction(self):
        for n, d in ((2, 2), (3, 2), (4, 2), (3, 3)):
            outcome = minimal_universal_size(UniversalSpec(n, d, 2))
            assert outcome.found and outcome.size >= 2**d

    def test_ternary_instance(self):
        outcome = minimal_universal_size(UniversalSpec(2, 1, 3))
        assert outcome.found and outcome.size == 3

    def test_infeasible_below_minimum(self):
        outcome = minimal_universal_size(UniversalSpec(4, 2, 2), SearchBudget(max_rows=4))
        assert outcome.status == "infeasible"
        assert outcome.size is None and outcome.certificate is None

    @pytest.mark.parametrize("spec,max_rows,nodes", [
        (UniversalSpec(5, 5, 6), 32, 6**5),  # 7,776 constraints, one a row
        (UniversalSpec(4, 2, 2), 3, 2**4),  # 24 constraints, at most 6 a row
        (CffSpec(7, 1, 1), 3, 2**7),  # 42 constraints, at most 12 a row
    ], ids=repr)
    def test_a_coverage_bound_past_max_rows_is_infeasible_before_the_layout(self, spec, max_rows, nodes,
                                                                           monkeypatch):
        # Charged only the q**n candidates up front.
        def unbuilt(spec):
            raise AssertionError("a layout was built for a bound past max_rows")

        monkeypatch.setattr(oracle, "_layout", unbuilt)
        outcome = search(spec, SearchBudget(max_rows=max_rows))
        assert (outcome.status, outcome.size, outcome.certificate, outcome.nodes) == ("infeasible", None, None, nodes)

    def test_node_budget_aborts_cleanly(self):
        outcome = minimal_universal_size(
            UniversalSpec(4, 2, 2), SearchBudget(max_rows=8, node_limit=3)
        )
        assert outcome.status == "budget_exceeded"

    def test_row_space_cap(self):
        outcome = minimal_universal_size(UniversalSpec(21, 2, 2))
        assert outcome.status == "budget_exceeded"

    def test_huge_n_is_refused_at_once(self):
        started = time.perf_counter()
        outcome = minimal_universal_size(UniversalSpec(10**9, 1, 3))
        assert time.perf_counter() - started < 1.0
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 0)

    def test_node_budget_bounds_time(self):
        # 16,384 cover masks of 2,912 constraints leave 3,616 nodes, spent
        # on scanned candidates as well as on search nodes
        started = time.perf_counter()
        outcome = minimal_universal_size(
            UniversalSpec(14, 3, 2), SearchBudget(max_rows=8, node_limit=20000)
        )
        assert time.perf_counter() - started < 1.0
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 20001)

    def test_the_scan_tables_keep_one_int_per_run(self):
        # The cover masks take about 6.5 MB; a suffix union per candidate
        # would take as much again.
        tracemalloc.start()
        try:
            outcome = minimal_universal_size(
                UniversalSpec(14, 3), SearchBudget(max_rows=8, node_limit=20000)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 20001)
        assert peak < 10 * 2**20

    def test_a_forced_final_row_builds_no_cover_masks(self):
        # The 262,144 cover masks would take about 12 MiB and a list of the
        # first uncovered constraint's covers about 5 MiB; the forced final
        # row counts those covers in 256 KiB, one byte a candidate.
        tracemalloc.start()
        try:
            outcome = minimal_universal_size(UniversalSpec(18, 1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (outcome.status, outcome.size) == ("found", 2)
        assert peak < 2**20


class TestMinimalCff:
    @pytest.mark.parametrize("n,r,s,expected", [(2, 1, 1, 2), (4, 1, 1, 4), (6, 1, 1, 4), (7, 1, 1, 5)])
    def test_ground_truth(self, n, r, s, expected):
        outcome = minimal_cff_size(CffSpec(n, r, s))
        assert outcome.found
        assert outcome.size == expected
        assert verify_cff(outcome.certificate, r, s).valid

    def test_matches_sperner_rule(self):
        for n in (2, 3, 4, 5, 6):
            outcome = minimal_cff_size(CffSpec(n, 1, 1))
            assert outcome.found and outcome.size == sperner_row_count(n)

    def test_asymmetric_instance(self):
        # (3, (1, 2)): only the three unit rows work, so the minimum is 3
        outcome = minimal_cff_size(CffSpec(3, 1, 2))
        assert outcome.found and outcome.size == 3

    def test_degenerate_edges_need_one_row(self):
        assert minimal_cff_size(CffSpec(4, 0, 2)).size == 1
        assert minimal_cff_size(CffSpec(4, 2, 0)).size == 1

    def test_infeasible_below_minimum(self):
        outcome = minimal_cff_size(CffSpec(7, 1, 1), SearchBudget(max_rows=4))
        assert outcome.status == "infeasible"

    def test_row_space_cap(self):
        outcome = minimal_cff_size(CffSpec(21, 1, 1))
        assert outcome.status == "budget_exceeded"

    def test_huge_n_is_refused_at_once(self):
        started = time.perf_counter()
        outcome = minimal_cff_size(CffSpec(10**9, 1, 1))
        assert time.perf_counter() - started < 1.0
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 0)


@pytest.mark.parametrize("search, spec", [
    (minimal_cff_size, UniversalSpec(3, 2, 2)),
    (minimal_universal_size, CffSpec(3, 1, 1)),
])
def test_a_spec_of_the_other_family_is_refused(search, spec):
    with pytest.raises(ParameterError, match="expected a"):
        search(spec)


class TestSandwich:
    """Oracle minimum <= constructor output <= constructor bound."""

    @pytest.mark.parametrize("n,r,s", [(4, 1, 1), (5, 1, 2), (6, 2, 1), (4, 2, 2)])
    def test_cff(self, n, r, s):
        spec = CffSpec(n, r, s)
        outcome = minimal_cff_size(spec)
        assert outcome.found
        built, trace = construct_cff_derandomized(spec)
        assert outcome.size <= built.num_rows <= derandomized_size_bound(spec)

    @pytest.mark.parametrize("n,d,q", [(3, 2, 2), (4, 2, 2), (2, 2, 2), (3, 1, 3)])
    def test_universal(self, n, d, q):
        spec = UniversalSpec(n, d, q)
        outcome = minimal_universal_size(spec)
        assert outcome.found
        built, _ = construct_universal_greedy(spec)
        assert outcome.size <= built.num_rows <= universal_greedy_size_bound(spec)


def laid_out_index(spec):
    """(index, full): ``spec``'s constraints numbered as the search numbers
    them, by ``_layout``, and the mask of those that are not padding. It is
    read from the module, so ``constrained_by`` replaces it."""
    return oracle._layout(spec)[1:]


def reference_tables(index, full):
    """(cover, suffix_or, suffix_max, last) for the constraints ``full``
    holds of ``index``, by the per-candidate loops: the masks a column at a
    time, the suffix tables a candidate at a time from the end, and a
    constraint's last cover where the suffix unions drop it (0 at
    padding)."""
    cover = [full]
    for sets in index:
        rest = full & ~sum(sets)
        allowed = [rest | held for held in sets]
        cover = [mask & extra for mask in cover for extra in allowed]
    count = len(cover)
    suffix_or, suffix_max = [0] * (count + 1), [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | cover[i]
        suffix_max[i] = max(suffix_max[i + 1], cover[i].bit_count())
    last = [0] * full.bit_length()
    for i in range(count):
        ends = suffix_or[i] & ~suffix_or[i + 1]
        while ends:
            low = ends & -ends
            last[low.bit_length() - 1] = i
            ends ^= low
    return cover, suffix_or, suffix_max, last


@st.composite
def table_specs(draw):
    """Universal specs with n <= 7 at q = 2 and 3, n <= 5 at q = 4 and n <=
    4 at q = 5, and cover-free specs with n <= 8, r = 0 and s = 0
    included."""
    if draw(st.booleans()):
        q = draw(st.sampled_from((2, 3, 4, 5)))
        n = draw(st.integers(1, {2: 7, 3: 7, 4: 5, 5: 4}[q]))
        return UniversalSpec(n, draw(st.integers(1, n)), q)
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, n))
    return CffSpec(n, r, draw(st.integers(1 if r == 0 else 0, n - r)))


@given(table_specs())
@settings(deadline=None)
def test_the_scan_tables_match_the_per_candidate_loops(spec):
    _, index, full = _layout(spec)
    cover, suffix_or, suffix_max, expected = reference_tables(index, full)
    last = _last_covers(index, full.bit_length())
    scanned = _scan_tables(index, full)
    assert (scanned, *_suffix_tables(scanned, last)) == (cover, suffix_or, suffix_max)
    real = [c for c in range(full.bit_length()) if full >> c & 1]
    assert [last[c] for c in real] == [expected[c] for c in real]
    for c in real:
        assert cover[last[c]] >> c & 1 and not suffix_or[last[c] + 1] >> c & 1, c


# Every admissible spec with q**n <= 2**14 at q = 2 and 3, for n <= 12.
@pytest.mark.parametrize("n,q", [(n, 2) for n in range(1, 13)] + [(n, 3) for n in range(1, 9)])
def test_the_cover_bound_is_the_most_constraints_a_cover_mask_meets(n, q):
    # The coverage bound, and so every pinned node count, rests on this.
    specs = [UniversalSpec(n, d, q) for d in range(1, n + 1)]
    if q == 2:
        specs += [CffSpec(n, r, s) for r in range(n + 1) for s in range(n + 1 - r) if r + s]
    for spec in specs:
        index, keep = _constraint_index(spec)
        assert _cover_bound(spec) == max(map(int.bit_count, _scan_tables(index, keep))), spec


def reference_pairs(n, q):
    """(dec, eq) by the per-column loops: bit n-2-j of dec[i] is set when
    candidate i decreases columns (j, j+1), and of eq[i] when it keeps them
    equal."""
    dec = eq = [0] * q
    for _ in range(n - 1):
        dec = [pairs << 1 | (i % q > c) for i, pairs in enumerate(dec) for c in range(q)]
        eq = [pairs << 1 | (i % q == c) for i, pairs in enumerate(eq) for c in range(q)]
    return dec, eq


@given(st.sampled_from((2, 3, 4, 5)), st.data())
@settings(deadline=None)
def test_each_tie_list_holds_the_candidates_decreasing_no_tied_pair(q, data):
    n = data.draw(st.integers(1, {2: 10, 3: 7, 4: 5, 5: 5}[q]))
    tied = data.draw(st.integers(0, (1 << n - 1) - 1))
    dec, _ = reference_pairs(n, q)
    assert _tie_list(n, q, tied) == [i for i in range(q**n) if not tied & dec[i]]


@st.composite
def joined_tie_cases(draw):
    """(n, q, tied) for q = 2 with n <= 12, q = 3 with n <= 8 and q = 4 with
    n <= 6, the pair across the middle drawn tied or not."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, {2: 12, 3: 8, 4: 6}[q]))
    tied, middle = draw(st.integers(0, (1 << n - 1) - 1)), (1 << n - n // 2 - 1) * (n > 1)
    return n, q, tied | middle if draw(st.booleans()) else tied & ~middle


@given(joined_tie_cases())
@example((1, 2, 0))  # no head columns
@example((2, 3, 0))  # one column a half, the middle pair untied
@example((2, 3, 1))  # and tied
@settings(deadline=None)
def test_each_joined_tie_list_is_the_tie_list_of_all_columns(case):
    n, q, tied = case

    def half(width, mask):
        assert width in (n // 2, n - n // 2), width
        return _tie_list(width, q, mask)

    assert _joined_tie_list(n, q, tied, half) == _tie_list(n, q, tied)


@given(st.sampled_from((2, 4, 8, 16)), st.data())
@settings(deadline=None)
def test_the_swar_counts_match_a_bit_count_per_field(field, data):
    # The scan's steps on ``_crowding``'s constants, for blocks of g bits in
    # fields of F = ``field``, the next power of two at or above g.
    g = data.draw(st.integers(field // 2 + 1, field))
    blocks = data.draw(st.lists(st.integers(0, (1 << g) - 1), min_size=1, max_size=9))
    x = sum(block << k * field for k, block in enumerate(blocks))
    m1, folds, adds, high = _crowding(field, len(blocks) * field, g)
    x -= x >> 1 & m1
    for w, mask in folds:
        x = (x & mask) + (x >> w & mask)
    assert [x >> k * field & (1 << field) - 1 for k in range(len(blocks))] == [b.bit_count() for b in blocks]
    for t in range(1, g):
        assert bool(x + adds[t - 1] & high) == any(b.bit_count() > t for b in blocks), t


def certificate_sha(m):
    return None if m is None else hashlib.sha256("\n".join(m.row_strings()).encode()).hexdigest()


# (status, size, nodes, sha256 of the certificate rows): the nodes pin the
# search path, not just the minimum. Nodes count search nodes, each scan's
# whole range, and q**n up front and at each constraint's first covers.
SEARCHES = {
    UniversalSpec(4, 2, 2): ("found", 5, 135, "5ace6d852cdab38f6629510bbdae086998b322e0e5e76f53f1c73a030a08e10f"),
    UniversalSpec(5, 2, 2): ("found", 6, 1692, "84f8e5e12271d71d1ad6172a2bb7d628d9a5f2a8fbc1f7a6c60f065fae91b348"),
    UniversalSpec(2, 1, 3): ("found", 3, 29, "6809a683cdd8563f77719218f8b0f91f2f80edd5f7a7a5f5b6c11508da38db67"),
    UniversalSpec(6, 2, 2): ("found", 6, 10651, "be57e429aeef33c8e367f53dea8057b3ea67fa3b861c0383e1b090378686f30a"),
    CffSpec(7, 1, 1): ("found", 5, 8953, "b2c692404ec8ea3e28d99c1973b393779bb065be182fa4f19060cfae7be9da00"),
    CffSpec(7, 1, 2): ("found", 7, 8320, "a9b308a6a3996bfa101482b1e0ccbfd050cc918137be6dbec46b90537d51e94e"),
    CffSpec(3, 1, 2): ("found", 3, 29, "1d52ee03dff97a7a4281b36c7fd78f73540d3a57e897d8bcf3fb720b828d2625"),
    CffSpec(4, 0, 2): ("found", 1, 37, "9af15b336e6a9619928537df30b2e6a2376569fcf9d7e773eccede65606529a0"),
    CffSpec(4, 2, 0): ("found", 1, 37, "0ffe1abd1a08215353c233d6e009613e95eec4253832a761af28ff37ac5a150c"),
    CffSpec(10, 2, 0): ("found", 1, 2305, "d2d02ea74de2c9fab1d802db969c18d409a8663a9697977bb1c98ccdd9de4372"),
    # Many candidates and a final row forced at every column, decided without
    # a scan: the three such cases of the benchmark's oracle workload.
    UniversalSpec(16, 1, 2): ("found", 2, 163841, "67e47f8d3b8f5a8cd225b3000f6a7cd7d88c66d298c60ffbbcab2707f6ec3707"),
    CffSpec(14, 0, 3): ("found", 1, 34817, "2e6e15a38c6fe8b624fca13be00a737947a8096fd5620795696b5b63cd7feea4"),
    CffSpec(14, 2, 0): ("found", 1, 36865, "79f7928f3deb7436d6e110dfae37e8f80ea9c65f55ea84eb449895b63bc5909e"),
    # Two search-heavy cases of the benchmark's oracle workload, which also
    # runs (6, 2, 2), (7, (1, 1)) and (7, (1, 2)) above, and one it does not.
    UniversalSpec(7, 2, 2): ("found", 6, 49493, "d16b2c164978c2c3c9f3ddccf9965d605a399348caac42198d7d59689bc1a7a0"),
    CffSpec(8, 1, 1): ("found", 5, 65822, "03d1e883f581767d48e6d3dc5a046058bbad19de3acecc95d914b8468adcd95f"),
    UniversalSpec(8, 2, 2): ("found", 6, 182045, "f22c7499603f1297113fc895a65dacfe87a6fc7d42c6f6e46cb3dfd64744ee12"),
    # Binary d = 2 minima the block bound brings within reach: (10, 2, 2)
    # ran out of nodes at the default limit without it.
    UniversalSpec(9, 2, 2): ("found", 6, 553158, "80a42274ad75a00542f79122d50bfcae4115ac9eeae488eb236678b6db1a3d44"),
    UniversalSpec(10, 2, 2): ("found", 6, 1564360, "8484eda7b8b491e66decd1e7ed4b41ff7aac354c5fdf4ccca092b5adb2385a55"),
    # A ternary search, whose column pairs are read from the digits, and the
    # longest non-final scans.
    UniversalSpec(12, 1, 3): ("found", 3, 1594325, "f8d9fc942d056b8465c796f127c444df1532843c7ad10a88ea19497ceab80709"),
    CffSpec(8, 1, 2): ("found", 8, 1313997, "e226c58e87d753baad42cbe74e91b7baf0ae31e58c04721d25c21a54859ea232"),
    # Wider alphabets, whose column pairs and certificate rows are read from
    # base-4 and base-5 digits.
    UniversalSpec(8, 1, 4): ("found", 4, 207534, "10997ec7711c1293d750ae51c53410654153869023353440a2e5df21946e1624"),
    UniversalSpec(6, 1, 5): ("found", 5, 50786, "26c817ad286995572b6891e6b552b254ea1fc38b14ddc3524c4997e7562108ae"),
}


def search(spec, budget=SearchBudget()):
    if isinstance(spec, UniversalSpec):
        return minimal_universal_size(spec, budget)
    return minimal_cff_size(spec, budget)


def requirement(index, c):
    """The (column, symbol) pairs constraint c of ``index`` requires, read
    bit by bit."""
    return tuple((j, s) for j, sets in enumerate(index) for s, held in enumerate(sets) if held >> c & 1)


def reference_blocks(index, full):
    """The conflict blocks of the constraints ``full`` holds of ``index``,
    as masks: the constraints on one column set, read bit by bit. Every
    requirement is held once, so those of a block require different
    symbols there."""
    blocks = {}
    for c in range(full.bit_length()):
        if full >> c & 1:
            key = frozenset(j for j, _ in requirement(index, c))
            blocks[key] = blocks.get(key, 0) | 1 << c
    return list(blocks.values())


def reference_search(spec, budget):
    """``_search_minimal`` as it was before the final row was read from the
    symbols its uncovered constraints force: every final row is found by a
    scan of the covers of the first uncovered constraint, charged a node per
    cover from ``last`` on, each tested against the tied column pairs. Verbatim
    but for its tables, which come from ``reference_tables``, its
    column-pair masks, from ``reference_pairs``, and its block bound, a
    ``bit_count`` per block of ``reference_blocks``: a child with at most
    two rows left is skipped when some block keeps more constraints
    uncovered than it has rows. Its tables and blocks number the
    constraints as the search does, so the two meet the same first
    uncovered constraint."""
    n, q, limit = spec.n, spec.q, budget.node_limit
    try:
        _check_work(spec, "search")
    except ResourceLimitError:
        return SearchOutcome("budget_exceeded", nodes=0)
    count = nodes = q**n
    if nodes > limit:
        return SearchOutcome("budget_exceeded", nodes=limit + 1)
    index, full = laid_out_index(spec)
    cover, suffix_or, suffix_max, max_row_for = reference_tables(index, full)
    num_constraints = full.bit_count()
    dec, eq = reference_pairs(n, q)
    blocks = reference_blocks(index, full)

    # covers_of[c]: the candidates covering constraint c, in order, built
    # when the final-row loop first needs them.
    covers_of: dict[int, list[int]] = {}

    lower = -(-num_constraints // suffix_max[0])  # the coverage bound

    chosen: list[int] = []

    def dfs(last: int, uncovered: int, rows_left: int, tied: int) -> bool:
        """Whether rows_left more rows from ``last`` on, none decreasing a
        ``tied`` column pair, cover ``uncovered``; each scan is charged its
        whole range before it starts."""
        # ``uncovered`` is never empty: a row leaving nothing uncovered with
        # rows to spare would end a shorter solution on this path, which the
        # previous deepening level, with the same order, ties and sound
        # prunes, would have found.
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _OutOfNodes
        if uncovered & ~suffix_or[last]:
            return False
        first = (uncovered & -uncovered).bit_length() - 1
        if rows_left == 1:
            if first not in covers_of:
                nodes += count
                bit = 1 << first
                covers_of[first] = [i for i, mask in enumerate(cover) if mask & bit]
            covers = covers_of[first]
            lo = bisect_left(covers, last)
            nodes += len(covers) - lo
            if nodes > limit:
                raise _OutOfNodes
            for i in covers[lo:]:
                if uncovered & ~cover[i] == 0 and not tied & dec[i]:
                    chosen.append(i)
                    return True
            return False
        hi, need = max_row_for[first], uncovered.bit_count()
        nodes += hi + 1 - last
        if nodes > limit:
            raise _OutOfNodes
        for i in range(last, hi + 1):
            if tied & dec[i]:
                continue
            newly = cover[i] & uncovered
            if not newly:
                continue
            if need - newly.bit_count() > (rows_left - 1) * suffix_max[i]:
                continue
            left = uncovered & ~cover[i]
            if rows_left <= 3 and any((left & block).bit_count() > rows_left - 1 for block in blocks):
                continue
            chosen.append(i)
            if dfs(i, left, rows_left - 1, tied & eq[i]):
                return True
            chosen.pop()
        return False

    # Universal sets start from the all-zero row, candidate 0.
    start = [0] if isinstance(spec, UniversalSpec) else []
    uncovered = full & ~cover[0] if start else full
    try:
        for size in range(lower, budget.max_rows + 1):
            chosen[:] = start
            if dfs(0, uncovered, size - len(start), (1 << (n - 1)) - 1):
                # Candidate i's symbols are the n base-q digits of i.
                rows = tuple(tuple(i // q**k % q for k in reversed(range(n))) for i in chosen)
                certificate = SymbolMatrix(n=n, q=q, rows=rows)
                return SearchOutcome("found", size=size, certificate=certificate, nodes=nodes)
    except _OutOfNodes:
        return SearchOutcome("budget_exceeded", nodes=limit + 1)
    finally:
        del dfs  # a self-referencing closure: free its masks now, not at the next gc
    return SearchOutcome("infeasible", nodes=nodes)


@st.composite
def search_cases(draw):
    """A small spec (universal at q = 2 to 4, cover-free with r = 0 and
    s = 0 included) and a node limit, from a handful of nodes to enough for
    most of them."""
    q = draw(st.sampled_from((2, 3, 4)))
    if draw(st.booleans()):
        n = draw(st.integers(1, {2: 6, 3: 4, 4: 3}[q]))
        spec = UniversalSpec(n, draw(st.integers(1, n)), q)
    else:
        n = draw(st.integers(1, 7))
        r = draw(st.integers(0, n))
        spec = CffSpec(n, r, draw(st.integers(1 if r == 0 else 0, n - r)))
    return spec, SearchBudget(max_rows=draw(st.integers(1, 9)), node_limit=draw(st.integers(1, 30_000)))


# The block bound skips children with one row left at (4, 2, 2) and (6, (1, 1)),
# whose blocks of 4 and 2 fill their fields; and children with two rows left
# at (4, 2, 2) and (6, (2, 1)), whose blocks of 3 take fields of 4. (3, 2, 3)'s
# blocks of 9 take fields of 16, and (4, (2, 2))'s one block of 6 a field of
# 8; neither skips a child.
@given(search_cases())
@example((UniversalSpec(4, 2, 2), SearchBudget(max_rows=9, node_limit=30_000)))
@example((CffSpec(6, 1, 1), SearchBudget(max_rows=9, node_limit=30_000)))
@example((CffSpec(6, 2, 1), SearchBudget(max_rows=9, node_limit=30_000)))
@example((UniversalSpec(3, 2, 3), SearchBudget(max_rows=9, node_limit=30_000)))
@example((CffSpec(4, 2, 2), SearchBudget(max_rows=9, node_limit=30_000)))
@settings(deadline=None)
def test_the_search_matches_the_scanning_reference(case):
    spec, budget = case
    outcome, expected = search(spec, budget), reference_search(spec, budget)
    assert (outcome.status, outcome.size, outcome.nodes) == (expected.status, expected.size, expected.nodes)
    assert outcome.certificate == expected.certificate


@st.composite
def constraint_cases(draw):
    """A spec standing for n columns over q symbols, random constraints on
    them laid out in place of its own as (F, index, full), and a node limit.
    They come as conflict blocks, each a column set and distinct
    requirements on it in a field of F bits, the power of two at or above
    the largest block, the rest padding. The block on column 0 alone needs
    two symbols or more, so no row covers every constraint and the all-zero
    start of a universal set leaves some uncovered. Such constraints break
    the column symmetry the search relies on, so a final row decreasing a
    tied column pair is common."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(2, {2: 7, 3: 4, 4: 3}[q]))
    column_set = st.sets(st.integers(0, n - 1), min_size=1).map(lambda columns: tuple(sorted(columns)))
    others = draw(st.lists(column_set.filter(lambda columns: columns != (0,)), unique=True, max_size=3))
    column_sets = draw(st.permutations([(0,), *others]))
    blocks = [draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * len(columns)), unique=True,
                            min_size=1 + (columns == (0,)), max_size=5)) for columns in column_sets]
    field = 1 << (max(map(len, blocks)) - 1).bit_length()
    index, full = [[0] * q for _ in range(n)], 0
    for at, (columns, block) in enumerate(zip(column_sets, blocks)):
        for i, symbols in enumerate(block):
            for j, c in zip(columns, symbols):
                index[j][c] |= 1 << at * field + i
        full |= (1 << len(block)) - 1 << at * field
    spec = UniversalSpec(n, 1, q) if q > 2 or draw(st.booleans()) else CffSpec(n, 1, 0)
    budget = SearchBudget(max_rows=9, node_limit=draw(st.integers(1, 30_000)))
    return spec, (field, index, full), budget


# Four constraints, at most two met by a row, start the deepening at two
# rows: the all-zero row and a lone final row, which would need both symbols
# at column 1. The cover masks and suffix tables are first built for three
# rows.
SECOND_LEVEL = (
    UniversalSpec(2, 1, 2), (2, [[0b0001, 0b1110], [0b0100, 0b1000]], 0b1111), SearchBudget(max_rows=9, node_limit=30_000)
)
# Two constraints, one met by each row, start the deepening at the all-zero
# row and a lone final row, which needs a 1 at column 0 only and so scans.
FIRST_LEVEL_SCAN = (UniversalSpec(2, 1, 2), (2, [[0b01, 0b10], [0, 0]], 0b11), SearchBudget(max_rows=9, node_limit=30_000))
# Over three symbols: two constraints at column 0, and a block of six at
# columns 1 and 2, each in a field of 8 bits; the six leave more
# constraints uncovered than rows at children with two rows left.
SIX_BLOCK = (
    UniversalSpec(3, 1, 3),
    (8, [[0b01, 0b10, 0], [0b000111 << 8, 0b111000 << 8, 0], [0b001001 << 8, 0b010010 << 8, 0b100100 << 8]],
     0b111111 << 8 | 0b11),
    SearchBudget(max_rows=9, node_limit=30_000),
)


@contextmanager
def constrained_by(case):
    """Within it, the spec of a ``constraint_cases`` case has the case's
    layout in place of its own, for which the constraint count is the bits
    of ``full`` and the coverage bound is the largest bit count of the
    reference cover masks."""
    _, (field, index, full), _ = case
    with (patch.object(oracle, "_layout", lambda _: (field, index, full)),
          patch.object(oracle, "_num_constraints", lambda _: full.bit_count()),
          patch.object(oracle, "_cover_bound", lambda _: reference_tables(index, full)[2][0])):
        yield


def search_on(case):
    """(outcome, reference outcome) of a ``constraint_cases`` case."""
    spec, _, budget = case
    with constrained_by(case):
        return search(spec, budget), reference_search(spec, budget)


@given(constraint_cases())
@example(SECOND_LEVEL)
@example(SIX_BLOCK)
@settings(deadline=None)
def test_the_search_matches_the_scanning_reference_on_any_constraints(case):
    outcome, expected = search_on(case)
    assert (outcome.status, outcome.size, outcome.nodes) == (expected.status, expected.size, expected.nodes)
    assert outcome.certificate == expected.certificate


def requirements(index, mask):
    """The requirements of the constraints ``mask`` holds of ``index``,
    sorted, so blocks compare whatever their numbering."""
    return sorted(requirement(index, c) for c in range(mask.bit_length()) if mask >> c & 1)


@given(table_specs())
@settings(deadline=None)
def test_the_layout_holds_each_requirement_once(spec):
    # Each field holds distinct requirements on one column set, its own,
    # and the fields together hold those of ``_constraint_index`` once each.
    field, index, full = _layout(spec)
    laid = [requirements(index, full & (1 << field) - 1 << at) for at in range(0, full.bit_length(), field)]
    column_sets = [{frozenset(j for j, _ in needs) for needs in block} for block in laid]
    assert all(len(sets) == 1 for sets in column_sets) and len(set().union(*column_sets)) == len(laid)
    assert all(len(set(block)) == len(block) for block in laid)
    assert field == 1 << (max(map(len, laid)) - 1).bit_length()
    assert not any(held & ~full for sets in index for held in sets)
    raw, keep = _constraint_index(spec)
    assert sorted(needs for block in laid for needs in block) == requirements(raw, keep)


@pytest.mark.parametrize("spec,layout", [
    # (R, S) = ({a}, {b}) is the pattern (1, 0) on {a, b}, and ({b}, {a})
    # the pattern (0, 1): a field of 2 for each of the column pairs.
    (CffSpec(3, 1, 1), (2, [[0b001010, 0b000101], [0b100001, 0b010010], [0b010100, 0b101000]], 0b111111)),
    # Three symbols at each column, in a field of 4 whose top bit is padding.
    (UniversalSpec(2, 1, 3), (4, [[0b0001, 0b0010, 0b0100], [0b0001 << 4, 0b0010 << 4, 0b0100 << 4]], 0b01110111)),
    # The pairs (R, S) with R = {0}, {1} or {2} on the three columns: the
    # weight-1 patterns, in one field of 4 whose top bit is padding.
    (CffSpec(3, 1, 2), (4, [[0b110, 0b001], [0b101, 0b010], [0b011, 0b100]], 0b111)),
    # The nine patterns over three symbols, in ``product`` order, in one
    # field of 16 whose top seven bits are padding.
    (UniversalSpec(2, 2, 3), (16, [[0b111, 0b111000, 0b111000000], [0b001001001, 0b010010010, 0b100100100]],
                              0b111111111)),
], ids=repr)
def test_a_small_layout(spec, layout):
    assert _layout(spec) == layout


def count_builds(monkeypatch):
    """{name: calls} for ``_scan_tables``, ``_suffix_tables`` and
    ``_last_covers``, counted from here on."""
    calls = {}
    for name in ("_scan_tables", "_suffix_tables", "_last_covers"):
        calls[name] = 0

        def counted(*args, name=name, build=getattr(oracle, name)):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(oracle, name, counted)
    return calls


class TestPinnedSearch:
    @pytest.mark.parametrize("spec", list(SEARCHES), ids=repr)
    def test_outcome(self, spec, monkeypatch):
        # Each search builds at most one table of cover masks.
        calls = count_builds(monkeypatch)
        outcome = search(spec)
        assert (
            outcome.status,
            outcome.size,
            outcome.nodes,
            certificate_sha(outcome.certificate),
        ) == SEARCHES[spec]
        assert max(calls.values()) <= 1, calls

    @pytest.mark.parametrize("spec", list(SEARCHES), ids=repr)
    def test_outcome_with_the_tie_cache_cleared_every_few_candidates(self, spec, monkeypatch):
        # With room for 4 candidates, nearly every tie list, and every few
        # q > 2 candidates' column pairs, clear the cache.
        monkeypatch.setattr(oracle, "_TIE_CAP", 4)
        outcome = search(spec)
        assert (
            outcome.status,
            outcome.size,
            outcome.nodes,
            certificate_sha(outcome.certificate),
        ) == SEARCHES[spec]

    @pytest.mark.parametrize(
        "spec,scans,builds",
        [
            # Each ends at its first level, a lone final row.
            (UniversalSpec(16, 1, 2), 0, 0),
            (CffSpec(14, 0, 3), 0, 0),
            (CffSpec(14, 2, 0), 0, 0),
            # Its first level has three rows to choose after the all-zero row.
            (UniversalSpec(7, 2, 2), 1, 1),
            (CffSpec(7, 1, 1), 1, 1),
        ],
        ids=repr,
    )
    def test_the_suffix_tables_are_built_once_and_only_for_a_non_final_row(self, spec, scans, builds, monkeypatch):
        # The cover masks and last covers too: each final row here is forced
        # or clashes, and only the suffix tables read last covers.
        calls = count_builds(monkeypatch)
        outcome = search(spec)
        assert (
            outcome.status,
            outcome.size,
            outcome.nodes,
            certificate_sha(outcome.certificate),
        ) == SEARCHES[spec]
        assert calls == {"_scan_tables": scans, "_suffix_tables": builds, "_last_covers": builds}

    @pytest.mark.parametrize(
        "case,scans,builds", [(SECOND_LEVEL, 1, 1), (FIRST_LEVEL_SCAN, 1, 0)], ids=["second-level", "first-level-scan"]
    )
    def test_the_cover_masks_are_built_once_where_first_read(self, case, scans, builds, monkeypatch):
        spec, _, budget = case
        with constrained_by(case):
            expected = reference_search(spec, budget)
            calls = count_builds(monkeypatch)
            assert search(spec, budget) == expected
        assert calls == {"_scan_tables": scans, "_suffix_tables": builds, "_last_covers": builds}

    def test_a_scan_the_budget_cannot_pay_is_refused_before_it_runs(self, monkeypatch):
        # 4 candidates up front, a search node, 4 for the final row's first
        # read of its constraint's covers and the 2 covers it would scan
        # come to 11 nodes, so the scan's cover masks are never built.
        spec, _, _ = FIRST_LEVEL_SCAN

        def unpaid(*args):
            raise AssertionError("a scan past the node limit built the cover masks")

        with constrained_by(FIRST_LEVEL_SCAN):
            monkeypatch.setattr(oracle, "_scan_tables", unpaid)
            outcome = search(spec, SearchBudget(max_rows=9, node_limit=10))
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 11)

    def test_a_refusal_lists_its_ties_once_per_half_mask(self, monkeypatch):
        # The oracle workload's refusal builds each whole tie list from the
        # lists of its first 5 columns and of its last 6.
        calls = []

        def counted(width, q, tied):
            calls.append((width, tied))
            return _tie_list(width, q, tied)

        monkeypatch.setattr(oracle, "_tie_list", counted)
        outcome = search(UniversalSpec(11, 3, 2), SearchBudget(node_limit=20_000))
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", 20_001)
        assert {width for width, _ in calls} == {5, 6} and len(set(calls)) == len(calls), calls

    @given(table_specs())
    @example(UniversalSpec(12, 1, 3))  # 12 blocks of 3 in fields of 4 bits
    @example(CffSpec(8, 1, 2))  # 56 blocks of 3 in fields of 4 bits
    @settings(deadline=None)
    def test_a_search_is_charged_one_table_of_its_layouts_width(self, spec):
        field, _, full = _layout(spec)
        bits = -(-full.bit_length() // field) * field
        assert _work(spec, "search", 0) == spec.q**spec.n * (bits + 32) << 9

    @pytest.mark.parametrize(
        "spec,node_limit", [(UniversalSpec(12, 1, 3), 600_000), (CffSpec(12, 1, 1), 10_000)], ids=repr
    )
    def test_the_peak_stays_within_the_charge(self, spec, node_limit):
        # A byte for each bit ``_work`` charges: CPython keeps a b-bit mask
        # in about 28 + b / 7.5 bytes and a list slot in 8. Both searches
        # keep one table of cover masks, laid out in the blocks' fields of 4
        # or 2 bits; (12, 1, 3) peaks at about 37 MiB of the 40.5 charged.
        tracemalloc.start()
        try:
            outcome = search(spec, SearchBudget(node_limit=node_limit))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (outcome.status, outcome.nodes) == ("budget_exceeded", node_limit + 1)
        assert peak <= _work(spec, "search", 0) >> 9

    @pytest.mark.parametrize(
        "node_limit,nodes",
        [
            (15, 16),  # below the 16 candidate rows: refused before the search
            (17, 18),  # the 16 cover masks fit, the search runs out
        ],
    )
    def test_node_budget_refusals(self, node_limit, nodes):
        outcome = minimal_universal_size(
            UniversalSpec(4, 2, 2), SearchBudget(max_rows=8, node_limit=node_limit)
        )
        assert (outcome.status, outcome.size, outcome.certificate, outcome.nodes) == (
            "budget_exceeded",
            None,
            None,
            nodes,
        )

    # Between them these run out of nodes at each place the search charges
    # them: a search node, a non-final row's scan, and a final row's covers,
    # at a first read or a later one, scanned or forced at every column.
    @pytest.mark.parametrize(
        "spec",
        [UniversalSpec(4, 2, 2), CffSpec(5, 1, 1), UniversalSpec(3, 2, 3), CffSpec(5, 1, 2),
         CffSpec(4, 2, 0), UniversalSpec(2, 1, 3)],
        ids=repr,
    )
    def test_every_node_limit_finishes_or_refuses(self, spec):
        unlimited = search(spec)
        for limit in range(1, unlimited.nodes + 3):
            outcome = search(spec, SearchBudget(node_limit=limit))
            if unlimited.nodes <= limit:
                assert outcome == unlimited, limit
            else:
                assert (outcome.status, outcome.size, outcome.nodes) == (
                    "budget_exceeded", None, limit + 1
                ), limit


@pytest.mark.parametrize("fields", [{"max_rows": 0}, {"node_limit": 0}])
def test_a_budget_field_must_be_positive(fields):
    with pytest.raises(ParameterError, match="budget fields must be positive"):
        SearchBudget(**fields)


# The exact minima of every spec with q**n <= 2**7, None where the minimum
# exceeds 9 rows, computed by the search without its symmetry breaks.
# (q, n): the minimum for d = 1, ..., n.
UNIVERSAL_MINIMA = {
    (2, 1): (2,),
    (2, 2): (2, 4),
    (2, 3): (2, 4, 8),
    (2, 4): (2, 5, 8, None),
    (2, 5): (2, 6, None, None, None),
    (2, 6): (2, 6, None, None, None, None),
    (2, 7): (2, 6, None, None, None, None, None),
    (3, 1): (3,),
    (3, 2): (3, 9),
    (3, 3): (3, 9, None),
    (3, 4): (3, 9, None, None),
    (4, 1): (4,),
    (4, 2): (4, None),
    (4, 3): (4, None, None),
}
# (n, r): the minimum for each s with 1 <= r + s <= n, in increasing s.
CFF_MINIMA = {
    (1, 0): (1,),
    (1, 1): (1,),
    (2, 0): (1, 1),
    (2, 1): (1, 2),
    (2, 2): (1,),
    (3, 0): (1, 1, 1),
    (3, 1): (1, 3, 3),
    (3, 2): (1, 3),
    (3, 3): (1,),
    (4, 0): (1, 1, 1, 1),
    (4, 1): (1, 4, 4, 4),
    (4, 2): (1, 4, 6),
    (4, 3): (1, 4),
    (4, 4): (1,),
    (5, 0): (1, 1, 1, 1, 1),
    (5, 1): (1, 4, 5, 5, 5),
    (5, 2): (1, 5, None, None),
    (5, 3): (1, 5, None),
    (5, 4): (1, 5),
    (5, 5): (1,),
    (6, 0): (1, 1, 1, 1, 1, 1),
    (6, 1): (1, 4, 6, 6, 6, 6),
    (6, 2): (1, 6, None, None, None),
    (6, 3): (1, 6, None, None),
    (6, 4): (1, 6, None),
    (6, 5): (1, 6),
    (6, 6): (1,),
    (7, 0): (1, 1, 1, 1, 1, 1, 1),
    (7, 1): (1, 5, 7, 7, 7, 7, 7),
    (7, 2): (1, 7, None, None, None, None),
    (7, 3): (1, 7, None, None, None),
    (7, 4): (1, 7, None, None),
    (7, 5): (1, 7, None),
    (7, 6): (1, 7),
    (7, 7): (1,),
}


def small_specs():
    for (q, n), minima in UNIVERSAL_MINIMA.items():
        for d, size in enumerate(minima, 1):
            yield UniversalSpec(n, d, q), size
    for (n, r), minima in CFF_MINIMA.items():
        for s, size in enumerate(minima, 1 if r == 0 else 0):
            yield CffSpec(n, r, s), size


def is_double_lex(rows):
    columns = list(zip(*rows))
    return list(rows) == sorted(rows) and columns == sorted(columns)


@pytest.mark.parametrize("spec,size", list(small_specs()), ids=repr)
def test_symmetry_breaks_keep_every_small_minimum(spec, size):
    outcome = search(spec, SearchBudget(max_rows=9, node_limit=3_000_000))
    assert (outcome.status, outcome.size) == (("infeasible", None) if size is None else ("found", size))
    if size is None:
        return
    rows = outcome.certificate.rows
    assert is_double_lex(rows)
    if isinstance(spec, UniversalSpec):
        assert verify_universal(outcome.certificate, spec.d).valid
        assert rows[0] == bytes(spec.n)
    else:
        assert verify_cff(outcome.certificate, spec.r, spec.s).valid
