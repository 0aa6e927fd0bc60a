import hashlib
import time
import tracemalloc
from bisect import bisect_left
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

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
from coverkit.core import _check_work
from coverkit.oracle import SearchOutcome, _OutOfNodes, _scan_tables, _tie_list
from coverkit.verify import _constraint_index


class TestMinimalUniversal:
    @pytest.mark.parametrize("n,d,q,expected", [(2, 2, 2, 4), (3, 2, 2, 4), (4, 2, 2, 5)])
    def test_ground_truth(self, n, d, q, expected):
        outcome = minimal_universal_size(UniversalSpec(n, d, q))
        assert outcome.found
        assert outcome.size == expected
        assert outcome.certificate.num_rows == expected
        assert verify_universal(outcome.certificate, d).valid

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


def reference_tables(spec):
    """(cover, suffix_or, suffix_max, last) by the per-candidate loops: the
    masks a column at a time, the suffix tables a candidate at a time from
    the end, and a constraint's last cover where the suffix unions drop it."""
    index, size = _constraint_index(spec)
    full = (1 << size) - 1
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
    last = [0] * size
    for i in range(count):
        ends = suffix_or[i] & ~suffix_or[i + 1]
        while ends:
            low = ends & -ends
            last[low.bit_length() - 1] = i
            ends ^= low
    return cover, suffix_or, suffix_max, last


@st.composite
def table_specs(draw):
    """Universal specs with n <= 7 at q = 2 and 3, and cover-free specs with
    n <= 8, r = 0 and s = 0 included."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        return UniversalSpec(n, draw(st.integers(1, n)), draw(st.sampled_from((2, 3))))
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, n))
    return CffSpec(n, r, draw(st.integers(1 if r == 0 else 0, n - r)))


@given(table_specs())
@settings(deadline=None)
def test_the_scan_tables_match_the_per_candidate_loops(spec):
    cover, suffix_or, suffix_max, last = reference_tables(spec)
    assert _scan_tables(spec)[1:] == (cover, suffix_or, suffix_max, last)
    for c, i in enumerate(last):
        assert cover[i] >> c & 1 and not suffix_or[i + 1] >> c & 1, c


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


def certificate_sha(m):
    return None if m is None else hashlib.sha256("\n".join(m.row_strings()).encode()).hexdigest()


# (status, size, nodes, sha256 of the certificate rows): the nodes pin the
# search path, not just the minimum. Nodes count search nodes, scanned
# candidates and q**n per cover-mask scan.
SEARCHES = {
    UniversalSpec(4, 2, 2): ("found", 5, 160, "5ace6d852cdab38f6629510bbdae086998b322e0e5e76f53f1c73a030a08e10f"),
    UniversalSpec(5, 2, 2): ("found", 6, 2677, "84f8e5e12271d71d1ad6172a2bb7d628d9a5f2a8fbc1f7a6c60f065fae91b348"),
    UniversalSpec(2, 1, 3): ("found", 3, 28, "6809a683cdd8563f77719218f8b0f91f2f80edd5f7a7a5f5b6c11508da38db67"),
    UniversalSpec(6, 2, 2): ("found", 6, 26701, "be57e429aeef33c8e367f53dea8057b3ea67fa3b861c0383e1b090378686f30a"),
    CffSpec(7, 1, 1): ("found", 5, 19102, "b2c692404ec8ea3e28d99c1973b393779bb065be182fa4f19060cfae7be9da00"),
    CffSpec(7, 1, 2): ("found", 7, 11465, "a9b308a6a3996bfa101482b1e0ccbfd050cc918137be6dbec46b90537d51e94e"),
    CffSpec(3, 1, 2): ("found", 3, 24, "1d52ee03dff97a7a4281b36c7fd78f73540d3a57e897d8bcf3fb720b828d2625"),
    CffSpec(4, 0, 2): ("found", 1, 34, "9af15b336e6a9619928537df30b2e6a2376569fcf9d7e773eccede65606529a0"),
    CffSpec(4, 2, 0): ("found", 1, 37, "0ffe1abd1a08215353c233d6e009613e95eec4253832a761af28ff37ac5a150c"),
    CffSpec(10, 2, 0): ("found", 1, 2305, "d2d02ea74de2c9fab1d802db969c18d409a8663a9697977bb1c98ccdd9de4372"),
    # Many cover masks and a final row drawn from one constraint's covers.
    UniversalSpec(16, 1, 2): ("found", 2, 163841, "67e47f8d3b8f5a8cd225b3000f6a7cd7d88c66d298c60ffbbcab2707f6ec3707"),
    CffSpec(14, 0, 3): ("found", 1, 32770, "2e6e15a38c6fe8b624fca13be00a737947a8096fd5620795696b5b63cd7feea4"),
    # The search-heavy cases of the benchmark's oracle workload.
    UniversalSpec(7, 2, 2): ("found", 6, 228113, "d16b2c164978c2c3c9f3ddccf9965d605a399348caac42198d7d59689bc1a7a0"),
    CffSpec(8, 1, 1): ("found", 5, 213441, "03d1e883f581767d48e6d3dc5a046058bbad19de3acecc95d914b8468adcd95f"),
    CffSpec(14, 2, 0): ("found", 1, 36865, "79f7928f3deb7436d6e110dfae37e8f80ea9c65f55ea84eb449895b63bc5909e"),
    UniversalSpec(8, 2, 2): ("found", 6, 1676843, "f22c7499603f1297113fc895a65dacfe87a6fc7d42c6f6e46cb3dfd64744ee12"),
    # A ternary search, whose column pairs are read from the digits, and the
    # longest non-final scans.
    UniversalSpec(12, 1, 3): ("found", 3, 1505752, "f8d9fc942d056b8465c796f127c444df1532843c7ad10a88ea19497ceab80709"),
    CffSpec(8, 1, 2): ("found", 8, 3012067, "e226c58e87d753baad42cbe74e91b7baf0ae31e58c04721d25c21a54859ea232"),
}


def search(spec, budget=SearchBudget()):
    if isinstance(spec, UniversalSpec):
        return minimal_universal_size(spec, budget)
    return minimal_cff_size(spec, budget)


def reference_search(spec, budget):
    """``_search_minimal`` as it was before the final row was read from the
    symbols its uncovered constraints force: every final row is found by a
    scan of the covers of the first uncovered constraint, one node per
    candidate scanned, each tested against the tied column pairs. Verbatim
    but for its tables, which come from ``reference_tables``, and its
    column-pair masks, from ``reference_pairs``."""
    n, q, limit = spec.n, spec.q, budget.node_limit
    try:
        _check_work(spec, "search")
    except ResourceLimitError:
        return SearchOutcome("budget_exceeded", nodes=0)
    count = nodes = q**n
    if nodes > limit:
        return SearchOutcome("budget_exceeded", nodes=limit + 1)
    cover, suffix_or, suffix_max, max_row_for = reference_tables(spec)
    num_constraints = len(max_row_for)
    full = (1 << num_constraints) - 1
    dec, eq = reference_pairs(n, q)

    # covers_of[c]: the candidates covering constraint c, in order, built
    # when the final-row loop first needs them.
    covers_of: dict[int, list[int]] = {}

    lower = -(-num_constraints // suffix_max[0])  # the coverage bound

    chosen: list[int] = []

    def dfs(last: int, uncovered: int, rows_left: int, tied: int) -> bool:
        """Whether rows_left more rows from ``last`` on, none decreasing a
        ``tied`` column pair, cover ``uncovered``; each candidate scanned
        costs a node."""
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
                if nodes > limit:
                    raise _OutOfNodes
                bit = 1 << first
                covers_of[first] = [i for i, mask in enumerate(cover) if mask & bit]
            # A step per cover from ``last`` on, as far as the budget reaches.
            covers = covers_of[first]
            lo = bisect_left(covers, last)
            stop = min(len(covers), lo + limit - nodes)
            for k in range(lo, stop):
                i = covers[k]
                if uncovered & ~cover[i] == 0 and not tied & dec[i]:
                    nodes += k + 1 - lo
                    chosen.append(i)
                    return True
            nodes += stop - lo
            if stop < len(covers):
                raise _OutOfNodes
            return False
        hi, need = max_row_for[first], uncovered.bit_count()
        # Scanning candidate i brings nodes to base + i + 1.
        base = nodes - last
        for i in range(last, hi + 1):
            if tied & dec[i]:
                continue
            newly = cover[i] & uncovered
            if not newly:
                continue
            if need - newly.bit_count() > (rows_left - 1) * suffix_max[i]:
                continue
            nodes = base + i + 1
            if nodes > limit:
                raise _OutOfNodes
            chosen.append(i)
            if dfs(i, uncovered & ~cover[i], rows_left - 1, tied & eq[i]):
                return True
            chosen.pop()
            base = nodes - i - 1
        nodes = base + hi + 1
        if nodes > limit:
            raise _OutOfNodes
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


@given(search_cases())
@settings(deadline=None)
def test_the_search_matches_the_scanning_reference(case):
    spec, budget = case
    outcome, expected = search(spec, budget), reference_search(spec, budget)
    assert (outcome.status, outcome.size, outcome.nodes) == (expected.status, expected.size, expected.nodes)
    assert outcome.certificate == expected.certificate


@st.composite
def constraint_cases(draw):
    """A spec standing for n columns over q symbols, an index of random
    constraints on them in place of its own, and a node limit. Two of the
    constraints need different symbols at column 0, so no row covers every
    constraint and the all-zero start of a universal set leaves some
    uncovered. Such constraints break the column symmetry the search
    relies on, so a final row decreasing a tied column pair is common."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(2, {2: 7, 3: 4, 4: 3}[q]))
    requirement = st.dictionaries(st.integers(0, n - 1), st.integers(0, q - 1), min_size=1)
    constraints = draw(st.permutations([{0: 0}, {0: 1}, *draw(st.lists(requirement, max_size=12))]))
    index = [[0] * q for _ in range(n)]
    for i, requires in enumerate(constraints):
        for j, c in requires.items():
            index[j][c] |= 1 << i
    spec = UniversalSpec(n, 1, q) if q > 2 or draw(st.booleans()) else CffSpec(n, 1, 0)
    budget = SearchBudget(max_rows=9, node_limit=draw(st.integers(1, 30_000)))
    return spec, (index, len(constraints)), budget


@given(constraint_cases())
@settings(deadline=None)
def test_the_search_matches_the_scanning_reference_on_any_constraints(case):
    spec, index, budget = case

    def fake(_):
        return index

    with patch.object(oracle, "_constraint_index", fake), patch.dict(globals(), _constraint_index=fake):
        outcome, expected = search(spec, budget), reference_search(spec, budget)
    assert (outcome.status, outcome.size, outcome.nodes) == (expected.status, expected.size, expected.nodes)
    assert outcome.certificate == expected.certificate


class TestPinnedSearch:
    @pytest.mark.parametrize("spec", list(SEARCHES), ids=repr)
    def test_outcome(self, spec):
        outcome = search(spec)
        assert (
            outcome.status,
            outcome.size,
            outcome.nodes,
            certificate_sha(outcome.certificate),
        ) == SEARCHES[spec]

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

    # Between them these run out of nodes at each place the search counts
    # them: a search node, a scanned candidate, a final row's cover list, a
    # final row's scan of it and a final row forced at every column.
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
        assert rows[0] == (0,) * spec.n
    else:
        assert verify_cff(outcome.certificate, spec.r, spec.s).valid
