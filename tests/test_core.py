import dataclasses
import enum
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from coverkit import (
    AlphabetError,
    CffSpec,
    CoverkitError,
    FormatError,
    ParameterError,
    ResourceLimitError,
    SymbolMatrix,
    UniversalSpec,
    build_universal_lemma1,
    complement,
    construct_cff_derandomized,
    construct_cff_randomized,
    construct_cff_sperner,
    construct_universal_greedy,
    count_uncovered,
    dedup_rows,
    minimal_universal_size,
    read_array,
    verify_cff,
    verify_universal,
)
from coverkit.core import WORK_BUDGET, _check_work, _num_constraints, _work, decode_row

from test_cli import child_env


def reference_check_row(row, n, q, index):
    """The per-symbol rule the constructor keeps: the row as bytes, one byte
    a symbol, or the first error, with its message."""
    t = tuple(row)
    if len(t) != n:
        raise ParameterError(f"row {index} has {len(t)} entries, expected {n}")
    for sym in t:
        if not isinstance(sym, int) or isinstance(sym, bool) or not 0 <= sym < q:
            raise AlphabetError(f"row {index} contains symbol {sym!r} outside 0..{q - 1}")
    return bytes(t)


def reference_decode_row(text, q, where):
    """The per-character decoder: each character's index in the digits."""
    row = tuple(map("0123456789abcdefghijklmnopqrstuvwxyz".find, text))
    for sym, ch in zip(row, text):
        if not 0 <= sym < q:
            what = f"{ch!r} is not a symbol digit" if sym < 0 else f"symbol {sym} out of range for q={q}"
            raise AlphabetError(f"{where}: {what}")
    return row


class Colour(enum.IntEnum):
    RED = 0
    GREEN = 1
    BLUE = 40


@st.composite
def candidate_rows(draw):
    """(n, q, rows): rows near length n of ints in and out of 0..q-1 and
    past a byte, bools, IntEnum members, floats and None, as tuples and
    lists, and as bytes and bytearrays where the symbols fit a byte."""
    n, q = draw(st.integers(1, 6)), draw(st.integers(2, 36))
    in_range = st.integers(0, q - 1)
    ints = in_range | st.integers(-2, 300) | st.sampled_from((-1, q, 255, 256, 2**70))
    anything = ints | st.booleans() | st.sampled_from(Colour) | st.floats(0, 3) | st.none()
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.sampled_from((n, n, n, n - 1, n + 1)))
        symbol = draw(st.sampled_from((in_range, ints, anything)))
        syms = draw(st.lists(symbol, min_size=length, max_size=length))
        kinds = [tuple, list]
        if all(isinstance(sym, int) and 0 <= sym < 256 for sym in syms):
            kinds += [bytes, bytearray]
        rows.append(draw(st.sampled_from(kinds))(syms))
    return n, q, rows


def matrices(max_n=5, max_rows=7, qs=(2,)):
    def build(args):
        n, q, rows = args
        return SymbolMatrix(n=n, q=q, rows=tuple(tuple(r) for r in rows))

    return (
        st.tuples(st.integers(1, max_n), st.sampled_from(qs))
        .flatmap(
            lambda nq: st.tuples(
                st.just(nq[0]),
                st.just(nq[1]),
                st.lists(
                    st.lists(st.integers(0, nq[1] - 1), min_size=nq[0], max_size=nq[0]),
                    max_size=max_rows,
                ),
            )
        )
        .map(build)
    )


class TestSpecs:
    def test_universal_spec_accepts_valid(self):
        spec = UniversalSpec(n=5, d=3, q=4)
        assert (spec.n, spec.d, spec.q) == (5, 3, 4)

    @pytest.mark.parametrize("n,d,q", [(0, 1, 2), (3, 0, 2), (3, 4, 2), (3, 2, 1), (3, 2, 37)])
    def test_universal_spec_rejects(self, n, d, q):
        with pytest.raises(ParameterError):
            UniversalSpec(n=n, d=d, q=q)

    def test_cff_spec_d_accessor(self):
        assert CffSpec(n=6, r=2, s=3).d == 5

    def test_cff_spec_is_binary_and_keeps_its_three_fields(self):
        spec = CffSpec(4, 1, 1)
        assert spec.q == CffSpec.q == 2
        assert [f.name for f in dataclasses.fields(CffSpec)] == ["n", "r", "s"]
        assert dataclasses.asdict(spec) == {"n": 4, "r": 1, "s": 1}
        assert repr(spec) == "CffSpec(n=4, r=1, s=1)"
        with pytest.raises(TypeError):
            CffSpec(4, 1, 1, q=3)
        with pytest.raises(AttributeError):
            spec.q = 3

    @pytest.mark.parametrize("n,r,s", [(4, 0, 0), (4, -1, 2), (4, 2, 3), (0, 1, 1)])
    def test_cff_spec_rejects(self, n, r, s):
        with pytest.raises(ParameterError):
            CffSpec(n=n, r=r, s=s)


class TestSymbolMatrix:
    def test_symbols_validated_at_construction(self):
        with pytest.raises(AlphabetError):
            SymbolMatrix(n=2, q=2, rows=((0, 2),))

    def test_row_length_validated(self):
        with pytest.raises(ParameterError):
            SymbolMatrix(n=3, q=2, rows=((0, 1),))

    def test_bool_is_not_a_symbol(self):
        with pytest.raises(AlphabetError):
            SymbolMatrix(n=1, q=2, rows=((True,),))

    def test_empty_matrix_allowed(self):
        m = SymbolMatrix(n=4, q=3)
        assert m.num_rows == 0

    def test_from_strings_round_trip(self):
        m = SymbolMatrix.from_strings(["01a", "9zz"], q=36)
        assert m.rows == (b"\x00\x01\x0a", b"\x09\x23\x23")
        assert m.row_strings() == ["01a", "9zz"]

    def test_immutable(self):
        m = SymbolMatrix.from_strings(["01"])
        with pytest.raises(AttributeError):
            m.n = 5

    def test_from_no_strings_needs_n(self):
        with pytest.raises(ParameterError, match="^empty matrix needs an explicit n$"):
            SymbolMatrix.from_strings([])
        assert SymbolMatrix.from_strings([], n=3) == SymbolMatrix(n=3, q=2)

    @pytest.mark.parametrize("rows, message", [
        (["01", "0!"], "row 1: '!' is not a symbol digit"),
        (["2!"], "row 0: symbol 2 out of range for q=2"),
        (["!2"], "row 0: '!' is not a symbol digit"),
        (["0x"], "row 0: symbol 33 out of range for q=2"),
        (["0é"], "row 0: 'é' is not a symbol digit"),
    ])
    def test_from_strings_names_the_first_bad_character(self, rows, message):
        with pytest.raises(AlphabetError) as info:
            SymbolMatrix.from_strings(rows)
        assert str(info.value) == message

    @given(candidate_rows())
    def test_accepts_exactly_what_the_per_symbol_rule_accepts(self, case):
        n, q, rows = case
        try:
            expected = tuple(reference_check_row(row, n, q, i) for i, row in enumerate(rows))
        except (AlphabetError, ParameterError) as exc:
            with pytest.raises(type(exc)) as info:
                SymbolMatrix(n=n, q=q, rows=rows)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
        else:
            m = SymbolMatrix(n=n, q=q, rows=rows)
            assert m.rows == expected
            assert all(type(row) is bytes for row in m.rows)

    def test_a_row_of_int_subclasses_is_checked_symbol_by_symbol(self):
        # Not exact ints, so the row skips the one translate and passes the
        # symbol-by-symbol scan.
        m = SymbolMatrix(n=2, q=2, rows=((Colour.RED, Colour.GREEN),))
        assert m.rows == (b"\x00\x01",)

    def test_every_path_stores_bytes(self):
        expected = SymbolMatrix(n=3, q=3, rows=(b"\x00\x01\x02", b"\x02\x02\x00"))
        for m in (SymbolMatrix(n=3, q=3, rows=((0, 1, 2), [2, 2, 0])),
                  SymbolMatrix(n=3, q=3, rows=(bytearray(b"\x00\x01\x02"), b"\x02\x02\x00")),
                  SymbolMatrix(n=3, q=3, rows=((Colour.RED, Colour.GREEN, 2), (2, 2, Colour.RED))),
                  SymbolMatrix.from_strings(["012", "220"], q=3),
                  read_array("kind=raw n=3 q=3 rows=2\n012\n220\n")[0],
                  dedup_rows(SymbolMatrix(n=3, q=3, rows=expected.rows * 2))):
            assert type(m.rows) is tuple and [type(row) for row in m.rows] == [bytes, bytes]
            assert (m, hash(m), m.rows) == (expected, hash(expected), expected.rows)
        built = [complement(SymbolMatrix(n=2, q=2, rows=((0, 1),))),
                 construct_cff_sperner(5),
                 construct_cff_derandomized(CffSpec(5, 1, 2))[0],
                 construct_cff_derandomized(CffSpec(5, 0, 2))[0],  # the constant row
                 construct_cff_randomized(CffSpec(5, 1, 2), seed=1),
                 build_universal_lemma1(5, 2),
                 construct_universal_greedy(UniversalSpec(4, 2, 3))[0],
                 minimal_universal_size(UniversalSpec(3, 2)).certificate]
        for m in built:
            assert m.rows and {type(row) for row in m.rows} == {bytes}

    @given(st.integers(2, 36), st.text(
        st.sampled_from("0123456789abcdefghijklmnopqrstuvwxyzA!/:`{é\udc80\x00\xff"), max_size=8))
    def test_decode_row_decodes_as_the_per_character_rule(self, q, text):
        try:
            expected = reference_decode_row(text, q, "row 3")
        except AlphabetError as exc:
            with pytest.raises(AlphabetError) as info:
                decode_row(text, q, where="row 3")
            assert str(info.value) == str(exc)
        else:
            assert tuple(decode_row(text, q, where="row 3")) == expected

    @pytest.mark.parametrize("rows, q, message", [
        (["01"], 1, "alphabet size must be in [2, 36], got 1"),
        (["0!"], 37, "alphabet size must be in [2, 36], got 37"),
        (["", "!"], 2, "n must be positive, got 0"),
        (["01", "0", "!1"], 2, "row 1 has 1 entries, expected 2"),
    ])
    def test_from_strings_checks_the_shape_then_each_row_in_turn(self, rows, q, message):
        with pytest.raises(ParameterError) as info:
            SymbolMatrix.from_strings(rows, q=q)
        assert type(info.value) is ParameterError and str(info.value) == message

    @given(matrices(max_n=6, max_rows=6, qs=(2, 3, 17, 36)))
    def test_from_strings_builds_what_the_constructor_builds(self, m):
        built = SymbolMatrix.from_strings(m.row_strings(), q=m.q, n=m.n)
        assert (built, hash(built), repr(built)) == (m, hash(m), repr(m))
        with pytest.raises(AttributeError):
            built.rows = ()

    @pytest.mark.parametrize("rows, kwargs, message", [
        (["01", "0"], {}, "row 1 has 1 entries, expected 2"),
        (["01"], {"n": 3}, "row 0 has 2 entries, expected 3"),
        ([""], {}, "n must be positive, got 0"),
        (["01"], {"q": 37}, "alphabet size must be in [2, 36], got 37"),
        (["00"], {"q": 1}, "alphabet size must be in [2, 36], got 1"),
    ])
    def test_from_strings_keeps_the_constructor_messages(self, rows, kwargs, message):
        q, n = kwargs.get("q", 2), kwargs.get("n", len(rows[0]))
        symbols = tuple(tuple(map(int, row)) for row in rows)
        for build in (lambda: SymbolMatrix.from_strings(rows, **kwargs),
                      lambda: SymbolMatrix(n=n, q=q, rows=symbols)):
            with pytest.raises(ParameterError) as info:
                build()
            assert str(info.value) == message

    def test_repr_shows_eight_rows(self):
        m = SymbolMatrix.from_strings([format(i, "04b") for i in range(9)])
        assert repr(m) == (
            "SymbolMatrix(n=4, q=2, rows[9]=[0000,0001,0010,0011,0100,0101,0110,0111,...])"
        )
        assert repr(SymbolMatrix(n=2, q=3)) == "SymbolMatrix(n=2, q=3, rows[0]=[])"


class TestComplement:
    def test_flips_bits_preserving_order(self):
        m = SymbolMatrix.from_strings(["00", "11"])
        assert complement(m).row_strings() == ["11", "00"]

    def test_rejects_non_binary(self):
        m = SymbolMatrix.from_strings(["012"], q=3)
        with pytest.raises(AlphabetError):
            complement(m)

    @given(matrices())
    def test_involution(self, m):
        assert complement(complement(m)) == m

    def test_verified_cff_complements_to_swapped_cff(self):
        # (1, 1) is self-dual under complement since r == s.
        m = construct_cff_sperner(4)
        assert verify_cff(m, 1, 1).valid
        assert verify_cff(complement(m), 1, 1).valid


class TestDedupRows:
    def test_keeps_first_occurrence_in_order(self):
        m = SymbolMatrix.from_strings(["00", "11", "00"])
        assert dedup_rows(m).row_strings() == ["00", "11"]

    def test_identity_on_distinct_rows(self):
        m = SymbolMatrix.from_strings(["01", "10", "11"])
        assert dedup_rows(m) == m

    def test_union_of_components_row_count(self):
        # all-zero row + all-one row + a (4, (1, 1)) family with no
        # constant rows: six distinct rows in total.
        parts = (
            SymbolMatrix.from_strings(["0000"]),
            SymbolMatrix.from_strings(["1111"]),
            construct_cff_sperner(4),
        )
        assert all(not all(row) and any(row) for row in parts[2].rows)
        union = SymbolMatrix(
            n=4, q=2, rows=parts[0].rows + parts[1].rows + parts[2].rows
        )
        assert dedup_rows(union).num_rows == 6

    @given(matrices())
    def test_idempotent(self, m):
        once = dedup_rows(m)
        assert dedup_rows(once) == once

    @given(matrices(max_n=4, max_rows=6), st.integers(1, 4))
    def test_never_changes_universal_verdict(self, m, d):
        if d > m.n:
            d = m.n
        assert verify_universal(m, d) == verify_universal(dedup_rows(m), d)

    @given(matrices(max_n=4, max_rows=6), st.integers(0, 2), st.integers(0, 2))
    def test_never_changes_cff_verdict(self, m, r, s):
        if not 1 <= r + s <= m.n:
            return
        assert verify_cff(m, r, s) == verify_cff(dedup_rows(m), r, s)


def specs(max_n=400, max_d=16, max_q=36):
    """Universal and cover-free specs of up to ``max_n`` columns."""
    universal = st.builds(
        lambda n, d, q: UniversalSpec(n, min(d, n), q),
        st.integers(1, max_n),
        st.integers(1, max_d),
        st.integers(2, max_q),
    )
    cff = st.builds(
        lambda n, rs: CffSpec(max(n, sum(rs)), *rs),
        st.integers(1, max_n),
        st.tuples(st.integers(0, max_d), st.integers(0, max_d)).filter(lambda rs: sum(rs) >= 1),
    )
    return universal | cff


def admitted(spec, op, rows=0):
    try:
        _check_work(spec, op, rows)
    except ResourceLimitError:
        return False
    return True


def grown(spec):
    """``spec`` with one more column, and, while C(n, k) still grows in k,
    with d, r or s one larger."""
    if isinstance(spec, UniversalSpec):
        yield UniversalSpec(spec.n + 1, spec.d, spec.q)
        if 2 * (spec.d + 1) <= spec.n:
            yield UniversalSpec(spec.n, spec.d + 1, spec.q)
    else:
        yield CffSpec(spec.n + 1, spec.r, spec.s)
        if 2 * (spec.d + 1) <= spec.n:
            yield CffSpec(spec.n, spec.r + 1, spec.s)
            yield CffSpec(spec.n, spec.r, spec.s + 1)


OPS = st.sampled_from(["construct", "verify", "search", "count"])


class TestWork:
    @given(specs(max_n=40, max_d=6, max_q=6), OPS, st.integers(0, 300))
    @settings(deadline=None)
    def test_monotone(self, spec, op, rows):
        work = _work(spec, op, rows)
        assert _work(spec, op, rows + 1) >= work
        for bigger in grown(spec):
            assert _work(bigger, op, rows) >= work, bigger

    @given(specs(max_d=12), OPS, st.integers(0, 300))
    @settings(deadline=None)
    def test_the_check_refuses_exactly_past_the_budget(self, spec, op, rows):
        # So the exponent pre-screen refuses no spec the estimate admits.
        assert admitted(spec, op, rows) is (_work(spec, op, rows) <= WORK_BUDGET)

    @given(specs())
    def test_refuses_every_spec_the_count_caps_refused(self, spec):
        # The caps this budget replaced: 2**26 constraints for a
        # construction, 2**24 patterns for a verifier's scan of at least one
        # row, and for the oracle 2**20 candidate rows or 2**26 cover-mask
        # bits. A construction's self-verify of at least one row counts as
        # part of it.
        m, q = _num_constraints(spec), spec.q
        if m > 2**26:
            assert not admitted(spec, "construct") or not admitted(spec, "verify", 1)
        if isinstance(spec, UniversalSpec) and q**spec.d > 2**24:
            assert not admitted(spec, "verify", 1)
        if q**spec.n > 2**20 or q**spec.n * m > 2**26:
            assert not admitted(spec, "search")

    def test_the_last_pattern_space_kept(self):
        # 2**24 patterns stay admitted with a few rows; the next larger
        # pattern space, 28**5, is refused on one row.
        assert admitted(UniversalSpec(25, 24, 2), "verify", 50)
        larger = min(q**d for q in range(2, 37) for d in range(1, 25) if q**d > 2**24)
        assert larger == 28**5
        assert not admitted(UniversalSpec(5, 5, 28), "verify", 1)

    # (spec, the rows a construct route is given: its Las Vegas batch or 0,
    # the rows of its output or an upper bound on them)
    BUILDS = [
        # the construct workload of the benchmark, with its pinned row counts
        (CffSpec(14, 2, 2), 0, 45),
        (CffSpec(15, 2, 2), 0, 48),
        (CffSpec(17, 2, 2), 0, 49),
        (CffSpec(18, 2, 2), 0, 52),
        (CffSpec(20, 1, 3), 0, 29),
        (CffSpec(20, 3, 1), 0, 31),
        (CffSpec(10, 3, 3), 0, 119),
        (CffSpec(12, 2, 3), 0, 71),
        (CffSpec(12, 3, 2), 0, 73),
        (CffSpec(24, 2, 2), 0, 61),
        (CffSpec(24, 2, 2), 16, 192),
        (UniversalSpec(16, 4, 2), 0, 59),
        (UniversalSpec(14, 3, 3), 0, 81),
        (UniversalSpec(7, 3, 5), 0, 253),
        # the components of lemma1 (16, 4) and, at batch 16, of (14, 5)
        (CffSpec(16, 0, 4), 0, 1),
        (CffSpec(16, 1, 3), 0, 97),
        (CffSpec(16, 2, 2), 0, 97),
        (CffSpec(14, 0, 5), 16, 1),
        (CffSpec(14, 1, 4), 16, 720),
        (CffSpec(14, 2, 3), 16, 720),
        # the commands that rebuild the benchmark's pinned verify inputs
        (UniversalSpec(30, 4, 2), 0, 81),
        (CffSpec(40, 2, 2), 0, 82),
        (UniversalSpec(16, 3, 3), 0, 84),
        # Las Vegas (40, (2, 2)) at its default batch
        (CffSpec(40, 2, 2), 16, 200),
    ]

    @pytest.mark.parametrize("spec, batch, rows", BUILDS)
    def test_admits_the_benchmarked_builds_and_their_self_verify(self, spec, batch, rows):
        assert admitted(spec, "construct", batch)
        assert admitted(spec, "verify", rows)

    @pytest.mark.parametrize("spec, rows", [
        # lemma1's unions, and the random matrices the verify workload draws
        (UniversalSpec(16, 4, 2), 97),
        (UniversalSpec(14, 5, 2), 720),
        (CffSpec(20, 2, 2), 300),
        (UniversalSpec(16, 4, 2), 300),
        # the Sperner antichain at n = 2000: its 14 rows, and the 11 its
        # admission assumes
        (CffSpec(2000, 1, 1), 14),
        (CffSpec(2000, 1, 1), 11),
    ])
    def test_admits_the_benchmarked_verifies(self, spec, rows):
        assert admitted(spec, "verify", rows)

    @pytest.mark.parametrize("spec", [
        UniversalSpec(6, 2),
        UniversalSpec(7, 2),
        CffSpec(7, 1, 1),
        CffSpec(8, 1, 1),
        CffSpec(7, 1, 2),
        CffSpec(14, 2, 0),
        CffSpec(14, 0, 3),
        UniversalSpec(16, 1),
        UniversalSpec(11, 3),
        UniversalSpec(14, 3),
        UniversalSpec(8, 2),
        CffSpec(8, 1, 2),
    ])
    def test_admits_the_benchmarked_searches(self, spec):
        assert admitted(spec, "search")

    def test_refuses_what_runs_for_minutes(self):
        assert not admitted(CffSpec(90, 2, 2), "construct")
        assert not admitted(CffSpec(8000, 1, 1), "construct")
        assert not admitted(UniversalSpec(1000, 3, 2), "verify", 200)
        # a constant-row family of 67,863,915 constraints, refused by its
        # one-row self-verify
        assert not admitted(CffSpec(29, 0, 13), "verify", 1)
        # a Las Vegas batch of 10**8 rows; 10**6 took 4.3 s and 172 MB
        assert not admitted(CffSpec(4, 1, 1), "construct", 10**8)

    def test_a_huge_las_vegas_batch_is_refused_at_once(self):
        # 10**8 rows would take minutes and some 15 GB, so each call runs in
        # a child with 1 GiB of address space, through both entry points.
        code = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import time\n"
            "from coverkit import CffSpec, ResourceLimitError, build_universal_lemma1\n"
            "from coverkit import construct_cff_randomized\n"
            "for call in (lambda: construct_cff_randomized(CffSpec(4, 1, 1), seed=0, batch=10**8),\n"
            "             lambda: build_universal_lemma1(4, 2, 'randomized', batch=10**8)):\n"
            "    started = time.perf_counter()\n"
            "    try:\n"
            "        call()\n"
            "    except ResourceLimitError:\n"
            "        print(time.perf_counter() - started < 1.0)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=30
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "True\nTrue\n", "")

    def test_a_one_row_universal_count_is_charged_per_subset(self):
        # At one row each of the C(33, 8) subsets costs about 1.7 us to
        # count whatever the rows: 25 s when it was admitted at 0.93.
        spec, m = UniversalSpec(33, 8, 2), SymbolMatrix(n=33, q=2, rows=((0,) * 33,))
        assert not admitted(spec, "verify", 1)
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            count_uncovered(m, spec)
        assert time.perf_counter() - started < 1.0

    def test_charges_a_count_by_the_square_of_its_bits(self):
        # C(N, N / 2) took 0.19, 0.67 and 2.2 s to build at N = 10**5,
        # 2 * 10**5 and 4 * 10**5, and over 100 s at 4 * 10**6.
        for n in (10**5, 2 * 10**5, 4 * 10**5):
            assert admitted(CffSpec(n, n // 2, 1), "count")
        assert not admitted(CffSpec(4 * 10**6, 2 * 10**6, 1), "count")
        # R = all but one column, or one column: a handful of bits
        assert admitted(CffSpec(10**9, 10**9 - 1, 1), "count")
        assert admitted(CffSpec(10**9, 1, 1), "count")

    def test_counts(self):
        assert _num_constraints(UniversalSpec(5, 2, 3)) == 10 * 9
        assert _num_constraints(CffSpec(6, 2, 1)) == 15 * 4
        assert _num_constraints(CffSpec(6, 0, 2)) == 15


def raised(call):
    """The class of the package error ``call()`` raises, or None."""
    try:
        call()
    except CoverkitError as exc:
        return type(exc)
    return None


def header_error(line):
    """The class ``read_array`` raises on a zero-row document with header
    ``line``, or None; a raised error must name line 1."""
    try:
        read_array(line + "\n")
    except FormatError as exc:
        assert str(exc).startswith("line 1: "), exc
        return FormatError
    return None


class TestEntryPointsAgreeWithSpecs:
    """Every entry point taking (n, d, q) or (n, r, s) refuses exactly the
    parameters the spec constructors refuse, with the class it always has."""

    @given(st.integers(-1, 6), st.integers(-1, 7), st.integers(0, 37))
    def test_universal(self, n, d, q):
        bad = raised(lambda: UniversalSpec(n, d, q))
        assert bad in (None, ParameterError)
        over = bad is None and _work(UniversalSpec(n, d, q), "verify", 0) > WORK_BUDGET
        verified = raised(lambda: verify_universal(SymbolMatrix(n=n, q=q), d))
        assert verified is (ResourceLimitError if over else bad)
        if n <= 4:
            assert raised(lambda: build_universal_lemma1(n, d)) is raised(
                lambda: UniversalSpec(n, d)
            )
        header = header_error(f"kind=universal n={n} q={q} rows=0 d={d}")
        assert header is (FormatError if bad else None)

    @given(st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 6), st.integers(0, 37))
    def test_cff(self, n, r, s, q):
        bad = raised(lambda: CffSpec(n, r, s))
        assert bad in (None, ParameterError)
        shape = raised(lambda: SymbolMatrix(n=n, q=q))
        assert shape in (None, ParameterError)
        verified = raised(lambda: verify_cff(SymbolMatrix(n=n, q=q), r, s))
        assert verified is (shape or (AlphabetError if q != 2 else bad))
        header = header_error(f"kind=cff n={n} q={q} rows=0 r={r} s={s}")
        assert header is (FormatError if bad or q != 2 else None)
        assert header_error(f"kind=raw n={n} q={q} rows=0") is (FormatError if shape else None)
