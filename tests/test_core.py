import pytest
from hypothesis import given, strategies as st

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
    construct_cff_sperner,
    dedup_rows,
    read_array,
    verify_cff,
    verify_universal,
)
from coverkit.core import CONSTRAINT_CAP, _check_constraint_cap, _num_constraints
from coverkit.verify import PATTERN_CAP


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
        assert m.rows == ((0, 1, 10), (9, 35, 35))
        assert m.row_strings() == ["01a", "9zz"]

    def test_immutable(self):
        m = SymbolMatrix.from_strings(["01"])
        with pytest.raises(AttributeError):
            m.n = 5


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


def capped_specs():
    """Universal and cover-free specs whose constraint counts straddle
    CONSTRAINT_CAP, some far enough past it to be refused by exponent alone."""
    universal = st.builds(
        lambda n, d, q: UniversalSpec(n, min(d, n), q),
        st.integers(1, 400),
        st.integers(1, 16),
        st.integers(2, 36),
    )
    cff = st.builds(
        lambda n, rs: CffSpec(max(n, sum(rs)), *rs),
        st.integers(1, 400),
        st.tuples(st.integers(0, 16), st.integers(0, 16)).filter(lambda rs: sum(rs) >= 1),
    )
    return universal | cff


class TestConstraintCap:
    @given(capped_specs())
    def test_refuses_exactly_the_specs_over_the_cap(self, spec):
        count = _num_constraints(spec)
        try:
            _check_constraint_cap(spec)
        except ResourceLimitError as exc:
            assert count > CONSTRAINT_CAP
            size = str(exc).split("constraint set of size ")[1].split(" exceeds")[0]
            if size.startswith("at least 2**"):
                assert 2 ** int(size[len("at least 2**"):]) <= count
            else:
                assert int(size) == count
        else:
            assert count <= CONSTRAINT_CAP

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
        over = bad is None and q**d > PATTERN_CAP
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
