from decimal import Decimal, localcontext
from math import comb, log

import pytest
from hypothesis import example, given, settings, strategies as st

from coverkit import (
    CffSpec,
    ConvergenceError,
    ParameterError,
    ResourceLimitError,
    SymbolMatrix,
    UniversalSpec,
    complement,
    construct_cff_derandomized,
    construct_cff_randomized,
    construct_cff_sperner,
    derandomized_size_bound,
    sperner_row_count,
    universal_greedy_size_bound,
    verify_cff,
)
from coverkit.cff import GreedyTrace, GreedyTraceRow
from coverkit.core import _power_below, greedy_row_bound


def small_specs(max_n=8, max_part=2):
    def build(args):
        n, r, s = args
        return CffSpec(n=n, r=r, s=s)

    return (
        st.tuples(st.integers(2, max_n), st.integers(0, max_part), st.integers(0, max_part))
        .filter(lambda t: 1 <= t[1] + t[2] <= t[0])
        .map(build)
    )


class TestDerandomized:
    def test_r_zero_is_single_all_zero_row(self):
        m, trace = construct_cff_derandomized(CffSpec(5, 0, 3))
        assert m.row_strings() == ["00000"]
        assert trace.total_rows == 1

    def test_s_zero_is_single_all_one_row(self):
        m, trace = construct_cff_derandomized(CffSpec(5, 3, 0))
        assert m.row_strings() == ["11111"]
        assert trace.total_rows == 1

    def test_3_1_2_is_exactly_the_unit_rows(self):
        m, trace = construct_cff_derandomized(CffSpec(3, 1, 2))
        assert sorted(m.row_strings()) == ["001", "010", "100"]
        assert trace.total_rows == 3

    def test_4_1_1_within_bound(self):
        spec = CffSpec(4, 1, 1)
        m, trace = construct_cff_derandomized(spec)
        assert verify_cff(m, 1, 1).valid
        assert derandomized_size_bound(spec) == 9
        assert trace.total_rows <= 9

    def test_trace_accounts_for_every_constraint(self):
        spec = CffSpec(5, 1, 2)
        m, trace = construct_cff_derandomized(spec)
        total = comb(5, 1) * comb(4, 2)
        assert sum(rec.covered for rec in trace.rows) == total
        assert trace.rows[-1].remaining == 0
        remaining = [rec.remaining for rec in trace.rows]
        assert remaining == sorted(remaining, reverse=True)
        assert len(set(remaining)) == len(remaining)

    def test_deterministic(self):
        a = construct_cff_derandomized(CffSpec(6, 2, 2))
        b = construct_cff_derandomized(CffSpec(6, 2, 2))
        assert a[0] == b[0]

    def test_constraint_cap(self):
        with pytest.raises(ResourceLimitError):
            construct_cff_derandomized(CffSpec(60, 3, 3))

    @given(small_specs())
    @settings(max_examples=40, deadline=None)
    def test_output_verifies_within_bound(self, spec):
        m, trace = construct_cff_derandomized(spec)
        assert verify_cff(m, spec.r, spec.s).valid
        assert trace.total_rows <= derandomized_size_bound(spec)


def float_row_bound(num_constraints, rate):
    """The row bound as computed in floating point before it was exact."""
    if num_constraints <= 1 or rate >= 1.0:
        return 1
    return int(log(num_constraints) / -log(1.0 - rate)) + 1


class TestRowBound:
    def test_hand_values(self):
        assert greedy_row_bound(1, 1, 7) == 1
        assert greedy_row_bound(5, 3, 3) == 1
        assert greedy_row_bound(2, 1, 2) == 2
        # 9 * 1**2 == 3**2, so two rows are one short of the strict bound.
        assert greedy_row_bound(9, 2, 3) == 3
        assert derandomized_size_bound(CffSpec(24, 2, 2)) == 172
        assert derandomized_size_bound(CffSpec(5, 0, 3)) == 1
        assert universal_greedy_size_bound(UniversalSpec(40, 6, 5)) == 387757

    def test_rates_below_float_precision(self):
        # 1 - 36**-11 rounds to 1.0, so the float formula divides by zero;
        # 60-digit decimal logarithms give the same k as the exact search.
        whole = 36**11
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(whole).ln() / (Decimal(whole) / (whole - 1)).ln()
        assert universal_greedy_size_bound(UniversalSpec(11, 11, 36)) == int(x) + 1

    def test_a_row_count_past_a_machine_word(self):
        # k is past 2**67, so the search cannot index a C-sized range of
        # candidates; the 60-digit decimal formula gives the same k.
        assert universal_greedy_size_bound(UniversalSpec(12, 12, 36)) == 203760951162030268797

    def test_matches_the_float_formula_on_a_grid(self):
        points = 0
        for n in range(2, 41):
            for r in range(5):
                for s in range(5):
                    if 1 <= r + s <= n:
                        spec = CffSpec(n, r, s)
                        p = r / spec.d
                        rate = p**r * (1 - p) ** s
                        expected = float_row_bound(comb(n, r) * comb(n - r, s), rate)
                        assert derandomized_size_bound(spec) == expected, spec
                        points += 1
            for d in range(1, min(5, n) + 1):
                for q in (2, 3, 5):
                    expected = float_row_bound(comb(n, d) * q**d, float(q) ** -d)
                    assert universal_greedy_size_bound(UniversalSpec(n, d, q)) == expected
                    points += 1
        assert points == 1449

    @given(
        st.integers(1, 10**6),
        st.integers(0, 10**4),
        st.integers(1, 10**4),
        st.integers(0, 300),
    )
    @example(8, 1, 2, 3)
    @example(9, 1, 3, 2)
    @settings(max_examples=200, deadline=None)
    def test_power_comparison_is_exact(self, m, a, b, k):
        a = min(a, b - 1)
        assert _power_below(m, a, b, k) == (m * a**k < b**k)


class TestRandomized:
    def test_two_blocks_needs_two_rows(self):
        m = construct_cff_randomized(CffSpec(2, 1, 1), seed=7)
        assert verify_cff(m, 1, 1).valid
        assert m.num_rows >= 2

    def test_seed_42_batch_4(self):
        m = construct_cff_randomized(CffSpec(4, 1, 1), seed=42, batch=4)
        assert verify_cff(m, 1, 1).valid

    def test_deterministic_in_seed_and_batch(self):
        a = construct_cff_randomized(CffSpec(5, 1, 2), seed=11, batch=8)
        b = construct_cff_randomized(CffSpec(5, 1, 2), seed=11, batch=8)
        assert a == b

    def test_constant_row_fallback(self):
        assert construct_cff_randomized(CffSpec(4, 0, 2), seed=1).row_strings() == ["0000"]
        assert construct_cff_randomized(CffSpec(4, 2, 0), seed=1).row_strings() == ["1111"]

    def test_batch_must_be_positive(self):
        with pytest.raises(ParameterError):
            construct_cff_randomized(CffSpec(4, 1, 1), seed=0, batch=0)

    def test_constraint_cap(self):
        with pytest.raises(ResourceLimitError):
            construct_cff_randomized(CffSpec(60, 3, 3), seed=0)

    def test_gives_up_after_the_batch_cap(self):
        # A row separates a given (R, S) with chance 2**-14, so 10,000 rows
        # miss each of the 3,432 pairs with chance about 0.54.
        with pytest.raises(ConvergenceError, match="after 10000 batches of 1"):
            construct_cff_randomized(CffSpec(14, 7, 7), seed=0, batch=1)


class TestSperner:
    def test_n_2(self):
        m = construct_cff_sperner(2)
        assert m.row_strings() == ["10", "01"]

    def test_n_6_needs_four_rows(self):
        m = construct_cff_sperner(6)
        assert m.num_rows == 4
        assert verify_cff(m, 1, 1).valid

    def test_n_7_needs_five_rows(self):
        m = construct_cff_sperner(7)
        assert m.num_rows == 5
        assert verify_cff(m, 1, 1).valid

    def test_row_count_rule_up_to_50(self):
        for n in range(2, 51):
            rows = sperner_row_count(n)
            assert comb(rows, rows // 2) >= n
            assert comb(rows - 1, (rows - 1) // 2) < n

    def test_row_count_matches_the_search_from_one(self):
        # The search starts at n.bit_length(); from N = 1 it finds the same N.
        for n in range(2, 20_000):
            rows = 1
            while comb(rows, rows // 2) < n:
                rows += 1
            assert sperner_row_count(n) == rows, n

    def test_rejects_tiny_n(self):
        with pytest.raises(ParameterError, match="^need n >= 2, got 1$"):
            construct_cff_sperner(1)
        with pytest.raises(ParameterError, match="^need n >= 2, got 1$"):
            sperner_row_count(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 20])
    def test_output_verifies(self, n):
        assert verify_cff(construct_cff_sperner(n), 1, 1).valid


class TestGreedyTrace:
    def test_rejects_non_decreasing_remaining(self):
        rows = (
            GreedyTraceRow((0, 1), 1, 2),
            GreedyTraceRow((1, 0), 0, 2),
        )
        with pytest.raises(ParameterError):
            GreedyTrace(rows)

    def test_rejects_nonzero_final_remaining(self):
        with pytest.raises(ParameterError):
            GreedyTrace((GreedyTraceRow((0, 1), 1, 3),))


class TestComplementTransport:
    @given(small_specs())
    @settings(max_examples=30, deadline=None)
    def test_complement_of_construction_swaps_parameters(self, spec):
        m, _ = construct_cff_derandomized(spec)
        flipped = complement(m)
        assert verify_cff(flipped, spec.s, spec.r).valid
        assert complement(flipped) == m
