from math import comb, log

import pytest
from hypothesis import given, settings, strategies as st

import coverkit.universal
from coverkit import (
    ParameterError,
    ResourceLimitError,
    SymbolMatrix,
    UniversalSpec,
    build_universal_lemma1,
    dedup_rows,
    construct_universal_greedy,
    universal_greedy_size_bound,
    verify_cff,
    verify_universal,
)

METHODS = ("derandomized", "randomized", "sperner_where_applicable")


class TestLemma1:
    def test_strength_one_is_the_two_constant_rows(self):
        m = build_universal_lemma1(5, 1)
        assert sorted(m.row_strings()) == ["00000", "11111"]
        assert verify_universal(m, 1).valid

    def test_4_2_with_sperner_component(self):
        m = build_universal_lemma1(4, 2, "sperner_where_applicable")
        assert verify_universal(m, 2).valid
        assert m.num_rows == 6
        strings = m.row_strings()
        assert "0000" in strings and "1111" in strings

    def test_3_2_not_smaller_than_oracle_minimum(self):
        m = build_universal_lemma1(3, 2)
        assert verify_universal(m, 2).valid
        assert m.num_rows >= 4

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n,d", [(2, 1), (4, 2), (5, 3), (7, 3), (8, 2)])
    def test_small_grid_verifies(self, n, d, method):
        m = build_universal_lemma1(n, d, method, seed=3)
        assert verify_universal(m, d).valid

    @pytest.mark.parametrize("n,d", [(5, 2), (6, 3), (5, 4)])
    def test_bridge_consistency(self, n, d):
        m = build_universal_lemma1(n, d)
        for i in range(d + 1):
            assert verify_cff(m, i, d - i).valid

    def test_no_duplicate_rows(self):
        m = build_universal_lemma1(6, 3)
        assert len(set(m.rows)) == m.num_rows

    def test_union_is_verified_before_it_is_returned(self, monkeypatch):
        # n = d = 3 needs all eight rows, so losing one in the union breaks it
        def drop_first_row(m):
            kept = dedup_rows(m)
            return SymbolMatrix(n=kept.n, q=kept.q, rows=kept.rows[1:])

        monkeypatch.setattr(coverkit.universal, "dedup_rows", drop_first_row)
        with pytest.raises(AssertionError):
            build_universal_lemma1(3, 3)

    def test_randomized_method_is_seed_deterministic(self):
        a = build_universal_lemma1(5, 2, "randomized", seed=9)
        b = build_universal_lemma1(5, 2, "randomized", seed=9)
        assert a == b

    def test_rejects_bad_strength(self):
        with pytest.raises(ParameterError):
            build_universal_lemma1(3, 4)

    def test_rejects_unknown_method(self):
        with pytest.raises(ParameterError):
            build_universal_lemma1(4, 2, "magic")


class TestGreedy:
    def test_2_2_2_is_the_full_square(self):
        m, trace = construct_universal_greedy(UniversalSpec(2, 2, 2))
        assert sorted(m.row_strings()) == ["00", "01", "10", "11"]
        assert trace.total_rows == 4

    def test_3_2_2_between_oracle_minimum_and_bound(self):
        m, _ = construct_universal_greedy(UniversalSpec(3, 2, 2))
        assert verify_universal(m, 2).valid
        assert universal_greedy_size_bound(UniversalSpec(3, 2, 2)) == 9
        assert 4 <= m.num_rows <= 9

    def test_4_2_2_between_oracle_minimum_and_bound(self):
        m, _ = construct_universal_greedy(UniversalSpec(4, 2, 2))
        assert verify_universal(m, 2).valid
        assert universal_greedy_size_bound(UniversalSpec(4, 2, 2)) == 12
        assert 5 <= m.num_rows <= 12

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_needs_at_least_q_to_the_d(self, q):
        m, _ = construct_universal_greedy(UniversalSpec(5, 2, q))
        assert m.num_rows >= q**2

    def test_trace_monotone(self):
        _, trace = construct_universal_greedy(UniversalSpec(6, 2, 3))
        remaining = [rec.remaining for rec in trace.rows]
        assert remaining == sorted(remaining, reverse=True)
        assert remaining[-1] == 0
        assert len(set(remaining)) == len(remaining)

    def test_constraint_cap(self):
        with pytest.raises(ResourceLimitError):
            construct_universal_greedy(UniversalSpec(40, 5, 3))

    @given(
        st.tuples(st.integers(1, 3), st.integers(2, 3)).flatmap(
            lambda dq: st.tuples(st.integers(max(2, dq[0]), 9), st.just(dq[0]), st.just(dq[1]))
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_verifies_within_bounds_on_grid(self, ndq):
        n, d, q = ndq
        spec = UniversalSpec(n, d, q)
        m, trace = construct_universal_greedy(spec)
        assert verify_universal(m, d).valid
        assert m.num_rows <= universal_greedy_size_bound(spec)
        if n >= 4 * d:
            assert m.num_rows <= d * q**d * (log(n / d) + log(q))

    def test_deterministic(self):
        a = construct_universal_greedy(UniversalSpec(5, 2, 3))
        b = construct_universal_greedy(UniversalSpec(5, 2, 3))
        assert a[0] == b[0]
