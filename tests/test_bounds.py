import dataclasses
from math import log2

import pytest
from hypothesis import given, strategies as st

from coverkit import (
    BoundsReport,
    CffSpec,
    DomainError,
    UniversalSpec,
    binary_entropy,
    cff_bounds_report,
    nrs,
    universal_bounds_report,
)

# Frozen reference values, evaluated independently with 30-digit arithmetic.
H2_QUARTER = 0.811278124459132863909695792039
NRS_2_2 = 9.28446737362899808488590732323
UNION_1024_4_2 = 399.25277600252849822432570196
DYACHKOV_2_2_1024 = 92.8446737362899808488590732323
BSHOUTY_1024_4_2 = 16340265.565641766


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_limit_convention_at_the_ends(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, rel=1e-12)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            binary_entropy(x)

    @given(st.floats(0.0, 1.0))
    def test_symmetric(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_at_most_one(self, x):
        value = binary_entropy(x)
        assert value <= 1.0
        if abs(x - 0.5) > 1e-6:
            assert value < 1.0


class TestNrs:
    def test_1_1(self):
        assert nrs(1, 1) == 4.0

    def test_2_2(self):
        assert nrs(2, 2) == pytest.approx(NRS_2_2, rel=1e-12)

    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (1, 5), (3, 3)])
    def test_symmetric(self, r, s):
        assert nrs(r, s) == pytest.approx(nrs(s, r), rel=1e-12)

    @pytest.mark.parametrize("r,s", [(0, 3), (3, 0), (0, 1), (1, 0), (-1, 2)])
    def test_degenerate_log_rejected(self, r, s):
        with pytest.raises(DomainError):
            nrs(r, s)

    @pytest.mark.parametrize("r,s", [(1000, 1000), (510, 510)])
    def test_overflow_is_a_domain_error(self, r, s):
        # float(C(2000, 1000)) overflows; at (510, 510) only the product does
        with pytest.raises(DomainError, match="exceeds the double range"):
            nrs(r, s)


class TestUniversalReport:
    def test_1024_4_2(self):
        report = universal_bounds_report(UniversalSpec(1024, 4, 2))
        assert report.union_bound == pytest.approx(UNION_1024_4_2, rel=1e-12)
        assert report.kleitman_reference == pytest.approx(160.0, rel=1e-12)
        assert report.theorem1_target == pytest.approx(640.0, rel=1e-12)
        assert report.bshouty_baseline == pytest.approx(BSHOUTY_1024_4_2, rel=1e-9)
        assert report.asymptotic_caveat == {"kleitman_reference", "theorem1_target"}
        assert report.log_base == 2

    def test_non_binary_alphabet_omits_reference_lines(self):
        report = universal_bounds_report(UniversalSpec(100, 3, 3))
        assert report.union_bound is not None
        assert report.kleitman_reference is None
        assert report.theorem1_target is None
        assert report.bshouty_baseline is None
        assert report.asymptotic_caveat == frozenset()

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            universal_bounds_report(UniversalSpec(1, 1, 2))

    def test_improvement_over_baseline_at_leading_order(self):
        for n in (2, 16, 1024):
            for d in range(1, min(n, 8) + 1):
                report = universal_bounds_report(UniversalSpec(n, d, 2))
                assert report.theorem1_target < report.bshouty_baseline


class TestCffReport:
    def test_2_2_at_1024(self):
        report = cff_bounds_report(CffSpec(1024, 2, 2))
        assert report.nrs == pytest.approx(NRS_2_2, rel=1e-12)
        assert report.dyachkov == pytest.approx(DYACHKOV_2_2_1024, rel=1e-12)
        assert report.entropy_form == pytest.approx(160.0, rel=1e-12)
        assert report.asymptotic_caveat == {"dyachkov", "entropy_form"}

    def test_1_1_at_4(self):
        report = cff_bounds_report(CffSpec(4, 1, 1))
        assert report.dyachkov == pytest.approx(8.0, rel=1e-12)
        assert report.entropy_form == pytest.approx(8.0, rel=1e-12)

    def test_balanced_entropy_form_matches_universal_target(self):
        # H2(1/2) = 1 turns both into 2**d log2 n
        for n, r in ((64, 1), (64, 2), (1024, 3)):
            cff = cff_bounds_report(CffSpec(n, r, r))
            uni = universal_bounds_report(UniversalSpec(n, 2 * r, 2))
            assert cff.entropy_form == pytest.approx(uni.theorem1_target / (2 * r), rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            cff_bounds_report(CffSpec(8, 0, 2))
        with pytest.raises(DomainError):
            cff_bounds_report(CffSpec(1, 1, 0))


class TestReport:
    def test_caveat_flags_are_derived_from_the_populated_fields(self):
        report = BoundsReport(union_bound=3.0, dyachkov=2.0, nrs=1.0)
        assert report.asymptotic_caveat == {"dyachkov"}
        assert list(report.populated()) == ["union_bound", "nrs", "dyachkov"]
        with pytest.raises(TypeError):
            BoundsReport(union_bound=3.0, asymptotic_caveat=frozenset())

    def test_log_base_is_fixed_and_not_a_field(self):
        assert "log_base" not in {f.name for f in dataclasses.fields(BoundsReport)}
        assert BoundsReport(union_bound=1.0).log_base == BoundsReport.log_base == 2
        with pytest.raises(TypeError):
            BoundsReport(union_bound=1.0, log_base=10)

    def test_non_finite_bound_rejected(self):
        with pytest.raises(DomainError):
            BoundsReport(union_bound=float("inf"))


class TestMonotonicityInN:
    def test_universal_fields_increase(self):
        previous = None
        for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            report = universal_bounds_report(UniversalSpec(n, 2, 2))
            values = report.populated()
            if previous is not None:
                for name, value in values.items():
                    assert value > previous[name], name
            previous = values

    def test_cff_fields_increase(self):
        previous = None
        for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            report = cff_bounds_report(CffSpec(n, 1, 2))
            if previous is not None:
                assert report.dyachkov > previous.dyachkov
                assert report.entropy_form > previous.entropy_form
                assert report.nrs == previous.nrs  # no n dependence
            previous = report

    def test_log_scaling_is_exactly_log2(self):
        base = cff_bounds_report(CffSpec(4, 1, 2))
        bigger = cff_bounds_report(CffSpec(64, 1, 2))
        assert bigger.dyachkov == pytest.approx(base.dyachkov * log2(64) / log2(4), rel=1e-12)
