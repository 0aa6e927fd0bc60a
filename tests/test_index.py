"""The (column, symbol) index against the per-requirement builder it
replaced, kept here as the definitional reference: one list append per
requirement, in the verifiers' scan order. The constraint index is padded
to whole bytes a block, so it is compared with its padding dropped."""

import tracemalloc
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from coverkit import CffSpec, SymbolMatrix, UniversalSpec
from coverkit.core import MAX_ALPHABET
from coverkit.verify import _column_index, _columns, _constraint_index, _squeezer, _translates


def reference_column_index(n, q, items):
    """(index, size) with bit i of ``index[j][c]`` set when item i, an
    iterable of (column, symbol) pairs, holds c at column j."""
    members = [[[] for _ in range(q)] for _ in range(n)]
    size = 0
    for i, pairs in enumerate(items):
        for j, c in pairs:
            members[j][c].append(i)
        size = i + 1

    def bitset(held):
        flags = bytearray(size)
        for i in held:
            flags[i] = 1
        return int(flags.translate(bytes.maketrans(b"\0\1", b"01"))[::-1], 2) if size else 0

    return [[bitset(held) for held in column] for column in members], size


def packed_index(spec):
    """``_constraint_index(spec)`` as (index, size) with its padding dropped
    by the mask it returns, once no set is found to hold a bit outside it."""
    index, keep = _constraint_index(spec)
    assert not any(held & ~keep for sets in index for held in sets)
    squeeze = _squeezer(keep)
    return [[squeeze(held) for held in sets] for sets in index], keep.bit_count()


def cff_requirements(n, r, s):
    """"1 on R, 0 on S" for each disjoint (R, S), R then S in
    lexicographic order."""
    for R in combinations(range(n), r):
        for S in combinations([j for j in range(n) if j not in R], s):
            yield [(j, 1) for j in R] + [(j, 0) for j in S]


def universal_requirements(n, d, q):
    """Each (columns, pattern) pair, subsets then patterns in lexicographic
    order."""
    for S in combinations(range(n), d):
        for pattern in product(range(q), repeat=d):
            yield zip(S, pattern)


# Specs on both sides of ``_translates``: at q = 2 to 6, palette entries of
# 1 to 33 bytes, few heads and many, either side of the rule at 1 and 2
# bytes, and heads whose elements pass a byte. The comments give (entry
# bytes, heads).
FORM_CASES = [
    UniversalSpec(12, 3, 2),  # (1, 220)
    UniversalSpec(5, 3, 2),  # (1, 10)
    CffSpec(20, 3, 1),  # (3, 1,140), ranked palettes
    CffSpec(50, 2, 1),  # (6, 1,225)
    CffSpec(10, 3, 3),  # (5, 120)
    CffSpec(70, 2, 1),  # (9, 2,415)
    CffSpec(260, 1, 1),  # (33, 260), elements up to 259
    UniversalSpec(14, 3, 3),  # (4, 364)
    UniversalSpec(6, 3, 3),  # (4, 20)
    UniversalSpec(12, 2, 4),  # (2, 66)
    UniversalSpec(14, 3, 4),  # (8, 364)
    UniversalSpec(11, 3, 4),  # (8, 165)
    UniversalSpec(20, 2, 5),  # (4, 190)
    UniversalSpec(7, 3, 5),  # (16, 35)
    UniversalSpec(20, 2, 6),  # (5, 190)
    UniversalSpec(8, 2, 6),  # (5, 28)
    UniversalSpec(30, 2, 9),  # (11, 435)
    UniversalSpec(300, 1, 9),  # (2, 300), elements up to 299
    CffSpec(9, 2, 1),  # (1, 36), ranked palettes
    CffSpec(8, 2, 1),  # (1, 28), ranked palettes
    UniversalSpec(12, 2, 3),  # (2, 66)
    UniversalSpec(8, 2, 3),  # (2, 28)
    UniversalSpec(9, 2, 6),  # (5, 36)
]


def form_shape(spec):
    """(entry bytes, heads) of ``_constraint_index``'s palettes for spec."""
    if isinstance(spec, UniversalSpec):
        return -(-spec.q**spec.d // 8), comb(spec.n, spec.d)
    return -(-comb(spec.n - spec.r, spec.s) // 8), comb(spec.n, spec.r)


def test_the_form_cases_take_both_forms_at_every_q():
    forms = {(spec.q, _translates(*form_shape(spec))) for spec in FORM_CASES}
    assert {(q, form) for q in range(2, 7) for form in (False, True)} <= forms


@st.composite
def universal_specs(draw):
    n = draw(st.integers(1, 7))
    return n, draw(st.integers(1, n)), draw(st.integers(2, 5))


class TestAgainstReference:
    @given(st.integers(1, 9))
    @settings(deadline=None)
    def test_cff_at_every_r_and_s(self, n):
        # r = 0, s = 0 and r + s = n included; at n = 1 with (1, 0) the
        # column in R still has one block of C(0, 0) = 1 constraint.
        for r in range(n + 1):
            for s in range(n - r + 1):
                if r + s:
                    expected = reference_column_index(n, 2, cff_requirements(n, r, s))
                    assert packed_index(CffSpec(n, r, s)) == expected, (r, s)

    @given(universal_specs())
    @example((1, 1, 2))
    @example((7, 7, 5))
    @example((7, 1, 5))
    @settings(deadline=None)
    def test_universal(self, case):
        n, d, q = case
        expected = reference_column_index(n, q, universal_requirements(n, d, q))
        assert packed_index(UniversalSpec(n, d, q)) == expected

    @pytest.mark.parametrize("spec", FORM_CASES, ids=str)
    def test_both_index_forms(self, spec):
        assert packed_index(spec) == reference_column_index(spec.n, spec.q, requirements(spec))

    @given(st.data())
    @settings(deadline=None)
    def test_rows(self, data):
        n = data.draw(st.integers(1, 6))
        q = data.draw(st.integers(2, MAX_ALPHABET))
        rows = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=20))
        m = SymbolMatrix(n=n, q=q, rows=tuple(rows))
        assert _column_index(q, _columns(m)) == reference_column_index(n, q, map(enumerate, rows))


def test_an_index_is_built_one_column_at_a_time():
    # All 40 columns of the (40, (2, 2)) bytes at once would peak near five
    # times the finished index, which takes 80 ints of 548,340 bits.
    tracemalloc.start()
    try:
        _, keep = _constraint_index(CffSpec(40, 2, 2))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keep.bit_count() == 548_340
    assert peak < 2 * held


def block_width(spec):
    """The constraints of one R, C(n - r, s), or of one subset, q**d."""
    if isinstance(spec, UniversalSpec):
        return spec.q**spec.d
    return comb(spec.n - spec.r, spec.s)


# One spec or more per residue of the block width mod 8: whole-byte blocks,
# blocks narrower than a byte, and r = 0 and s = 0.
BLOCK_SPECS = [
    CffSpec(12, 2, 3),  # 120 bits, whole bytes
    CffSpec(20, 3, 1),  # 17
    CffSpec(5, 2, 0),  # 1, s = 0
    UniversalSpec(6, 1, 2),  # 2
    CffSpec(13, 1, 2),  # 66
    UniversalSpec(6, 3, 3),  # 27
    CffSpec(10, 2, 2),  # 28
    CffSpec(11, 1, 2),  # 45
    CffSpec(14, 1, 2),  # 78
    CffSpec(9, 0, 4),  # 126, r = 0
    CffSpec(6, 0, 2),  # 15, r = 0
]


def test_the_block_specs_cover_every_width_mod_8():
    assert {block_width(spec) % 8 for spec in BLOCK_SPECS} == set(range(8))


def requirements(spec):
    if isinstance(spec, UniversalSpec):
        return universal_requirements(spec.n, spec.d, spec.q)
    return cff_requirements(spec.n, spec.r, spec.s)


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=str)
def test_blocks_of_every_width_mod_8(spec):
    expected = reference_column_index(spec.n, spec.q, requirements(spec))
    assert packed_index(spec) == expected


def test_a_palette_of_300_kinds():
    # (300, (1, 1)) has 299 ranks outside R and one kind in R, more than a
    # byte per block can name.
    spec = CffSpec(300, 1, 1)
    assert packed_index(spec) == reference_column_index(300, 2, requirements(spec))


@pytest.mark.parametrize("spec", [
    # palette blocks over the 2-subsets of 257 ranks, some of them >= 256
    CffSpec(257, 0, 2),
    # heads whose elements reach 259, two bytes each
    UniversalSpec(260, 2, 2),
], ids=str)
def test_elements_past_a_byte(spec):
    assert packed_index(spec) == reference_column_index(spec.n, spec.q, requirements(spec))
