import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from coverkit import (
    AlphabetError,
    ArrayFileHeader,
    ConsistencyError,
    FormatError,
    SymbolMatrix,
    load_array,
    read_array,
    save_array,
    write_array,
)


def raw_header(m):
    return ArrayFileHeader(kind="raw", n=m.n, q=m.q, rows=m.num_rows)


def documents():
    def build(args):
        n, q, rows, kind, method, seed = args
        m = SymbolMatrix(n=n, q=q, rows=tuple(tuple(r) for r in rows))
        extra = {}
        if kind == "universal":
            extra["d"] = 1 + (n - 1) % 3
        elif kind == "cff":
            if q != 2:
                kind = "raw"
            else:
                extra["r"], extra["s"] = 1, min(2, n - 1) or 1
                if extra["r"] + extra["s"] > n:
                    kind = "raw"
                    extra = {}
        header = ArrayFileHeader(
            kind=kind, n=n, q=q, rows=m.num_rows, method=method, seed=seed, **extra
        )
        return m, header

    return (
        st.tuples(st.integers(1, 6), st.integers(2, 36))
        .flatmap(
            lambda nq: st.tuples(
                st.just(nq[0]),
                st.just(nq[1]),
                st.lists(
                    st.lists(st.integers(0, nq[1] - 1), min_size=nq[0], max_size=nq[0]),
                    max_size=6,
                ),
                st.sampled_from(("raw", "universal", "cff")),
                st.sampled_from((None, "greedy", "lemma1+derand")),
                st.sampled_from((None, 0, 42, -7)),
            )
        )
        .map(build)
    )


class TestWrite:
    def test_exact_document(self):
        m = SymbolMatrix.from_strings(["00", "11"])
        assert write_array(m, raw_header(m)) == "kind=raw n=2 q=2 rows=2\n00\n11\n"

    def test_optional_keys_alphabetical(self):
        m = SymbolMatrix.from_strings(["10", "01"])
        header = ArrayFileHeader(kind="cff", n=2, q=2, rows=2, r=1, s=1, method="sperner", seed=5)
        text = write_array(m, header)
        assert text.splitlines()[0] == "kind=cff n=2 q=2 rows=2 method=sperner r=1 s=1 seed=5"

    def test_base36_digits(self):
        m = SymbolMatrix(n=3, q=36, rows=((10, 35, 0),))
        text = write_array(m, ArrayFileHeader(kind="raw", n=3, q=36, rows=1))
        assert text == "kind=raw n=3 q=36 rows=1\naz0\n"

    def test_rows_mismatch_rejected(self):
        m = SymbolMatrix.from_strings(["00"])
        with pytest.raises(ConsistencyError):
            write_array(m, ArrayFileHeader(kind="raw", n=2, q=2, rows=2))

    def test_shape_mismatch_rejected(self):
        m = SymbolMatrix.from_strings(["00"])
        with pytest.raises(ConsistencyError):
            write_array(m, ArrayFileHeader(kind="raw", n=3, q=2, rows=1))

    def test_kind_fields_must_match_kind(self):
        m = SymbolMatrix.from_strings(["00"])
        with pytest.raises(ConsistencyError):
            write_array(m, ArrayFileHeader(kind="raw", n=2, q=2, rows=1, d=1))
        with pytest.raises(ConsistencyError):
            write_array(m, ArrayFileHeader(kind="universal", n=2, q=2, rows=1))

    def test_method_token_restricted(self):
        m = SymbolMatrix.from_strings(["00"])
        for bad in ("has space", "k=v", ""):
            with pytest.raises(ConsistencyError):
                write_array(
                    m, ArrayFileHeader(kind="raw", n=2, q=2, rows=1, method=bad)
                )


class TestRead:
    def test_minimal_document(self):
        m, header = read_array("kind=raw n=2 q=2 rows=1\n01\n")
        assert m.rows == (b"\x00\x01",)
        assert header == ArrayFileHeader(kind="raw", n=2, q=2, rows=1)

    def test_zero_row_document(self):
        m, header = read_array("kind=raw n=3 q=2 rows=0\n")
        assert m.num_rows == 0

    def test_a_binary_document_is_held_in_about_its_text_size(self):
        # 100 x 10**5 random bits, built in C. One byte a symbol holds the
        # matrix in the size of its text; a tuple of ints would take eight.
        # Reading frees each line once its row is decoded, so it peaks at
        # about the text's size; writing holds the row strings and the text.
        n, rows = 10**5, 100
        bits = random.Random(5).randbytes(n * rows).translate(bytes(48 + (b & 1) for b in range(256)))
        body = b"\n".join(bits[i:i + n] for i in range(0, n * rows, n)).decode()
        text = f"kind=raw n={n} q=2 rows={rows}\n{body}\n"
        tracemalloc.start()
        try:
            m, header = read_array(text)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            written = write_array(m, header)
            write_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert m.num_rows == rows and m.row_strings()[-1] == body[-n:]
        assert peak < 1.25 * len(text) and held < 1.5 * len(text)
        assert written == text and write_peak < 2.5 * len(text)

    def test_row_count_shortfall_names_end_of_input(self):
        with pytest.raises(FormatError, match="end of input"):
            read_array("kind=raw n=2 q=2 rows=2\n01\n")

    def test_extra_rows_rejected(self):
        with pytest.raises(FormatError, match="line 3"):
            read_array("kind=raw n=2 q=2 rows=1\n01\n10\n")

    def test_symbol_out_of_range_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            read_array("kind=raw n=2 q=2 rows=1\n02\n")

    def test_bad_symbol_character(self):
        with pytest.raises(FormatError, match="line 2"):
            read_array("kind=raw n=2 q=2 rows=1\n0!\n")

    def test_row_length_mismatch(self):
        with pytest.raises(FormatError, match="line 2"):
            read_array("kind=raw n=3 q=2 rows=1\n01\n")

    def test_missing_trailing_newline(self):
        with pytest.raises(FormatError, match="trailing newline"):
            read_array("kind=raw n=2 q=2 rows=1\n01")

    @pytest.mark.parametrize(
        "line",
        [
            "kind=raw n=2 rows=1 q=2",        # fixed keys out of order
            "n=2 kind=raw q=2 rows=1",        # kind not first
            "kind=raw n=2 q=2 rows=1 s=1 r=1",  # optional keys unsorted
            "kind=raw n=2 q=2 rows=1 x=1",    # unknown key
            "kind=raw n=2 q=2 rows=1 rows=1",  # duplicate
            "kind=raw n=02 q=2 rows=1",       # non-canonical int
            "kind=raw n=+2 q=2 rows=1",       # int() reads these four, the writer
            "kind=raw n=2 q=2 rows=0_1",      # never emits them
            "kind=raw n=2 q=2 rows=1 seed=-07",
            "kind=raw n=\uff12 q=2 rows=1",
            "kind=raw n=2 q=2 rows=one",      # non-integer
            "kind=raw n=2 q=2 rows=-1",       # negative row count
            "kind=raw n=2 q=2",               # missing rows
            "kind=raw  n=2 q=2 rows=1",       # double space
            "kind=nope n=2 q=2 rows=1",       # unknown kind
        ],
    )
    def test_malformed_headers(self, line):
        with pytest.raises(FormatError, match="line 1"):
            read_array(line + "\n01\n")

    def test_kind_specific_key_rules(self):
        with pytest.raises(FormatError):
            read_array("kind=universal n=2 q=2 rows=0\n")  # missing d
        with pytest.raises(FormatError):
            read_array("kind=cff n=2 q=2 rows=0 d=1 r=1 s=1\n")  # d not allowed
        with pytest.raises(FormatError):
            read_array("kind=cff n=2 q=3 rows=0 r=1 s=1\n")  # cff needs q=2
        m, header = read_array("kind=universal n=2 q=2 rows=0 d=2\n")
        assert header.d == 2

    def test_empty_input(self):
        with pytest.raises(FormatError):
            read_array("")


def perturbed_integer(value, how):
    """A spelling of the integer ``value`` that ``int()`` reads back but
    ``write_array`` never emits."""
    sign, digits = ("-", value[1:]) if value.startswith("-") else ("", value)
    if how == "zero":
        return f"{sign}0{digits}"
    if how == "plus":
        return f"+{value}"
    if how == "underscore":
        return f"{sign}{digits[0]}_{digits[1:]}" if len(digits) > 1 else f"{sign}0_{digits}"
    return sign + "".join(chr(ord(ch) - ord("0") + ord("\uff10")) for ch in digits)


@st.composite
def header_lines(draw):
    """A document, and a header line made from its own by shuffling,
    duplicating or respelling tokens (or by leaving it as it is)."""
    m, header = draw(documents())
    tokens = write_array(m, header).split("\n", 1)[0].split(" ")
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("shuffle", "duplicate", "respell")))
        if edit == "shuffle":
            tokens = draw(st.permutations(tokens))
        elif edit == "duplicate":
            i = draw(st.integers(0, len(tokens) - 1))
            tokens = tokens[:i] + [tokens[i]] + tokens[i:]
        else:
            i = draw(st.integers(0, len(tokens) - 1))
            key, _, value = tokens[i].partition("=")
            if value.lstrip("-").isdigit():
                how = draw(st.sampled_from(("zero", "plus", "underscore", "fullwidth")))
                tokens = tokens[:i] + [f"{key}={perturbed_integer(value, how)}"] + tokens[i + 1:]
    return m, header, " ".join(tokens)


class TestHeaderMatchesItsWriter:
    @given(header_lines())
    def test_accepted_exactly_when_written_so(self, case):
        m, header, line = case
        canonical, body = write_array(m, header).split("\n", 1)
        try:
            accepted = read_array(f"{line}\n{body}")
        except FormatError as exc:
            assert line != canonical
            assert str(exc).startswith("line 1: ")
        else:
            assert line == canonical
            assert accepted == (m, header)


DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@st.composite
def digit_rows(draw):
    """(q, n, rows): rows of n characters that mix symbols below q, digits
    at or past q, and any other character but a newline, non-ASCII too."""
    q, n = draw(st.integers(2, 36)), draw(st.integers(1, 6))
    chars = st.sampled_from(DIGITS[:q]) | st.sampled_from(DIGITS) | st.characters(
        blacklist_characters="\n"
    )
    return q, n, draw(st.lists(st.text(chars, min_size=n, max_size=n), max_size=4))


class TestReadDecodesAsFromStrings:
    @given(digit_rows())
    def test_same_rows_or_same_message(self, case):
        q, n, rows = case
        document = f"kind=raw n={n} q={q} rows={len(rows)}\n" + "".join(r + "\n" for r in rows)
        try:
            expected = SymbolMatrix.from_strings(rows, q=q, n=n).rows
        except AlphabetError as exc:
            where, _, message = str(exc).partition(": ")
            with pytest.raises(FormatError) as info:
                read_array(document)
            assert str(info.value) == f"line {int(where.removeprefix('row ')) + 2}: {message}"
        else:
            assert read_array(document)[0].rows == expected


class TestRoundTrip:
    @given(documents())
    def test_write_then_read(self, doc):
        m, header = doc
        text = write_array(m, header)
        m2, header2 = read_array(text)
        assert m2 == m
        assert header2 == header

    @given(documents())
    def test_read_then_write(self, doc):
        m, header = doc
        text = write_array(m, header)
        assert write_array(*read_array(text)) == text

    def test_strength_two_design_survives_round_trip(self):
        m = SymbolMatrix.from_strings(["0000", "0111", "1011", "1101", "1110"])
        header = ArrayFileHeader(kind="universal", n=4, q=2, rows=5, d=2)
        text = write_array(m, header)
        assert text.count("\n") == 6 and text.endswith("\n")
        restored, _ = read_array(text)
        from coverkit import verify_universal

        assert verify_universal(restored, 2).valid

    def test_save_and_load(self, tmp_path):
        m = SymbolMatrix.from_strings(["0101", "1010"])
        header = ArrayFileHeader(kind="universal", n=4, q=2, rows=2, d=1, method="greedy")
        target = tmp_path / "arr.txt"
        save_array(target, m, header)
        assert load_array(target) == (m, header)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_save_to_a_bare_file_name(self, tmp_path, monkeypatch):
        # A bare name's parent is Path("."), so the temp file goes there too.
        monkeypatch.chdir(tmp_path)
        m = SymbolMatrix.from_strings(["01", "10"])
        save_array("arr.txt", m, raw_header(m))
        assert load_array(tmp_path / "arr.txt") == (m, raw_header(m))
        assert [p.name for p in tmp_path.iterdir()] == ["arr.txt"]
