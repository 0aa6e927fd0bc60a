"""Golden outputs: the sha256 of the ``write_array`` text of every
deterministic constructor on a fixed grid, the greedy traces, the CLI
stdout of a few commands, and the witnesses of fixed violating matrices.

A refactor or speed change keeps every value here. A change that alters an
output on purpose updates its value and says why.
"""

import hashlib

import pytest

from coverkit import (
    ArrayFileHeader,
    CffSpec,
    CffWitness,
    SymbolMatrix,
    UniversalSpec,
    UniversalWitness,
    build_universal_lemma1,
    construct_cff_derandomized,
    construct_cff_randomized,
    construct_cff_sperner,
    construct_universal_greedy,
    count_uncovered,
    verify_cff,
    verify_universal,
    write_array,
)
from coverkit.cli import run_cli


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cff_text(m, spec, method):
    header = ArrayFileHeader(
        kind="cff", n=m.n, q=m.q, rows=m.num_rows, r=spec.r, s=spec.s, method=method
    )
    return write_array(m, header)


def universal_text(m, d, method):
    header = ArrayFileHeader(kind="universal", n=m.n, q=m.q, rows=m.num_rows, d=d, method=method)
    return write_array(m, header)


def derand(n, r, s):
    spec = CffSpec(n, r, s)
    return cff_text(construct_cff_derandomized(spec)[0], spec, "derand")


def greedy(n, d, q):
    return universal_text(construct_universal_greedy(UniversalSpec(n, d, q))[0], d, "greedy")


def lemma1(n, d, method, **kwargs):
    return universal_text(build_universal_lemma1(n, d, method, **kwargs), d, f"lemma1+{method}")


OUTPUTS = {
    "derand-14-2-2": lambda: derand(14, 2, 2),
    "derand-12-1-2": lambda: derand(12, 1, 2),
    "derand-10-2-3": lambda: derand(10, 2, 3),
    "derand-8-3-3": lambda: derand(8, 3, 3),
    "derand-9-0-3": lambda: derand(9, 0, 3),
    "derand-9-3-0": lambda: derand(9, 3, 0),
    "sperner-7": lambda: cff_text(construct_cff_sperner(7), CffSpec(7, 1, 1), "sperner"),
    "sperner-40": lambda: cff_text(construct_cff_sperner(40), CffSpec(40, 1, 1), "sperner"),
    "lemma1-derand-10-4": lambda: lemma1(10, 4, "derandomized"),
    "lemma1-sperner-12-2": lambda: lemma1(12, 2, "sperner_where_applicable"),
    "lemma1-random-9-3": lambda: lemma1(9, 3, "randomized", seed=11, batch=4),
    "random-12-2-2": lambda: cff_text(
        construct_cff_randomized(CffSpec(12, 2, 2), seed=3, batch=8), CffSpec(12, 2, 2), "random"
    ),
    "greedy-12-4-2": lambda: greedy(12, 4, 2),
    "greedy-8-3-3": lambda: greedy(8, 3, 3),
    "greedy-5-2-5": lambda: greedy(5, 2, 5),
}

GOLDEN = {
    "derand-10-2-3": "0d1db8135f13eecee59e37f0292c3c5d0e0c997dbacf5754c4b737950d6b3c80",
    "derand-12-1-2": "2f1889da0667723cbdabb03a0f1f477763ce5c15ce798bb35c9dcccb15c262b9",
    "derand-14-2-2": "8cacef257348175169389b3ed7df2b75f3254ed9716a25e8a9f672ad5a419b98",
    "derand-8-3-3": "54388743022e694f329a1b39085a12530c13529965e41647442527cb47e776af",
    "derand-9-0-3": "3668f9234cca7e9070ce77cd1cfa6b18d424b51b2336f6586833863797ebfc4a",
    "derand-9-3-0": "d4b0519e5d3124754ba7eb9d41470f8d7ac22aa6fafd4981f5b63e5b82beee0b",
    "greedy-12-4-2": "f109d42eec7def321bf1f0fa5b7524d63d75997653ef060ed55c0c4c764f4361",
    "greedy-5-2-5": "21bd76930c9fc76d34325d3399513867ed1f945a3562c4ed0f45e315bf39c34d",
    "greedy-8-3-3": "ab453ce2cb3b634021c0e7fda4b412059abf4f4d47f957af1c1e4a0432d65970",
    "lemma1-derand-10-4": "c2e4d38d16f80f0e3bb35005bc950c529570304cd3abaa32249b616743c12c1e",
    "lemma1-random-9-3": "f98d9684dc1940aadb023565585972c64627ba221ebe603e552a27a0587a67c9",
    "lemma1-sperner-12-2": "958a2f11899a0cf4e6d63c53a6db85e6efbbf07842f30ca923164642eff0fd3d",
    "random-12-2-2": "797bdf080a5449ed186f23042f1b62ff0886a8945f2db9fd05b851d5139c79df",
    "sperner-40": "344241c533a7c4ec4f1a2e715843ad6599df7325df3b29de50ffadf287e02a18",
    "sperner-7": "ff143c5bc7c85f496f5c049427d4c5e5749196db798651da69387eafe13afd0c",
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_constructor_output_is_pinned(name):
    assert sha(OUTPUTS[name]()) == GOLDEN[name]


TRACES = {
    "derand-14-2-2": lambda: construct_cff_derandomized(CffSpec(14, 2, 2))[1],
    "derand-10-2-3": lambda: construct_cff_derandomized(CffSpec(10, 2, 3))[1],
    "greedy-12-4-2": lambda: construct_universal_greedy(UniversalSpec(12, 4, 2))[1],
    "greedy-8-3-3": lambda: construct_universal_greedy(UniversalSpec(8, 3, 3))[1],
}

GOLDEN_TRACES = {
    "derand-10-2-3": "e3c3f45b02f7223cd38a8ccf4e8da3df46778b1c4e7cce173a7a0944c7702cf8",
    "derand-14-2-2": "6a0a78b0432ed6d9ea1f01e96d5cd0ef3c77ead6be50f1d6e8b2cd198bb2ddd1",
    "greedy-12-4-2": "69f426cee3adec3f208fc3ddedc69258f8a24ebf3a21ca22a1fe422516f3f932",
    "greedy-8-3-3": "861c39f1611c76dbc9fd4eac757da0f36a110672ce544177dfb4d4f89f02dfb6",
}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_greedy_trace_is_pinned(name):
    counts = [(rec.covered, rec.remaining) for rec in TRACES[name]().rows]
    assert sha(repr(counts)) == GOLDEN_TRACES[name]


COMMANDS = {
    "construct-cff-derand": ["construct", "cff", "--n", "10", "--r", "2", "--s", "2",
                             "--method", "derand"],
    "construct-cff-random": ["construct", "cff", "--n", "9", "--r", "1", "--s", "3",
                             "--method", "random", "--seed", "5"],
    "construct-lemma1-random": ["construct", "universal", "--n", "8", "--d", "3",
                                "--method", "lemma1", "--cff-method", "random", "--seed", "3"],
    "construct-greedy-ternary": ["construct", "universal", "--n", "6", "--d", "2", "--q", "3",
                                 "--method", "greedy"],
    "bounds-cff": ["bounds", "--n", "10", "--r", "2", "--s", "2"],
    "minimal-universal": ["minimal", "--n", "5", "--d", "2"],
}

GOLDEN_STDOUT = {
    "bounds-cff": "9354fee394859809e483d227de336ebc56b15c838aa4a278aaa4977783bb298e",
    "construct-cff-derand": "1d57140f04d3a23b0b32292d9df06a746349bf04c4583473df70cc264ac712b6",
    "construct-cff-random": "c48aa54c5cdda16019643c575f508ba43b88ebd40cad880721a469f5bea222ba",
    "construct-greedy-ternary": "0858d07832bf0ee1580a6588efb79129afe50c9fd0a4918c013b5aa60b6bb8fa",
    "construct-lemma1-random": "0792a4a86d8728d00281a43f3a0a21215f764e03035fa3772b356a5cb9fe14e9",
    "minimal-universal": "7e5280d9651743c75809ca17a957b9513839f040c589371e031ac721b5c81e99",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_is_pinned(name, capsys):
    assert run_cli(COMMANDS[name]) == 0
    assert sha(capsys.readouterr().out) == GOLDEN_STDOUT[name]


DOCUMENTS = {
    "construct-cff-sperner": ["construct", "cff", "--n", "7", "--r", "1", "--s", "1",
                              "--method", "sperner"],
    "construct-lemma1-sperner": ["construct", "universal", "--n", "12", "--d", "2",
                                 "--method", "lemma1", "--cff-method", "sperner"],
}

GOLDEN_DOCUMENTS = {
    "construct-cff-sperner": "ff143c5bc7c85f496f5c049427d4c5e5749196db798651da69387eafe13afd0c",
    "construct-lemma1-sperner": "bdee295b182a4619a6a4cfc948dd92cf9cdde43847ce35a1a62de064d2c7e545",
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_cli_document_is_pinned(name, tmp_path, capsys):
    # The file bytes, header included: method= and seed= record the route.
    out = tmp_path / "out.txt"
    assert run_cli(DOCUMENTS[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DOCUMENTS[name]


def drop_row(m, index):
    return SymbolMatrix(n=m.n, q=m.q, rows=m.rows[:index] + m.rows[index + 1:])


def test_universal_witnesses_are_pinned():
    binary = drop_row(build_universal_lemma1(8, 3), 3)
    assert verify_universal(binary, 3).witness == UniversalWitness((2, 4, 5), (1, 0, 0))
    assert count_uncovered(binary, UniversalSpec(8, 3)) == 2
    ternary = drop_row(construct_universal_greedy(UniversalSpec(6, 2, 3))[0], 6)
    assert verify_universal(ternary, 2).witness == UniversalWitness((0, 1), (0, 2))
    assert count_uncovered(ternary, UniversalSpec(6, 2, 3)) == 8
    sparse = SymbolMatrix.from_strings(["0120", "2101", "1212", "0011"], q=3)
    assert verify_universal(sparse, 2).witness == UniversalWitness((0, 1), (0, 2))
    assert count_uncovered(sparse, UniversalSpec(4, 2, 3)) == 30


def test_cff_witnesses_are_pinned():
    family = drop_row(construct_cff_derandomized(CffSpec(10, 2, 2))[0], 0)
    assert verify_cff(family, 2, 2).witness == CffWitness((1, 9), (4, 6))
    assert count_uncovered(family, CffSpec(10, 2, 2)) == 2
    rows = SymbolMatrix.from_strings(["011010", "100110", "110001", "001101"])
    assert verify_cff(rows, 1, 2).witness == CffWitness((0,), (1, 3))
    assert count_uncovered(rows, CffSpec(6, 1, 2)) == 24
    assert verify_cff(rows, 0, 3).witness == CffWitness((), (0, 1, 2))
    assert count_uncovered(rows, CffSpec(6, 0, 3)) == 16
