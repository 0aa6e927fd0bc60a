import os
import random
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import coverkit
from coverkit import SymbolMatrix, UniversalSpec, load_array
from coverkit import cli
from coverkit.cli import run_cli
from coverkit.core import WORK_BUDGET as BUDGET


def parse_kv(output):
    pairs = {}
    for line in output.splitlines():
        for token in line.split(" "):
            key, sep, value = token.partition("=")
            if sep:
                pairs.setdefault(key, value)
    return pairs


class TestConstructUniversal:
    def test_lemma1_then_verify_file(self, tmp_path, capsys):
        out = tmp_path / "u42.txt"
        rc = run_cli([
            "construct", "universal", "--n", "4", "--d", "2",
            "--method", "lemma1", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        pairs = parse_kv(captured.out)
        assert pairs["size"] == "6"
        assert pairs["self_verify"] == "valid"
        assert "union_bound" in pairs
        assert out.exists()

        rc = run_cli(["verify", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip() == "valid"

    def test_greedy_ternary(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = run_cli([
            "construct", "universal", "--n", "5", "--d", "2", "--q", "3",
            "--method", "greedy", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        matrix, header = load_array(out)
        assert header.kind == "universal" and header.d == 2 and header.q == 3
        assert matrix.num_rows >= 9

    def test_lemma1_rejects_non_binary(self, capsys):
        rc = run_cli([
            "construct", "universal", "--n", "4", "--d", "2", "--q", "3",
            "--method", "lemma1",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/u.txt", "adir"])
    def test_a_failed_save_prints_no_report(self, tmp_path, capsys, target):
        (tmp_path / "adir").mkdir()
        rc = run_cli([
            "construct", "universal", "--n", "4", "--d", "2",
            "--method", "lemma1", "--out", str(tmp_path / target),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["adir"]

    def test_seed_reproducible_files(self, tmp_path):
        files = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = run_cli([
                "construct", "universal", "--n", "5", "--d", "2",
                "--method", "lemma1", "--cff-method", "random",
                "--seed", "99", "--out", str(out),
            ])
            assert rc == 0
            files.append(out.read_text())
        assert files[0] == files[1]
        assert "seed=99" in files[0].splitlines()[0]


class TestConstructCff:
    def test_derandomized(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        rc = run_cli([
            "construct", "cff", "--n", "6", "--r", "1", "--s", "2",
            "--method", "derand", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "self_verify=valid" in captured.out
        matrix, header = load_array(out)
        assert header.kind == "cff" and (header.r, header.s) == (1, 2)
        rc = run_cli(["verify", str(out)])
        capsys.readouterr()
        assert rc == 0

    def test_sperner_requires_one_one(self, capsys):
        rc = run_cli([
            "construct", "cff", "--n", "6", "--r", "1", "--s", "2",
            "--method", "sperner",
        ])
        assert rc == 2
        capsys.readouterr()

    def test_sperner(self, capsys):
        rc = run_cli(["construct", "cff", "--n", "7", "--r", "1", "--s", "1", "--method", "sperner"])
        captured = capsys.readouterr()
        assert rc == 0
        assert parse_kv(captured.out)["size"] == "5"

    def test_degenerate_edge_skips_bounds(self, capsys):
        rc = run_cli(["construct", "cff", "--n", "4", "--r", "0", "--s", "2", "--method", "derand"])
        captured = capsys.readouterr()
        assert rc == 0
        assert parse_kv(captured.out)["size"] == "1"
        assert "nrs" not in parse_kv(captured.out)

    def test_resource_cap_exit_code(self):
        rc, _, err, _ = run_limited(
            ["construct", "cff", "--n", "60", "--r", "3", "--s", "3", "--method", "derand"]
        )
        assert rc == 3
        assert "error" in err


# Runs one CLI command under an address-space limit, 1 GiB unless given, and
# reports on its last stderr line how long run_cli took. A too-big run that starts building
# then fails its test by MemoryError or by the timeout, instead of taking the
# memory of the process that runs the tests.
_LIMITED_CHILD = """
import resource, sys, time
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from coverkit.cli import run_cli
started = time.perf_counter()
status = run_cli(sys.argv[2:])
print(f"elapsed={time.perf_counter() - started}", file=sys.stderr)
sys.exit(status)
"""


def child_env():
    """The environment of a child process that imports the same coverkit as
    this process, however pytest found it."""
    src = str(Path(coverkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_limited(argv, limit=1 << 30):
    """(exit status, stdout, stderr without the timing line, seconds in run_cli)."""
    result = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, str(limit), *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    err, _, timing = result.stderr.rstrip("\n").rpartition("\n")
    assert timing.startswith("elapsed="), result.stderr
    return result.returncode, result.stdout, err + "\n" if err else "", float(timing[8:])


class TestTooBigIsRefused:
    """A run estimated past the work budget, or out of memory, exits 3 at
    once, however far past the budget it is: construct and verify with one
    stderr line, minimal with a budget_exceeded outcome of nodes 0. Each runs
    in a child process with bounded memory."""

    def refused(self, argv, limit=1 << 30):
        rc, out, err, elapsed = run_limited(argv, limit)
        assert rc == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert elapsed < 1.0
        return err

    def test_universal_constraint_count_too_long_to_print(self):
        # 3**10000 constraints: refused by the exponent alone, never counted
        err = self.refused(
            ["construct", "universal", "--n", "10000", "--d", "10000", "--q", "3",
             "--method", "greedy"]
        )
        assert err == f"error: estimated work of at least 2**10014 exceeds the budget of {BUDGET}\n"

    def test_universal_constraint_count_past_printing_with_a_huge_n(self):
        # C(10**4000, 2) * 4 has more digits than the interpreter prints
        err = self.refused(
            ["construct", "universal", "--n", "1" + "0" * 4000, "--d", "2", "--method", "greedy"]
        )
        assert err == f"error: estimated work of at least 2**13292 exceeds the budget of {BUDGET}\n"

    def test_cff_constraint_count_too_long_to_print(self):
        self.refused(
            ["construct", "cff", "--n", "20000", "--r", "10000", "--s", "10000",
             "--method", "derand"]
        )

    def test_universal_greedy_with_a_huge_strength(self):
        err = self.refused(
            ["construct", "universal", "--n", "16000000", "--d", "16000000", "--q", "3",
             "--method", "greedy"]
        )
        assert "at least 2**16000024 " in err

    def test_cff_derandomized_with_huge_binomials(self):
        err = self.refused(
            ["construct", "cff", "--n", "2000000", "--r", "1000000", "--s", "1000000",
             "--method", "derand"]
        )
        assert "at least 2**1000021 " in err

    def test_cff_sperner(self):
        # 20000 * 19999 (R, S) pairs: refused before the antichain is built
        err = self.refused(
            ["construct", "cff", "--n", "20000", "--r", "1", "--s", "1", "--method", "sperner"]
        )
        assert err == f"error: estimated work of at least 2**39 exceeds the budget of {BUDGET}\n"

    def test_cff_sperner_with_a_huge_n(self):
        # Refused before the row count is searched for
        err = self.refused(
            ["construct", "cff", "--n", "1" + "0" * 4000, "--r", "1", "--s", "1",
             "--method", "sperner"]
        )
        assert err == f"error: estimated work of at least 2**26589 exceeds the budget of {BUDGET}\n"

    @pytest.mark.parametrize("n, r, e", [("90", "2", 39), ("8000", "1", 45)])
    def test_cff_derandomized_past_the_budget_by_its_work(self, n, r, e):
        # Under 2**26 (R, S) pairs, but 211 s and 593 MB at (90, (2, 2)),
        # and an index of about 10**12 bits at (8000, (1, 1))
        err = self.refused(["construct", "cff", "--n", n, "--r", r, "--s", r, "--method", "derand"])
        assert err == f"error: estimated work of at least 2**{e} exceeds the budget of {BUDGET}\n"

    def test_verify_past_the_budget_by_its_subsets(self, tmp_path):
        # C(1000, 3) subsets of 200 rows: about 18 minutes of scanning
        rng = random.Random(3)
        rows = ["".join(rng.choice("01") for _ in range(1000)) for _ in range(200)]
        f = tmp_path / "wide.txt"
        f.write_text("kind=universal n=1000 q=2 rows=200 d=3\n" + "\n".join(rows) + "\n")
        err = self.refused(["verify", str(f)])
        assert err == f"error: estimated work of at least 2**43 exceeds the budget of {BUDGET}\n"

    def test_running_out_of_memory(self, tmp_path):
        # The first witness alone holds 8 * 10**6 column indices, about
        # 320 MB, which the work budget admits at 2**12 a column but 256 MiB
        # of address space does not hold.
        f = tmp_path / "empty.txt"
        f.write_text("kind=cff n=1000000000 q=2 rows=0 r=8000000 s=1\n")
        err = self.refused(["verify", str(f)], limit=1 << 28)
        assert err == "error: out of memory\n"

    def test_verify_charges_building_and_printing_the_first_witness(self, tmp_path):
        # 1.6 * 10**7 witness columns, about 640 MB to build and more to
        # print, which 1 GiB does not hold: at 2**12 a column, about what
        # building and printing one costs, they are refused up front.
        f = tmp_path / "empty.txt"
        f.write_text("kind=cff n=1000000000 q=2 rows=0 r=16000000 s=1\n")
        err = self.refused(["verify", str(f)])
        assert err == f"error: estimated work of at least 2**35 exceeds the budget of {BUDGET}\n"

    def test_printable_count_keeps_its_message(self):
        err = self.refused(
            ["construct", "cff", "--n", "60", "--r", "3", "--s", "3", "--method", "derand"]
        )
        assert err == f"error: estimated work of at least 2**47 exceeds the budget of {BUDGET}\n"

    def test_verify_refuses_a_huge_strength_before_computing_q_to_the_d(self, tmp_path):
        # An empty matrix pays only for its first witness's 16 * 10**6 columns.
        f = tmp_path / "huge.txt"
        f.write_text("kind=universal n=16000000 q=3 rows=0 d=16000000\n")
        err = self.refused(["verify", str(f)])
        assert err == f"error: estimated work of at least 2**35 exceeds the budget of {BUDGET}\n"

    def test_verify_charges_an_empty_matrix_its_first_witness(self, tmp_path):
        # The first witness's R alone would hold 999,999,999 columns, some
        # 8 GB: 2**12 for each of its 10**9 columns is past the budget.
        f = tmp_path / "empty.txt"
        f.write_text("kind=cff n=1000000000 q=2 rows=0 r=999999999 s=1\n")
        err = self.refused(["verify", str(f)])
        assert err == f"error: estimated work of at least 2**41 exceeds the budget of {BUDGET}\n"

    def test_minimal_over_the_constraint_cap(self):
        # 2**20 candidate rows of C(20, 10) * 2**10 = 189,190,144 constraints
        rc, out, err, elapsed = run_limited(["minimal", "--n", "20", "--d", "10"])
        assert (rc, out, err) == (3, "status=budget_exceeded\nnodes=0\n", "")
        assert elapsed < 1.0

    def test_minimal_over_the_mask_bits_cap(self):
        # 2**20 candidate rows and C(20, 10) = 184,756 constraints: about
        # 24 GB of cover masks
        rc, out, err, elapsed = run_limited(["minimal", "--n", "20", "--r", "10", "--s", "10"])
        assert (rc, out, err) == (3, "status=budget_exceeded\nnodes=0\n", "")
        assert elapsed < 1.0


class TestVerify:
    def test_violated_with_witness(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("kind=raw n=3 q=2 rows=2\n000\n111\n")
        rc = run_cli(["verify", str(f), "--d", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "violated" in captured.out
        assert "S=1,2 sigma=01" in captured.out

    def test_cff_witness_one_based(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("kind=raw n=2 q=2 rows=1\n11\n")
        rc = run_cli(["verify", str(f), "--r", "1", "--s", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "R=1 S=2" in captured.out

    def test_raw_needs_flags(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("kind=raw n=2 q=2 rows=1\n01\n")
        assert run_cli(["verify", str(f)]) == 2
        capsys.readouterr()

    def test_flag_combinations_rejected(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("kind=raw n=2 q=2 rows=1\n01\n")
        assert run_cli(["verify", str(f), "--d", "1", "--r", "1", "--s", "1"]) == 2
        assert run_cli(["verify", str(f), "--r", "1"]) == 2
        capsys.readouterr()

    def test_both_modes_rejected_with_the_shared_message(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("kind=raw n=2 q=2 rows=1\n01\n")
        assert run_cli(["verify", str(f), "--d", "2", "--r", "1", "--s", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: give either --d or --r/--s, not both\n"
        assert captured.out == ""

    @pytest.mark.parametrize("header, witness", [
        ("kind=cff n=1000000000 q=2 rows=0 r=1 s=1", "R=1 S=2"),
        ("kind=universal n=1000000000 q=2 rows=0 d=1", "S=1 sigma=0"),
        # 2**25 patterns: a scan's pattern charge would refuse it.
        ("kind=universal n=30 q=2 rows=0 d=25", f"S={','.join(map(str, range(1, 26)))} sigma={'0' * 25}"),
    ])
    def test_an_empty_matrix_fails_at_once_whatever_its_n(self, tmp_path, header, witness):
        f = tmp_path / "empty.txt"
        f.write_text(header + "\n")
        rc, out, err, elapsed = run_limited(["verify", str(f)])
        assert (rc, out, err) == (1, f"violated\n{witness}\n", "")
        assert elapsed < 1.0

    def test_cff_defaults_from_header(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("kind=cff n=2 q=2 rows=2 r=1 s=1\n10\n01\n")
        rc = run_cli(["verify", str(f)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.out.strip() == "valid"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("kind=raw n=2 q=2 rows=5\n01\n")
        assert run_cli(["verify", str(f)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli(["verify", "/no/such/file"]) == 2
        capsys.readouterr()

    def test_a_byte_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_bytes(b"kind=raw n=2 q=2 rows=2\n01\n1\xff\n")
        assert run_cli(["verify", str(f), "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: byte 0xff is not UTF-8 text\n"


class TestCffFlagsNeedBinary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["minimal", "--n", "5", "--r", "1", "--s", "1", "--q", "3"],
            ["bounds", "--n", "10", "--r", "1", "--s", "1", "--q", "3"],
            ["bounds", "--n", "10", "--r", "1", "--s", "1", "--q", "36"],
        ],
    )
    def test_a_non_binary_q_is_refused(self, argv, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        q = argv[-1]
        assert captured.err == f"error: --r/--s name a binary cover-free family, got q = {q}\n"

    def test_verify_refuses_a_non_binary_file(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("kind=raw n=2 q=3 rows=1\n12\n")
        assert run_cli(["verify", str(f), "--r", "1", "--s", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --r/--s name a binary cover-free family, got q = 3\n"

    def test_q_2_is_accepted(self, capsys):
        assert run_cli(["minimal", "--n", "5", "--r", "1", "--s", "1", "--q", "2"]) == 0
        assert parse_kv(capsys.readouterr().out)["size"] == "4"


class TestBounds:
    def test_universal_fields(self, capsys):
        rc = run_cli(["bounds", "--n", "1024", "--d", "4", "--q", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        pairs = parse_kv(captured.out)
        assert float(pairs["union_bound"]) == pytest.approx(399.2528, rel=1e-6)
        assert float(pairs["kleitman_reference"]) == 160.0
        assert float(pairs["theorem1_target"]) == 640.0
        assert pairs["log_base"] == "2"
        caveat_lines = [l for l in captured.out.splitlines() if "caveat=asymptotic" in l]
        assert len(caveat_lines) == 2

    def test_cff_fields(self, capsys):
        rc = run_cli(["bounds", "--n", "1024", "--r", "2", "--s", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        pairs = parse_kv(captured.out)
        assert float(pairs["dyachkov"]) == pytest.approx(92.8446737, rel=1e-6)
        assert float(pairs["entropy_form"]) == 160.0

    def test_mode_flags_required(self, capsys):
        assert run_cli(["bounds", "--n", "16"]) == 2
        assert run_cli(["bounds", "--n", "16", "--d", "2", "--r", "1", "--s", "1"]) == 2
        capsys.readouterr()

    def test_domain_error_exit_code(self, capsys):
        assert run_cli(["bounds", "--n", "16", "--r", "0", "--s", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "2000", "--d", "1000", "--q", "3"],  # 3.0**1000 overflows
            ["--n", "3000", "--d", "1100", "--q", "2"],  # 2.0**1100 overflows
            ["--n", "3000", "--r", "1000", "--s", "1000"],  # float(C(2000, 1000)) overflows
        ],
    )
    def test_overflowing_bound_is_a_domain_error(self, argv, capsys):
        assert run_cli(["bounds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a bound at ") and captured.err.count("\n") == 1

    def test_a_huge_rate_is_refused_before_its_binomial(self):
        # C(2 * 10**6, 10**6) would take about 40 s to build; min(r, s) alone
        # puts the rate past the double range.
        rc, out, err, elapsed = run_limited(
            ["bounds", "--n", "2000005", "--r", "1000000", "--s", "1000000"]
        )
        assert rc == 2
        assert out == ""
        assert err == "error: a bound at (r, s) = (1000000, 1000000) exceeds the double range\n"
        assert elapsed < 1.0

    def test_construct_notes_an_overflowing_bound(self, capsys):
        # Every spec whose bounds overflow is far past the constraint cap, so
        # construct's reporting step is driven directly.
        spec, matrix = UniversalSpec(2000, 1000, 3), SymbolMatrix(n=2000, q=3)
        assert cli._report_construction(Namespace(out=None), spec, matrix, "greedy") == 0
        captured = capsys.readouterr()
        assert captured.out == "size=0\nself_verify=valid\n"
        assert captured.err.startswith("note: bounds not reported: a bound at ")
        assert captured.err.count("\n") == 1


class TestMinimal:
    def test_universal(self, capsys):
        rc = run_cli(["minimal", "--n", "4", "--d", "2", "--q", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert parse_kv(captured.out)["size"] == "5"

    def test_cff(self, capsys):
        rc = run_cli(["minimal", "--n", "7", "--r", "1", "--s", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert parse_kv(captured.out)["size"] == "5"

    def test_max_rows_infeasible(self, capsys):
        rc = run_cli(["minimal", "--n", "4", "--d", "2", "--max-rows", "4"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == "status=infeasible\nnodes=31\nmax_rows=4\n"

    def test_node_limit(self, capsys):
        rc = run_cli(["minimal", "--n", "4", "--d", "2", "--node-limit", "2"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "status=budget_exceeded" in captured.out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run_cli(["construct", "universal", "--n", "4", "--method", "greedy"]) == 2
        capsys.readouterr()

    def test_the_parser_is_built_once_and_parsing_leaves_it_as_built(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        for argv in (["bounds", "--n"], ["minimal", "--n", "4", "--d", "2", "--max-rows", "1"],
                     ["--help"], ["construct", "cff", "--help"]):
            run_cli(argv)
        capsys.readouterr()
        fresh = cli.build_parser.__wrapped__()
        for argv in (["minimal", "--n", "4", "--d", "2"],
                     ["construct", "cff", "--n", "5", "--r", "1", "--s", "2", "--method", "derand"]):
            assert cli.build_parser().parse_args(argv) == fresh.parse_args(argv)
        assert cli.build_parser().format_help() == fresh.format_help()

    def test_entry_point_in_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "coverkit.cli", "bounds", "--n", "16", "--d", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert "union_bound=" in result.stdout
