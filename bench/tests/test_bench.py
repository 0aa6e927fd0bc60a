"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import random
import sys
import types
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import coverkit  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- op_tail_s -----------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(30, 0, -1)]
    value, pct = run.tail(samples)
    assert value == 20.0
    assert sum(1 for x in samples if x > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_with_eleven_samples_is_the_minimum():
    assert run.tail([float(x) for x in range(11)]) == (0.0, pytest.approx(100 / 11))


def test_tail_refuses_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_times_are_scaled_by_the_calibrations_on_either_side():
    ref = run.CALIBRATION_REFERENCE_S
    assert run.scaled(1.0, ref, ref) == pytest.approx(1.0)
    assert run.scaled(1.0, ref, 3 * ref) == pytest.approx(0.5)


def test_a_pass_reports_scaled_times(monkeypatch):
    calibrations = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(run, "CALIBRATION_REFERENCE_S", 2.0)
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    ops = [workloads.Op(name, lambda: workloads.Outcome(None, 1)) for name in ("a", "b")]
    loop = run.Loop(ops)
    loop.run_pass()
    # each op is scaled by 2.0 / ((1 + 3) / 2) = 1.0 of its wall time
    assert loop.latencies == pytest.approx(loop.wall_latencies)
    assert loop.ops_per_s == pytest.approx(2 / sum(loop.wall_latencies))


def test_passes_follow_seconds_and_leave_a_tail_sample():
    assert run.planned_passes(30, 7.5, 13) == 4
    assert run.planned_passes(30, 6, 10) == 5
    assert run.planned_passes(1, 7.5, 13) == 1
    assert run.planned_passes(1, 7.5, 9) == 2
    assert run.planned_passes(60, 7.5, 9) == 8


def test_ops_with_a_phase_take_turns():
    ran = []

    def op(name, phase=None):
        return workloads.Op(name, lambda: ran.append(name) or workloads.Outcome(None, 1), phase)

    loop = run.Loop([op("every"), op("even", 0), op("odd", 1)])
    for _ in range(3):
        loop.run_pass()
    assert ran == ["every", "even", "every", "odd", "every", "even"]
    assert [s["pass"] for s in loop.samples] == [0, 0, 1, 1, 2, 2]
    assert loop.rows_per_pass == [2, 2, 2]
    assert loop.rows_total == 3


# --- spans and self time ---------------------------------------------------

class TickClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self) -> None:
        self.now = -1

    def __call__(self) -> float:
        self.now += 1
        return float(self.now)


def test_self_time_subtracts_nested_and_repeated_children():
    recorder = tracing.Recorder(clock=TickClock())
    leaf = recorder.wrap("core", lambda: None)
    inner = recorder.wrap("verify", lambda: leaf())
    outer = recorder.wrap("cli", lambda: (inner(), inner(), leaf()))
    recorder.op = 0
    outer()
    spans = recorder.spans
    assert [s.layer for s in spans] == ["cli", "verify", "core", "verify", "core", "core"]
    assert [s.parent for s in spans] == [None, 0, 1, 0, 3, 0]
    # ticks: cli 0..11, verify 1..4 (core 2..3), verify 5..8 (core 6..7), core 9..10
    assert recorder.self_times() == [11 - 3 - 3 - 1, 3 - 1, 1, 3 - 1, 1, 1]
    metrics = tracing.layer_metrics(recorder, op_seconds=12.0, passes=1)
    assert metrics["cli.self_s"] == 4
    assert metrics["verify.self_s"] == 4
    assert metrics["core.self_s"] == 3
    assert metrics["unattributed_s"] == 1


def test_spans_outside_operations_are_not_counted():
    recorder = tracing.Recorder(clock=TickClock())
    work = recorder.wrap("core", lambda: None)
    work()
    recorder.op = 0
    work()
    metrics = tracing.layer_metrics(recorder, op_seconds=1.0, passes=1)
    assert metrics["core.self_s"] == 1


# --- wrapping every binding ------------------------------------------------

@pytest.fixture
def fake_package():
    names = ["fakepkg", "fakepkg.core", "fakepkg.cli"]
    modules = {name: types.ModuleType(name) for name in names}
    exec("def work(x):\n    return x + 1\n", modules["fakepkg.core"].__dict__)
    cli = modules["fakepkg.cli"].__dict__
    cli["do_work"] = modules["fakepkg.core"].work
    exec("def run_cli(x):\n    return do_work(x) + work_again(x)\n", cli)
    cli["work_again"] = modules["fakepkg.core"].work
    modules["fakepkg"].work = modules["fakepkg.core"].work
    sys.modules.update(modules)
    yield modules
    for name in names:
        del sys.modules[name]


def test_every_binding_is_wrapped_and_traced_once_per_call(fake_package):
    original = fake_package["fakepkg.core"].work
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder, "fakepkg", {"core": ("work",), "cli": ("run_cli",)}, {})
    pkg, core, cli = (fake_package[n] for n in ("fakepkg", "fakepkg.core", "fakepkg.cli"))
    assert pkg.work is core.work is cli.do_work is cli.work_again is not original
    recorder.op = 0
    assert pkg.work(1) == 2
    assert len(recorder.spans) == 1
    assert cli.run_cli(1) == 4
    assert [(s.name, s.parent) for s in recorder.spans[1:]] == [
        ("run_cli", None), ("work", 1), ("work", 1)]
    uninstall()
    assert pkg.work is core.work is cli.do_work is cli.work_again is original


def test_a_pattern_matching_nothing_is_an_error(fake_package):
    with pytest.raises(LookupError):
        tracing.install(tracing.Recorder(), "fakepkg", {"core": ("missing_*",)}, {})


def test_coverkit_layers_are_all_traced():
    found = tracing.traced_functions()
    assert {layer: [f.__name__ for f in fns] for layer, fns in found.items()} == {
        "cli": ["run_cli"],
        "arrayfile": ["save_array", "load_array"],
        "cff": ["construct_cff_derandomized", "construct_cff_randomized",
                "construct_cff_sperner"],
        "universal": ["build_universal_lemma1", "construct_universal_greedy"],
        "verify": ["verify_cff", "verify_universal", "count_uncovered"],
        "oracle": ["minimal_cff_size", "minimal_universal_size"],
        "bounds": ["cff_bounds_report", "universal_bounds_report"],
        "core": ["complement", "dedup_rows"],
    }


def test_traced_construct_records_inner_calls_and_counts(tmp_path):
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        recorder.op = 0
        status, _, _ = workloads.run_cli(
            ["construct", "universal", "--n", "8", "--d", "3", "--method", "lemma1",
             "--out", str(tmp_path / "u.txt")])
    finally:
        uninstall()
    assert status == 0
    names = [s.name for s in recorder.spans]
    assert names[0] == "run_cli"
    # lemma1 builds components i = 0, 1 through the cff constructors, which
    # verify themselves; the CLI verifies the union once more.
    assert names.count("construct_cff_derandomized") == 2
    assert names.count("verify_cff") == 2
    assert names.count("verify_universal") == 1
    metrics = tracing.layer_metrics(recorder, sum(s.duration for s in recorder.spans
                                                  if s.parent is None), 1)
    assert metrics["cff.constraints"] == 8 * 7 * 6 // 6 + 8 * 7 * 6 // 2
    assert metrics["arrayfile.bytes"] == (tmp_path / "u.txt").stat().st_size
    assert metrics["verify.calls"] == 3


def test_constraints_scanned_follow_the_scan_order():
    n, r, s = 7, 2, 2
    header = {"kind": "cff", "n": n, "r": r, "s": s}
    order = []
    for R in combinations(range(n), r):
        rest = [j for j in range(n) if j not in R]
        order.extend((R, S) for S in combinations(rest, s))
    assert reference.constraints_scanned(header, None) == len(order)
    for index in (0, 1, 17, len(order) - 1):
        R, S = order[index]
        assert reference.constraints_scanned(header, (R, S)) == index + 1
        args = {"m": types.SimpleNamespace(n=n), "r": r, "s": s}
        result = types.SimpleNamespace(witness=coverkit.CffWitness(R, S))
        assert tracing.COUNTERS["verify_cff"](args, result)["constraints"] == index + 1


# --- failed operations ------------------------------------------------------

def small_universal():
    rows = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1)]
    header = {"kind": "universal", "n": 4, "q": 2, "d": 2}
    return header, rows


def test_a_wrong_witness_counts_as_a_failure(tmp_path):
    header, rows = small_universal()
    first = next(reference.uncovered(header, rows))
    right = workloads.VerifyInput("violated-right", header, rows,
                                  workloads.witness_stdout(header, first), None)
    wrong = workloads.VerifyInput("violated-wrong", header, rows,
                                  workloads.witness_stdout(header, ((0, 1), (1, 1))), None)
    loop = run.Loop(workloads.verify_ops([right, wrong], str(tmp_path), None))
    loop.run_pass()
    assert [f["op"] for f in loop.failures] == ["violated-wrong"]
    assert loop.failed == 1 and len(loop.latencies) == 2


def test_raising_and_bad_exit_status_count_as_failures():
    def boom():
        raise RuntimeError("boom")

    ops = [workloads.Op("raises", boom),
           workloads.oracle_op(["--n", "4", "--d", "9"], 0, "size=4"),
           workloads.oracle_op(["--n", "4", "--d", "2"], 0, "size=9"),
           workloads.Op("fine", lambda: workloads.Outcome(None, 1))]
    loop = run.Loop(ops)
    loop.run_pass()
    loop.run_pass()
    assert loop.failed == 6
    assert {f["op"] for f in loop.failures} == {"raises", "minimal --n 4 --d 9",
                                                "minimal --n 4 --d 2"}


def test_an_unpinned_output_failing_the_reference_fails_every_run_of_it():
    def bad():
        return "uncovered"

    op = workloads.Op("lv", lambda: workloads.Outcome(None, 3, ("digest", bad)))
    loop = run.Loop([op])
    loop.run_pass()
    loop.run_pass()
    assert loop.failed == 0
    loop.check_deferred()
    assert loop.failed == 2


# --- inputs and expectations ------------------------------------------------

@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_row_deleted_witness_matches_coverkit(seed, tmp_path):
    matrix, _ = coverkit.construct_cff_derandomized(coverkit.CffSpec(12, 2, 2))
    header = {"kind": "cff", "n": 12, "q": 2, "r": 2, "s": 2}
    lost = reference.unique_covers(header, matrix.rows)
    deletions = {str(k): v for k, v in lost.items() if len(v) <= 4}
    manifest = workloads.load_manifest()
    u_header, u_rows = workloads.load_pinned_matrix("universal_16_3_3", manifest)
    rng = random.Random(seed)
    inputs = [
        workloads.row_deleted("cff", header, matrix.rows, deletions, rng, 0.3),
        workloads.row_deleted("universal", u_header, u_rows,
                              manifest["matrices"]["universal_16_3_3"]["deletions"], rng, 0.5),
    ]
    loop = run.Loop(workloads.verify_ops(inputs, str(tmp_path), None))
    loop.run_pass()
    assert loop.failures == [] and len(loop.latencies) == 4


def test_every_construct_output_is_pinned():
    pins = workloads.load_pins()["construct"]
    for seed in range(200):
        for _, argv in workloads.construct_cases(seed):
            assert " ".join(argv) in pins


def test_same_seed_same_inputs():
    assert workloads.construct_cases(3) == workloads.construct_cases(3)
    first, again = workloads.verify_inputs(3), workloads.verify_inputs(3)
    def key(inputs):
        return [(i.name, i.rows, i.stdout) for i in inputs]

    assert key(first) == key(again)


def test_pinned_inputs_match_their_checksums():
    manifest = workloads.load_manifest()
    for name in workloads.VERIFY_MATRICES:
        workloads.load_pinned_matrix(name, manifest)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "rows_total"}
    recorder = tracing.Recorder()
    layer = set(tracing.layer_metrics(recorder, 1.0, 1)) | {
        "trace.ops_per_s", "trace.untraced_ops_per_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit(m["name"])


def test_a_further_set_up_leaves_the_measured_modules_in_place():
    measured = dict(run.package_modules())
    scaled_s, wall_s = run.set_up_again("oracle", 1)
    assert scaled_s > 0 and wall_s > 0
    assert run.package_modules() == measured
