"""coverkit benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; coverkit is imported from ``src/``
there and nowhere else. The client runs whole passes of the workload's
operations, one pass per ``workloads.PASS_SECONDS`` of ``--seconds``. Each
operation is timed from the call to its checked result, and between
operations a fixed piece of the benchmark's own work measures the
machine's speed (see ``calibrate``); times are reported at a reference
speed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every other pass runs with a span
around every public function of each coverkit module, and the metrics are
the per-layer ones. A record of the run, with every operation's latency, is
written under ``bench/out/records/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS_PER_PASS = 2
TAIL_BEYOND = 10
# On the VM named in workloads.PASS_SECONDS, which other tenants share, the
# same operation runs up to twice as fast in one minute as in another, and
# a 30 s run cannot average that out. So each operation and each set-up is
# scaled by the time ``calibrate`` takes just before and just after it: a
# time is reported as it would read at the speed at which ``calibrate``
# takes CALIBRATION_REFERENCE_S, about its median between operations on
# that VM. The raw wall times go to the run record.
CALIBRATION_REFERENCE_S = 0.0275
_CALIBRATION_COLUMNS = [[i for i in range(3000) if (i * 7 + j) % 5 == 0] for j in range(20)]
# 4 MB of zeros walked with a stride of about 1.9 MB: each step reads a new
# cache line on a new page, and the lines one walk reads outgrow a core's
# 2 MB L2 cache, so the walk waits on the L3 cache that other tenants share.
_WALK_SLOTS = 1 << 20
_WALK_STEP = 0x779B1
_WALK = array("i", bytes(4 * _WALK_SLOTS))


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work: integer adds through
    per-column index lists and an argmax, shaped like the greedy engines'
    inner loops (about two thirds of the time), then a walk through
    memory beyond the L2 cache, as the oracle's cover masks and the larger
    constraint indexes are. It calls nothing in coverkit, so no change there
    moves it."""
    start = time.perf_counter()
    counts = [0] * 3000
    for _ in range(24):
        for j, members in enumerate(_CALIBRATION_COLUMNS):
            for i in members:
                counts[i] += j
        max(range(3000), key=counts.__getitem__)
    i = 0
    for _ in range(12_000):
        i = (_WALK[i] + i + _WALK_STEP) & (_WALK_SLOTS - 1)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the calibration times
    measured just before and just after."""
    return seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2)


def planned_passes(seconds: float, pass_seconds: float, ops_per_pass: int) -> int:
    """Whole passes for a run of about ``seconds``: enough for a tail
    sample, and at least one."""
    return max(round(seconds / pass_seconds), -(-(TAIL_BEYOND + 1) // ops_per_pass), 1)

def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least ``beyond`` samples above it: the (N - beyond)-th smallest of N."""
    if len(samples) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(samples)}")
    ordered = sorted(samples)
    k = len(ordered) - beyond
    return ordered[k - 1], 100.0 * k / len(ordered)


def package_modules() -> dict:
    """The modules a set-up imports: coverkit's and the workloads'."""
    return {name: module for name, module in sys.modules.items()
            if name in ("coverkit", "workloads") or name.startswith("coverkit.")}


def import_package():
    """Import coverkit from this checkout's ``src/``, or fail."""
    src = ROOT / "src"
    if not (src / "coverkit" / "__init__.py").is_file():
        raise ImportError(f"no coverkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import coverkit

    if Path(coverkit.__file__).resolve().parent != (src / "coverkit").resolve():
        raise ImportError(f"coverkit was imported from {coverkit.__file__}, not {src}")
    return importlib.import_module("workloads")


class Loop:
    """Timed passes of a workload's operations, with their outcomes. Each
    operation is timed from the call to its checked result and scaled by
    the calibrations on either side of it."""

    def __init__(self, ops, recorder=None) -> None:
        self.ops = ops
        self.recorder = recorder
        self.samples: list[dict] = []
        self.failures: list[dict] = []
        self.rows_per_pass: list[int] = []
        self.deferred: dict[str, dict] = {}
        self.digests: dict[str, str] = {}

    def run_pass(self) -> None:
        pass_rows = 0
        before = calibrate()
        for op in self.ops:
            if op.phase is not None and op.phase != len(self.rows_per_pass) % 2:
                continue
            if self.recorder is not None:
                self.recorder.op = len(self.samples)
            detail, rows = "", 0
            start = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:  # an operation that raises is a failed operation
                seconds = time.perf_counter() - start
                failure = f"raised {type(exc).__name__}: {exc}"
                detail = traceback.format_exc()
            else:
                seconds = time.perf_counter() - start
                rows = outcome.rows
                failure = outcome.failure
                if outcome.deferred is not None and failure is None:
                    digest, check = outcome.deferred
                    first = self.digests.setdefault(op.name, digest)
                    if first != digest:
                        failure = "output changed between passes"
                    else:
                        entry = self.deferred.setdefault(digest, {"check": check, "ops": []})
                        entry["ops"].append(len(self.samples))
            after = calibrate()
            self._record(op.name, seconds, scaled(seconds, before, after), rows, failure, detail)
            pass_rows += rows
            before = after
        if self.recorder is not None:
            self.recorder.op = None
        self.rows_per_pass.append(pass_rows)

    def _record(self, name: str, wall: float, seconds: float, rows: int, failure: str | None,
                detail: str = "") -> None:
        index = len(self.samples)
        self.samples.append({"op": name, "pass": len(self.rows_per_pass), "wall_s": wall,
                             "seconds": seconds, "rows": rows, "ok": failure is None})
        if failure is not None:
            self.failures.append({"index": index, "op": name, "failure": failure, "detail": detail})

    def check_deferred(self) -> None:
        """Reference-check each unpinned output once, after timing."""
        for digest, entry in self.deferred.items():
            failure = entry["check"]()
            if failure is not None:
                for index in entry["ops"]:
                    self.samples[index]["ok"] = False
                    self.failures.append({"index": index, "op": self.samples[index]["op"],
                                          "failure": f"reference: {failure}", "detail": digest})

    @property
    def latencies(self) -> list[float]:
        """Scaled seconds of each operation."""
        return [sample["seconds"] for sample in self.samples]

    @property
    def wall_latencies(self) -> list[float]:
        return [sample["wall_s"] for sample in self.samples]

    @property
    def rows_total(self) -> int:
        """Rows of every operation's first output, each operation counted
        once, whichever passes it runs in."""
        first: dict[str, int] = {}
        for sample in self.samples:
            first.setdefault(sample["op"], sample["rows"])
        return sum(first.values())

    @property
    def failed(self) -> int:
        """Operations with at least one failure."""
        return len({f["index"] for f in self.failures})

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / sum(self.latencies)


def build_inputs(workloads, workload: str, seed: int) -> tuple[list, str]:
    """A workload's operations, built in a fresh directory, after the
    warm-up pass has run."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ops, warm = workloads.build(workload, seed, workdir)
        for op in warm:
            try:
                op.run()
            except Exception:  # the timed passes count a failing path as failed
                pass
    except BaseException:
        shutil.rmtree(workdir)
        raise
    return ops, workdir


def set_up_again(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, wall) seconds for one more whole set-up, from a fresh import
    of coverkit to the end of the warm-up. Its modules and inputs are
    dropped again; the operations being measured keep theirs."""
    kept = package_modules()
    for name in kept:
        del sys.modules[name]
    try:
        before = calibrate()
        start = time.perf_counter()
        workloads = import_package()
        _, workdir = build_inputs(workloads, workload, seed)
        seconds = time.perf_counter() - start
        after = calibrate()
        shutil.rmtree(workdir)
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(kept)
    gc.collect()  # not inside the next timed operation
    return scaled(seconds, before, after), seconds


def source_digest() -> str:
    """sha256 over the package sources, naming the code that was measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("construct", "verify", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    before = calibrate()
    start = time.perf_counter()
    try:
        workloads = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    try:
        ops, workdir = build_inputs(workloads, args.workload, args.seed)
    except (workloads.SetupError, OSError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_wall = time.perf_counter() - start
    setups = [(scaled(setup_wall, before, calibrate()), setup_wall)]

    recorder = tracing.Recorder() if args.trace else None
    pass_seconds = workloads.PASS_SECONDS[args.workload]
    every_pass = sum(op.phase is None for op in ops)
    try:
        loop = Loop(ops, recorder)
        if args.trace:
            # Traced and untraced passes alternate, so that both see the
            # same drift of the machine; each half is a run of its own.
            untraced = Loop(ops)
            for i in range(2 * planned_passes(args.seconds / 2, pass_seconds, every_pass)):
                if i % 2:
                    untraced.run_pass()
                    continue
                uninstall = tracing.install(recorder)
                try:
                    loop.run_pass()
                finally:
                    uninstall()
            loops = [loop, untraced]
        else:
            # Further set-ups between the passes sample the machine over
            # the whole run, as the operations do. The peak memory is read
            # before the first of them, once every operation has run (two
            # passes if some take turns, else one): each set-up imports
            # coverkit once more, which a user's process does not.
            passes = planned_passes(args.seconds, pass_seconds, every_pass)
            ready = min(int(every_pass < len(ops)), passes - 1)
            for i in range(passes):
                loop.run_pass()
                if i == ready:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if i >= ready:
                    setups.extend(set_up_again(args.workload, args.seed)
                                  for _ in range(SETUP_REPEATS_PER_PASS))
            loops = [loop]
        for each in loops:
            each.check_deferred()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(each.latencies) for each in loops)
    failed = sum(each.failed for each in loops)
    tail_value, tail_pct = tail(loop.latencies)
    if args.trace:
        values = tracing.layer_metrics(recorder, sum(loop.wall_latencies),
                                       len(loop.rows_per_pass))
        values["trace.ops_per_s"] = loop.ops_per_s
        values["trace.untraced_ops_per_s"] = untraced.ops_per_s
        metrics = {name: metric(value, tracing.unit(name)) for name, value in values.items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(s for s, _ in setups), "s"),
            "ops_per_s": metric(loop.ops_per_s, "1/s"),
            "op_p50_s": metric(statistics.median(loop.latencies), "s"),
            "op_tail_s": metric(tail_value, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "rows_total": metric(loop.rows_total, "count"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "passes": len(loop.rows_per_pass),
        "rows_per_pass": loop.rows_per_pass,
        "import_s": import_s,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "setup_repeats_s": [s for s, _ in setups],
        "setup_repeats_wall_s": [wall for _, wall in setups],
        "wall_op_p50_s": statistics.median(loop.wall_latencies),
        "tail_percentile": tail_pct,
        "tail_samples": len(loop.latencies),
        "failed_ratio": failed / attempted,
        "failures": [f for each in loops for f in each.failures][:20],
        "latencies": loop.samples,
        "metrics": metrics,
    }
    records = OUT_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(records / name, "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"{args.workload} seed={args.seed}: {attempted} ops in {len(loop.rows_per_pass)} passes, "
          f"{failed} failed; op_tail_s is p{tail_pct:.1f} of {len(loop.latencies)} samples; "
          f"record {records / name}")
    for failure in [f for each in loops for f in each.failures][:5]:
        print(f"failed: {failure['op']}: {failure['failure']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
