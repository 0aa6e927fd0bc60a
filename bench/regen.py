"""Rebuild the benchmark's pinned inputs and expectations.

    python3 bench/regen.py              # manifest and pins, a few minutes
    python3 bench/regen.py --matrices   # first rebuild the pinned verify inputs

Run from the root of a source checkout. The pinned verify inputs are
coverkit's own outputs (the manifest records the command for each); every
expectation written here comes from the definitional reference in
``reference.py`` and is then confirmed against coverkit. A pin that
coverkit does not reproduce stops the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import reference  # noqa: E402
import workloads as w  # noqa: E402

MATRIX_COMMANDS = {
    "universal_30_4_2": ["construct", "universal", "--n", "30", "--d", "4", "--method", "greedy"],
    "cff_40_2_2": ["construct", "cff", "--n", "40", "--r", "2", "--s", "2", "--method", "derand"],
    "universal_16_3_3": ["construct", "universal", "--n", "16", "--d", "3", "--q", "3",
                         "--method", "greedy"],
}
# Rows whose deletion uncovers this few constraints let a column permutation
# place the first witness anywhere in the scan.
MAX_LOST, MAX_DELETIONS = 4, 6


def build_matrices() -> None:
    for name, argv in MATRIX_COMMANDS.items():
        status, out, err = w.run_cli(argv + ["--out", str(w.DATA_DIR / f"{name}.txt")])
        if status != 0:
            sys.exit(f"{name}: coverkit exited {status}: {err}")
        print(f"built {name}: {out.splitlines()[0]}")


def write_manifest() -> None:
    matrices = {}
    for name, argv in MATRIX_COMMANDS.items():
        path = w.DATA_DIR / f"{name}.txt"
        text = path.read_text()
        header, rows = reference.parse_array(text)
        expect = {k: v for k, v in header.items() if k in ("kind", "n", "q", "d", "r", "s")}
        failure = reference.check_document(text, expect)
        if failure is not None:
            sys.exit(f"{name}: {failure}")
        lost = reference.unique_covers(header, rows)
        chosen = sorted((len(cs), k) for k, cs in lost.items() if len(cs) <= MAX_LOST)
        matrices[name] = {
            "file": path.name,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "command": "PYTHONPATH=src python3 -m coverkit.cli " + " ".join(argv)
                       + f" --out bench/data/{path.name}",
            "deletions": {str(k): lost[k] for _, k in chosen[:MAX_DELETIONS]},
        }
        print(f"{name}: {len(rows)} rows, delete one of {sorted(matrices[name]['deletions'])}")
    manifest = {"regenerate": "python3 bench/regen.py --matrices", "matrices": matrices}
    with open(w.DATA_DIR / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")


def construct_pins(workdir: str) -> dict:
    argvs = {" ".join(argv): argv for choices in w.CONSTRUCT_FAMILIES.values()
             for argv in choices}
    pins = {}
    for key, argv in sorted(argvs.items()):
        path = str(Path(workdir) / "out.txt")
        status, out, err = w.run_cli(argv + ["--out", path])
        if status != 0:
            sys.exit(f"{key}: coverkit exited {status}: {err}")
        data = Path(path).read_bytes()
        header, rows = reference.parse_array(data.decode())
        failure = reference.check_document(data.decode(), w.expected_header(argv))
        if failure is not None:
            sys.exit(f"{key}: {failure}")
        pins[key] = {"sha256": hashlib.sha256(data).hexdigest(), "rows": len(rows)}
        print(f"pinned {key}: {len(rows)} rows")
    return pins


def verify_pins(workdir: str) -> dict:
    pins = {}
    for seed in (w.DEFAULT_SEED, w.HELD_OUT_SEED):
        expected = {}
        inputs = w.verify_inputs(seed)
        for item in inputs:
            expected[item.name] = item.stdout
            if item.uncovered is not None:
                expected["count-" + item.name.removeprefix("violated-")] = item.uncovered
        for op in w.verify_ops(inputs, workdir, None):
            outcome = op.run()
            if outcome.failure is not None:
                sys.exit(f"seed {seed} {op.name}: coverkit disagrees: {outcome.failure}")
        pins[str(seed)] = expected
        print(f"pinned verify seed {seed}")
    return pins


def main() -> None:
    parser = argparse.ArgumentParser(description="Rebuild the benchmark's pins.")
    parser.add_argument("--matrices", action="store_true",
                        help="rebuild the pinned verify inputs with coverkit first")
    args = parser.parse_args()
    if args.matrices:
        build_matrices()
    write_manifest()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as workdir:
        pins = {
            "default_seed": w.DEFAULT_SEED,
            "held_out_seed": w.HELD_OUT_SEED,
            "construct": construct_pins(workdir),
            "verify": verify_pins(workdir),
        }
    with open(w.PINS_FILE, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
