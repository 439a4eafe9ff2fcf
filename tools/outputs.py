"""Output-identity check: write every benchmark case and demo scenario, then diff two such runs.

    python tools/outputs.py run DIR        # outputs of this checkout's src under DIR
    python tools/outputs.py compare A B    # exit 1 if a checked file differs

``run`` builds each workload of ``bhsbench/workloads.py`` at seeds 1 and 5
under ``DIR/<workload>/seed<k>/`` and runs every case, then runs each
scenario of ``demos/scenarios`` with its output prefix moved to
``DIR/demos/<name>``. A full run takes about 4 s on two cores.

``compare`` counts identical and differing files per suffix. Manifests and
scenario files are compared without their ``out=`` and ``farfield_in=``
lines, which hold the directory's own paths; for each that differs it prints
the lines found on one side only. For ``.ind`` maps it prints the worst
pointwise relative difference per workload. It exits 1 if a ``.ff``,
``.mask``, ``.pgm``, ``.loc`` or manifest differs, or if a file is only on
one side.

To check a change against an earlier commit, copy this script into a
checkout of that commit, ``run`` each checkout into its own directory and
``compare`` the two.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 5)
CHECKED = (".ff", ".mask", ".pgm", ".loc", ".manifest")
TEXTS = (".manifest", ".cfg")
PATH_KEYS = ("out=", "farfield_in=")


def run_all(out_dir: Path) -> None:
    sys.path.insert(0, str(ROOT / "bhsbench"))
    import run as bench    # sets one BLAS thread unless the caller chose otherwise

    scenario = bench.import_program()    # bhs from this checkout's src
    import workloads

    def run_file(path, out=None):
        return scenario.run(scenario.load_scenario(path), out=out)

    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for case in workloads.build(name, seed, out_dir / name / f"seed{seed}", run_file).cases:
                run_file(case.path)
    for path in sorted((ROOT / "demos" / "scenarios").glob("*.cfg")):
        run_file(path, out=str(out_dir / "demos" / path.stem))


def _without_paths(path: Path) -> list:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith(PATH_KEYS)]


def _ind_values(path: Path) -> list:
    """Values of an indicator file: its lines after the magic line and the key=value header."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    start = next((i for i, line in enumerate(lines) if "=" not in line), len(lines))
    return [float(v) for v in " ".join(lines[start:]).split()]


def _relative_difference(a: list, b: list) -> float:
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) / abs(y) if y else math.inf for x, y in zip(a, b) if x != y),
               default=0.0)


def compare(a: Path, b: Path) -> int:
    for root in (a, b):
        if not root.is_dir():
            raise SystemExit(f"error: {root} is not a directory")
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    status = 0
    for rel in sorted(files[0] ^ files[1]):
        print(f"only in {a if rel in files[0] else b}: {rel}")
        status = 1
    counts = defaultdict(lambda: [0, 0])     # suffix -> [identical, differing]
    worst = {}                               # workload -> worst relative .ind difference
    for rel in sorted(files[0] & files[1]):
        pa, pb = a / rel, b / rel
        if rel.suffix in TEXTS:
            texts = _without_paths(pa), _without_paths(pb)
            same = texts[0] == texts[1]
        else:
            same = pa.read_bytes() == pb.read_bytes()
        counts[rel.suffix][not same] += 1
        if rel.suffix == ".ind":
            diff = 0.0 if same else _relative_difference(_ind_values(pa), _ind_values(pb))
            worst[rel.parts[0]] = max(worst.get(rel.parts[0], 0.0), diff)
        elif not same and rel.suffix in CHECKED + TEXTS:
            print(f"differs: {rel}")
            status |= rel.suffix in CHECKED
        if not same and rel.suffix in TEXTS:
            for root, mine, other in ((a, *texts), (b, *texts[::-1])):
                for line in mine:
                    if line not in other:
                        print(f"  only in {root}: {line}")
    print(f"{'suffix':10s} {'identical':>9s} {'differing':>9s}")
    for suffix, (same, differ) in sorted(counts.items()):
        print(f"{suffix or '(none)':10s} {same:9d} {differ:9d}")
    for workload, diff in sorted(worst.items()):
        print(f"worst pointwise relative .ind difference, {workload}: {diff:.3g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="write every case's outputs under DIR").add_argument(
        "dir", type=Path)
    cmp = sub.add_parser("compare", help="compare two directories written by run")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run_all(args.dir.resolve())
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
