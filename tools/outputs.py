"""Output-identity check: write every benchmark case and demo scenario, then diff two such runs.

    python tools/outputs.py run DIR        # outputs of this checkout's src under DIR
    python tools/outputs.py compare A B    # exit 1 if a checked file differs
    python tools/outputs.py pin            # record the fingerprint in tests/data/outputs.json
    python tools/outputs.py check DIR      # run into DIR, exit 1 if it strays from the fingerprint

``run`` builds each workload of ``bhsbench/workloads.py`` at seeds 1 and 5
under ``DIR/<workload>/seed<k>/`` and runs every case, then runs each
scenario of ``demos/scenarios`` with its output prefix moved to
``DIR/demos/<name>``. A full run takes about 4 s on two cores. Every run
uses one BLAS thread: with two, the ``.ff`` files move by rounding and the
manifests' diagnostics with them.

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

``pin`` and ``check`` cover seed 1 and the demo scenarios. The fingerprint
holds sha256 digests of the ``.mask``, ``.pgm`` and ``.loc`` files, of the
manifests without their path lines and of the ``.ff`` and ``.ind`` headers.
For the values of each ``.ff`` and ``.ind`` file it holds their count,
extrema, argmin and a fixed sample. ``check`` holds them to ``TOLERANCES``
and everything else exactly. It also records the numpy, scipy and BLAS
versions, and a failing ``check`` prints the recorded and running ones, so
that drift on another machine can be told apart from a change of program.
A change that moves outputs on purpose re-pins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 5)
CHECKED = (".ff", ".mask", ".pgm", ".loc", ".manifest")
TEXTS = (".manifest", ".cfg")
PATH_KEYS = ("out=", "farfield_in=")
PIN = ROOT / "tests" / "data" / "outputs.json"
PINNED_SEEDS = (1,)
DIGESTED = (".mask", ".pgm", ".loc")
SAMPLES = 64
# Largest accepted change of a value: of .ff values relative to the file's
# largest, of .ind values pointwise relative. LSM's alpha=1e-6 amplifies
# .ff rounding into its indicator.
TOLERANCES = {".ff": 1e-13, "esm": 1e-12, "lsm": 2e-9}


def _bench():
    """bhsbench's run module, imported with one BLAS thread."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"    # takes effect only before numpy loads
    sys.path.insert(0, str(ROOT / "bhsbench"))
    import run as bench

    return bench


def run_all(out_dir: Path, seeds=SEEDS) -> None:
    scenario = _bench().import_program()    # bhs from this checkout's src
    import workloads

    def run_file(path, out=None):
        return scenario.run(scenario.load_scenario(path), out=out)

    for name in workloads.WORKLOADS:
        for seed in seeds:
            for case in workloads.build(name, seed, out_dir / name / f"seed{seed}", run_file).cases:
                run_file(case.path)
    for path in sorted((ROOT / "demos" / "scenarios").glob("*.cfg")):
        run_file(path, out=str(out_dir / "demos" / path.stem))


def _without_paths(path: Path) -> list:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith(PATH_KEYS)]


def _split(path: Path) -> tuple:
    """Key=value header lines and values of a far-field or indicator file."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    start = next((i for i, line in enumerate(lines) if "=" not in line), len(lines))
    return lines[:start], [float(v) for v in " ".join(lines[start:]).split()]


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
            diff = 0.0 if same else _relative_difference(_split(pa)[1], _split(pb)[1])
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


def _digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _versions() -> dict:
    facts = _bench().machine_facts()
    return {key: facts[key] for key in ("numpy", "scipy", "blas", "blas_config")}


def _entry(path: Path) -> tuple:
    """Fingerprint entry of a pinned file, and its header lines and values if it has any."""
    if path.suffix == ".manifest":
        return {"sha256": _digest("\n".join(_without_paths(path)))}, None
    if path.suffix in DIGESTED:
        return {"sha256": _digest(path.read_bytes())}, None
    header, values = _split(path)
    return {"header": _digest("\n".join(header)), "count": len(values),
            "min": min(values), "max": max(values),
            "argmin": min(range(len(values)), key=values.__getitem__),
            "sample": values[::max(1, len(values) // SAMPLES)]}, (header, values)


def _pinned_paths(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): path for path in sorted(root.rglob("*"))
            if path.suffix in CHECKED + (".ind",)}


def fingerprint(root: Path) -> dict:
    """Fingerprint entry of each pinned file under ``root``, by relative path."""
    return {rel: _entry(path)[0] for rel, path in _pinned_paths(root).items()}


def strays(root: Path, pinned: dict) -> list:
    """Each way the outputs under ``root`` stray from the fingerprint entries ``pinned``."""
    paths = _pinned_paths(root)
    out = [f"{rel}: only in the {'run' if rel in paths else 'fingerprint'}"
           for rel in sorted(paths.keys() ^ pinned.keys())]
    for rel in sorted(paths.keys() & pinned.keys()):
        (got, data), want = _entry(paths[rel]), pinned[rel]
        if "sha256" in want:
            if got != want:
                out.append(f"{rel}: sha256 differs")
            continue
        if got["header"] != want["header"] or got["count"] != want["count"]:
            out.append(f"{rel}: header or value count differs")
            continue
        header, values = data
        if rel.endswith(".ff"):
            tol, scale = TOLERANCES[".ff"], max(abs(want["min"]), abs(want["max"]))
        else:
            tol, scale = TOLERANCES[dict(line.split("=", 1) for line in header)["meta.method"]], None
        # The pinned argmin must still hold the minimum; near-ties may swap.
        pairs = [("min", got["min"], want["min"]), ("max", got["max"], want["max"]),
                 (f"value at argmin {want['argmin']}", values[want["argmin"]], want["min"])]
        pairs += [(f"sample {i}", x, y) for i, (x, y) in enumerate(zip(got["sample"], want["sample"]))]
        out += [f"{rel}: {what} is {x!r}, pinned {y!r}" for what, x, y in pairs
                if abs(x - y) > tol * (abs(y) if scale is None else scale)]
    return out


def pin() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp), PINNED_SEEDS)
        files = fingerprint(Path(tmp))
    PIN.write_text(json.dumps({"seeds": PINNED_SEEDS, "versions": _versions(), "files": files},
                               indent=1) + "\n", encoding="utf-8")


def check(out_dir: Path) -> int:
    """Run the pinned cases into ``out_dir``; 1 and a report if they stray from the fingerprint."""
    recorded = json.loads(PIN.read_text(encoding="utf-8"))
    run_all(out_dir, tuple(recorded["seeds"]))
    found = strays(out_dir, recorded["files"])
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} differences from {PIN}")
        print(f"recorded with {recorded['versions']}")
        print(f"running with  {_versions()}")
    return int(bool(found))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="write every case's outputs under DIR").add_argument(
        "dir", type=Path)
    cmp = sub.add_parser("compare", help="compare two directories written by run")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    sub.add_parser("pin", help=f"write the fingerprint of the pinned cases to {PIN}")
    sub.add_parser("check", help="run the pinned cases under DIR and check them").add_argument(
        "dir", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run_all(args.dir.resolve())
        return 0
    if args.command == "pin":
        pin()
        return 0
    if args.command == "check":
        return check(args.dir.resolve())
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
