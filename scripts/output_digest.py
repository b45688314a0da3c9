#!/usr/bin/env python3
"""SHA-256 digests of every output the benchmark's jobs make.

Runs the jobs of perfbench/workloads.py (imported, not changed) once each,
in the order the seed gives them, inside a temporary directory, and prints
one line per output, sorted:

    <workload>/<job>/<output> <sha256>

The outputs are each report.json with its `timing` block removed, every
other file a job writes (the CSVs), refine's g and h maps and both binned
pushforward masses, and each job's exit code. Each report.json also gets one
line per top-level key (`compare8/shift1_10/report.json#gap`), so a diff of
two runs names the report fields that moved. Two checkouts, or two runs of
one, that print the same lines made the same bytes:

    python3 scripts/output_digest.py all --seed 0
    python3 scripts/output_digest.py compare8 --seed 1 --smoke

Run it from any directory; it imports src/planar_mk and perfbench/ from the
checkout it lives in. BLAS is held to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("solve16", "solve64", "compare8", "refine256")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(path: Path) -> dict[str, str]:
    """The file's digest under the suffix "", and a report's per top-level key under "#<key>"."""
    if path.name != "report.json":
        return {"": _sha(path.read_bytes())}
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timing", None)  # wall time: the one field that differs between runs
    parts = {"": report, **{f"#{key}": value for key, value in report.items()}}
    return {suffix: _sha(json.dumps(part, indent=1, sort_keys=True).encode()) for suffix, part in parts.items()}


def _array_digest(a) -> str:
    return _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def workload_digests(workload: str, seed: int, smoke: bool, work: Path) -> dict[str, str]:
    """Run one workload's jobs once; map each output's name to its digest."""
    import workloads

    out = {}
    for job in workloads.build(workload, seed, work, smoke):
        prefix = f"{workload}/{job.name}"
        out[f"{prefix}/exit"] = _sha(str(job.run()).encode())
        for path in sorted(p for p in job.out_dir.rglob("*") if p.is_file()):
            name = f"{prefix}/{path.relative_to(job.out_dir).as_posix()}"
            out.update((name + suffix, digest) for suffix, digest in _file_digests(path).items())
        if job.outputs:  # refine: the maps and the binned pushforward masses
            outputs = job.outputs
            arrays = {"g": outputs["g"], "h": outputs["h"], "push_g.binned_masses": outputs["push_g"].binned_masses,
                      "push_h.binned_masses": outputs["push_h"].binned_masses}
            for name, a in arrays.items():
                out[f"{prefix}/{name}"] = _array_digest(a)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="orders the jobs and picks their mirror image")
    ap.add_argument("--smoke", action="store_true", help="the benchmark's tiny grids")
    args = ap.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before NumPy loads
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            digests.update(workload_digests(name, args.seed, args.smoke, Path(tmp) / name))
    for output, digest in sorted(digests.items()):
        print(f"{output} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
