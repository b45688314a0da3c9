#!/usr/bin/env python3
"""Benchmark of planar_mk: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve16 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in its own process

One process runs one workload: a closed loop with one client, jobs back to
back in rounds, BLAS pinned to one thread and the process pinned to one CPU.
It times set-up several times, runs whole rounds until `--seconds` would be
exceeded (at least one), checks every job's outputs, and prints a metric
table and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--trace 0 reports the end-to-end metrics. --trace 1 runs every job twice,
once plain and once traced (perfbench/spans.py), alternating which goes
first, and reports the per-layer metrics and the tracing overhead.

Times are wall seconds rescaled by the host-speed probe (perfbench/probe.py)
to the development host's idle speed; the raw wall times are in the results
file. Results,
with provenance, go to perfbench/results/; traced runs also write their
spans there. See perfbench/README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("solve16", "solve64", "compare8", "refine256")
# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("job_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("L_final.mean", "sq_dist", "lower", 0.1),
    ("el_ratio.max", "ratio", "lower", 0.25),
)
PER_LAYER = (
    ("variational.objective_pass.calls", "count", "lower"),
    ("variational.objective_pass.self_s", "s", "lower"),
    ("variational.objective_pass.ms_per_call", "ms", "lower"),
    ("variational.objective_pass.share", "ratio", "lower"),
    ("variational.euler_lagrange_residual.calls", "count", "lower"),
    ("variational.euler_lagrange_residual.self_s", "s", "lower"),
    ("variational.first_variation.self_s", "s", "lower"),
    ("measures.value_and_slope.calls", "count", "lower"),
    ("measures.quantile_call.calls", "count", "lower"),
    ("reduction.conditional_quantile_field.calls", "count", "lower"),
    ("reduction.conditional_quantile_field.self_s", "s", "lower"),
    ("reduction.maps.self_s", "s", "lower"),
    ("reduction.pushforward.self_s", "s", "lower"),
    ("optimizer.solve.self_s", "s", "lower"),
    ("optimizer.iterations", "count", "lower"),
    ("optimizer.passes_per_iter", "ratio", "lower"),
    ("optimizer.rejected_trials", "count", "lower"),
    ("optimizer.project_zero_marginals.self_s", "s", "lower"),
    ("optimizer.ipfp_project.self_s", "s", "lower"),
    ("optimizer.grad_ratio.p50", "ratio", "lower"),
    ("oracle.solve_lp.calls", "count", "lower"),
    ("oracle.solve_lp.self_s", "s", "lower"),
    ("oracle.solve_full_2d.self_s", "s", "lower"),
    ("density_io.read.self_s", "s", "lower"),
    ("density_io.write.self_s", "s", "lower"),
    ("density_io.bytes_written", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)
# per-layer self times that sum several functions of one module
LAYER_GROUPS = {
    "reduction.conditional_quantile_field": ("reduction.conditional_quantile_field", "reduction.conditional_cdf"),
    "reduction.maps": ("reduction.build_g_map", "reduction.build_h_map", "reduction.build_map_pair",
                       "reduction.map_values_from_field", "reduction.center_levels"),
    "reduction.pushforward": ("reduction.pushforward_check", "reduction.pushforward_check_h"),
    "density_io.read": ("density_io.read_density", "density_io.read_density_json",
                        "density_io.read_density_csv", "density_io.read_grid_csv"),
    "density_io.write": ("density_io.write_density_json", "density_io.write_grid_csv"),
}
SETUP_REPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import planar_mk.cli"


def _import_program() -> None:
    """Put this checkout's src/ first on the path; refuse to run without it."""
    package = SRC / "planar_mk"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a planar-mk checkout")
    sys.path.insert(0, str(SRC))
    import planar_mk

    if Path(planar_mk.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported planar_mk from {planar_mk.__file__}, not {package}")


# --- running -----------------------------------------------------------------


def _run_job(job, rnd: int, traced: bool, tracer) -> dict:
    from workloads import CheckFailed

    shutil.rmtree(job.out_dir, ignore_errors=True)
    job.outputs.clear()
    rec = {"job": job.name, "round": rnd, "traced": traced, "ok": False}
    try:
        if traced:
            with tracer.job(f"{job.name}#{rnd}") as jt:
                code = job.run()
            rec["t0"], rec["t1"] = jt.starts[0], jt.ends[0]
        else:
            rec["t0"] = time.perf_counter()
            code = job.run()
            rec["t1"] = time.perf_counter()
    except (Exception, SystemExit):  # a failing job is counted, never fatal
        rec["t1"] = time.perf_counter()
        rec.setdefault("t0", rec["t1"])
        rec["error"] = traceback.format_exc(limit=-3)
        return rec
    rec["exit"] = code
    try:
        rec.update(job.check(code))
        rec["ok"] = True
    except CheckFailed as exc:
        rec["error"] = str(exc)
    except (KeyError, TypeError, ValueError, OSError, IndexError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import probe
    import spans
    import workloads

    nproc = os.cpu_count()
    cpu = probe.pin_to_one_cpu()
    work = HERE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = spans.Tracer() if trace else None
    setup_iv, log, rounds = [], [], 0
    try:
        with probe.SpeedProbe() as pr:
            for k in range(1 if smoke else SETUP_REPS):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], check=True)
                jobs = workloads.build(name, seed, work / f"setup{k}", smoke)
                setup_iv.append((t0, time.perf_counter()))
            start = time.perf_counter()
            while True:
                r0 = time.perf_counter()
                for j, job in enumerate(jobs):
                    modes = ((False, True) if (rounds + j) % 2 == 0 else (True, False)) if trace else (False,)
                    for traced in modes:
                        log.append(_run_job(job, rounds, traced, tracer))
                rounds += 1
                r1 = time.perf_counter()
                if r1 - start + (r1 - r0) > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rec in log:
        rec["raw_s"] = rec["t1"] - rec["t0"]
        rec["s"] = float(pr.elapsed(rec["t0"], rec["t1"]))
    setup_s = [float(pr.elapsed(a, b)) for a, b in setup_iv]
    failed = sum(not rec["ok"] for rec in log)
    figures = _figures(log, setup_s, rounds)
    figures["raw.setup_s"] = statistics.median(b - a for a, b in setup_iv)
    figures["host.median_kernel_s"] = pr.median_kernel_s
    if trace:
        layer, functions, per_job = _layer_metrics(tracer, pr, log, rounds)
        metrics = {m: (layer[m], unit) for m, unit, _ in PER_LAYER}
    else:
        layer, functions, per_job = {}, {}, {}
        metrics = {m: (figures[m], unit) for m, unit, _, _ in END_TO_END}
    counts = {
        "setup_reps": len(setup_s),
        "rounds": rounds,
        "jobs": len(log),
        "jobs_per_round": len(jobs),
        "probe_samples": pr.samples,
    }
    results = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "provenance": provenance(seed, counts, nproc, cpu),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "figures": figures,
        "per_layer": layer,
        "functions": functions,
        "per_job_counts": per_job,
        "jobs": [{k: v for k, v in rec.items() if k not in ("t0", "t1")} for rec in log],
    }
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (out / f"{stem}.json").write_text(json.dumps(results, indent=1, default=float) + "\n")
    if trace:
        _write_spans(out / f"{stem}-spans.jsonl", tracer)
    return {
        "correct": failed == 0,
        "attempted": len(log),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


# --- metrics -----------------------------------------------------------------


def _figures(log: list[dict], setup_s: list[float], rounds: int) -> dict:
    """End-to-end figures of the plain (untraced) jobs, plus extras for the results file.

    A round's time is the sum of its jobs' times: output checks and clean-up
    between jobs are the benchmark's work, not the program's.
    """
    import numpy as np

    plain = [rec for rec in log if not rec["traced"]]
    good = [rec for rec in plain if rec["ok"]]
    round_s = [sum(rec["s"] for rec in plain if rec["round"] == r) for r in range(rounds)]
    raw_round_s = [sum(rec["raw_s"] for rec in plain if rec["round"] == r) for r in range(rounds)]

    def collect(key):
        return [rec[key] for rec in good if key in rec]

    def stat(values, fn):
        return float(fn(values)) if values else float("nan")

    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(round_s),
        "job_s.p50": statistics.median(rec["s"] for rec in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "L_final.mean": stat(collect("L"), np.mean),
        "el_ratio.max": stat(collect("el_ratio"), max),
        "fail_frac": sum(not rec["ok"] for rec in log) / len(log),
        "grad_ratio.p50": stat([v for v in collect("grad_ratio") if v == v], statistics.median),
        "lp_gap.max": stat(collect("lp_gap"), max),
        "pushforward_l1.max": stat(collect("pushforward_l1"), max),
        "raw.wall_s": statistics.median(raw_round_s),
        "raw.job_s.p50": statistics.median(rec["raw_s"] for rec in plain),
        "setup_s.samples": setup_s,
        "wall_s.samples": round_s,
    }


def _layer_metrics(tracer, pr, log: list[dict], rounds: int):
    """Per-layer metrics per round, from the traced jobs' spans."""
    import numpy as np
    import spans
    from spans import self_times

    self_s, calls, counts = Counter(), Counter(), Counter()
    job_total = 0.0
    passes = iterations = solves = 0
    grad_ratios, per_job = [], {}
    bytes_written = 0
    for jt in tracer.jobs:
        parents = np.asarray(jt.parents)
        dur = np.asarray(pr.elapsed(np.asarray(jt.starts), np.asarray(jt.ends)))
        job_total += dur[0]
        for name, s in zip(jt.names, self_times(parents, dur)):
            self_s[name] += s
            calls[name] += 1
        counts.update(jt.counts)
        bytes_written += jt.bytes_written
        # objective passes made inside each solve span
        owner = np.full(len(jt.names), -1)
        for i, (name, parent) in enumerate(zip(jt.names, jt.parents)):
            owner[i] = i if name == "optimizer.solve" else (owner[parent] if parent >= 0 else -1)
        is_pass = np.array([name == "variational.objective_pass" for name in jt.names])
        solve_spans = [i for i, name in enumerate(jt.names) if name == "optimizer.solve"]
        for i, solve in zip(solve_spans, jt.solves):
            n = int(np.sum(is_pass & (owner == i)))
            passes += n
            iterations += solve["iterations"]
            solves += 1
            grad_ratios.append(solve["grad_ratio"])
            per_job[jt.job_id.split("#")[0]] = {
                "iterations": solve["iterations"],
                "passes": n,
                "passes_per_iter": n / solve["iterations"] if solve["iterations"] else 0.0,
                "termination": solve["termination"],
            }

    def self_of(*names):
        return sum(self_s[n] for n in names) / rounds

    layer = {}
    for fn in ("variational.objective_pass", "variational.euler_lagrange_residual", "oracle.solve_lp",
               "reduction.conditional_quantile_field"):
        layer[f"{fn}.calls"] = calls[fn] / rounds
    for fn in ("variational.objective_pass", "variational.euler_lagrange_residual", "variational.first_variation",
               "optimizer.solve", "optimizer.project_zero_marginals", "optimizer.ipfp_project",
               "oracle.solve_lp", "oracle.solve_full_2d"):
        layer[f"{fn}.self_s"] = self_of(fn)
    for group, members in LAYER_GROUPS.items():
        layer[f"{group}.self_s"] = self_of(*members)
    n_pass = calls["variational.objective_pass"]
    pass_s = self_s["variational.objective_pass"]
    layer["variational.objective_pass.ms_per_call"] = 1e3 * pass_s / n_pass if n_pass else 0.0
    layer["variational.objective_pass.share"] = pass_s / job_total
    for key in spans.COUNTED_METHODS:
        layer[f"{key}.calls"] = counts[key] / rounds
    layer["optimizer.iterations"] = iterations / rounds
    layer["optimizer.passes_per_iter"] = passes / iterations if iterations else 0.0
    # each solve makes one initial pass, then per iteration one accepted trial and one re-evaluation
    layer["optimizer.rejected_trials"] = (passes - solves - 2 * iterations) / rounds
    layer["optimizer.grad_ratio.p50"] = statistics.median(grad_ratios) if grad_ratios else 0.0
    layer["density_io.bytes_written"] = bytes_written / rounds
    layer["cli.self_s"] = sum(s for n, s in self_s.items() if n.startswith("cli.")) / rounds
    plain = sum(rec["s"] for rec in log if not rec["traced"])
    traced = sum(rec["s"] for rec in log if rec["traced"])
    layer["trace_overhead_frac"] = traced / plain - 1.0
    functions = {n: {"calls": calls[n] / rounds, "self_s": self_s[n] / rounds} for n in sorted(self_s)}
    return layer, functions, per_job


def _write_spans(path: Path, tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for jt in tracer.jobs:
            for i, (name, parent, t0, t1) in enumerate(zip(jt.names, jt.parents, jt.starts, jt.ends)):
                fh.write(json.dumps({"job": jt.job_id, "span": i, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


# --- provenance --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_facts() -> dict:
    digest = hashlib.sha256()
    total = code = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines = data.decode("utf-8").splitlines()
        total += len(lines)
        code += sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return {"sha256": digest.hexdigest(), "lines": total, "nonblank_noncomment_lines": code}


def provenance(seed: int, counts: dict, nproc: int, cpu: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "PLANAR_MK_THREADS": os.environ.get("PLANAR_MK_THREADS"),
        "git_commit": _git_commit(),
        "src": _src_facts(),
        "seed": seed,
        "samples": counts,
    }


# --- entry point -------------------------------------------------------------


def _print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<10} {name:<45} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload:<10} jobs attempted {result['attempted']}, failed {result['failed']}")


def _run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_table(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined



def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="0 gives the acceptance-test instances")
    ap.add_argument("--seconds", type=float, default=25.0, help="time budget; whole rounds, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, one set-up: checks the harness only")
    args = ap.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before NumPy loads; children inherit it
        os.environ[var] = "1"
    os.environ.pop("PLANAR_MK_THREADS", None)
    _import_program()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        result = _run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        _print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
