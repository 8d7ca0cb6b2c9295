#!/usr/bin/env python3
"""Benchmark of kinfp's inequality checks.

    python3 perfbench/run.py --workload covering --seed 1 --seconds 34 --trace 0

runs one workload in this process against the ``kinfp`` sources of the
checkout that holds this file (``src/kinfp``), checks every op's output and
prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced rerun.
``--workload all`` runs every workload, each in its own process.  A results
file with the environment, per-op latencies, digests and (traced) spans is
written to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("cli-all", "covering", "rough-ensemble", "localization")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3       # fresh processes timed to get setup_s
TAIL_BEYOND = 10        # completed ops above op_tail_s, when p90 allows
HARD_STOP_S = 150.0     # no op starts after this, whatever --seconds says


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "kinfp").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "kinfp_source_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


def _probe_setup(args) -> float:
    """Wall time of a fresh process from spawn to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _closed_loop(workload, seconds: float, step) -> float:
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed and
    the size cycle is whole; returns the wall time."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i % workload.cycle == 0) \
                or elapsed > HARD_STOP_S:
            return time.perf_counter() - start
        step(i)
        i += 1


def _timed(workload, i):
    t0 = time.perf_counter()
    res = workload.run_op(i)
    return time.perf_counter() - t0, res


def _latency_stats(done, wall):
    lat = sorted(t for t, r in done if r.completed)
    n = len(lat)
    if n == 0:  # nothing completed: every op missed any latency limit
        return {"ops_per_s": 0.0, "op_p50_s": wall, "op_tail_s": wall,
                "tail_percentile": 100.0, "beyond_tail": 0, "completed": 0}
    # nearest rank (1-based, ascending) with TAIL_BEYOND ops above it, but
    # never below p90: with fewer than 100 ops that rank would drift down
    # towards the median
    rank = max(n - TAIL_BEYOND, math.ceil(0.9 * n))
    return {
        "ops_per_s": n / wall,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "beyond_tail": n - rank,
        "completed": n,
    }


def _counts(done):
    return (sum(r.attempted for _, r in done), sum(r.failed for _, r in done),
            sum(r.wrong for _, r in done))


def _digest(workload, done) -> str:
    """Digest of the first cycle's outputs; equal across commits that keep
    results bitwise."""
    h = hashlib.sha256()
    for _, res in done[: workload.cycle]:
        h.update(res.digest)
    h.update(workload.extra_digest())
    return h.hexdigest()


def _emit(lines, summary):
    for line in lines:
        print(line)
    print(json.dumps(summary), flush=True)


def run_untraced(args, workload, record):
    setups = [_probe_setup(args) for _ in range(SETUP_REPEATS)]
    done = []
    wall = _closed_loop(workload, args.seconds,
                        lambda i: done.append(_timed(workload, i)))
    stats = _latency_stats(done, wall)
    attempted, failed, wrong = _counts(done)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": stats["ops_per_s"], "unit": "1/s"},
        "op_p50_s": {"value": stats["op_p50_s"], "unit": "s"},
        "op_tail_s": {"value": stats["op_tail_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }
    fail_share = failed / attempted if attempted else 0.0
    record.update(setup_samples_s=setups, wall_s=wall, latency=stats,
                  fail_share=fail_share)
    lines = [f"{name:<12} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    lines[3] += (f"  (p{stats['tail_percentile']:.1f} of "
                 f"{stats['completed']} completed ops, "
                 f"{stats['beyond_tail']} beyond it)")
    lines.append(f"{'fail_share':<12} {fail_share:.6g} ratio  "
                 f"({failed} of {attempted} failed)")
    return done, metrics, lines, (attempted, failed, wrong)


def run_traced(args, workload, record):
    """Each op runs twice, untraced then traced, so the difference of the
    two is the tracing overhead."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []

    def step(i):
        plain.append(_timed(workload, i))
        tracer.install()
        try:
            with tracer.op(i):
                traced.append(_timed(workload, i))
        finally:
            tracer.uninstall()

    _closed_loop(workload, args.seconds, step)
    wall_plain = sum(t for t, _ in plain)
    wall_traced = sum(t for t, _ in traced)
    kind_s = {}  # cli-all: seconds per kind, summed over the traced passes
    for _, res in traced:
        for kind, sec in res.detail.get("kind_s", {}).items():
            kind_s[kind] = kind_s.get(kind, 0.0) + sec
    metrics = tracer.metrics(len(traced), wall_traced, kind_s)
    overhead_s = (wall_traced - wall_plain) / len(traced)
    record.update(
        untraced_wall_s=wall_plain, traced_wall_s=wall_traced,
        overhead_s_per_op=overhead_s, counts=tracer.counts,
        minima=tracer.minima, spans=tracer.spans,
        hot=[[name, parent, *agg] for (name, parent), agg in tracer.hot.items()],
        stats=tracer.stats)
    layers = max((m["value"], n) for n, m in metrics.items()
                 if n.startswith("layer."))
    lines = [f"{name:<48} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    lines.append(f"{'trace.overhead_s':<48} {overhead_s:.6g} s  "
                 "(traced minus untraced time per op; not a metric)")
    lines.append(f"largest self time: {layers[1]}")
    done = plain + traced
    return done, metrics, lines, _counts(done)


def run_workload(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny,
                                                  RESULTS)
    if args.setup_probe:
        workload.close()
        print("ready", flush=True)
        return 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "environment": environment()}
    try:
        runner = run_traced if args.trace else run_untraced
        done, metrics, lines, (attempted, failed, wrong) = runner(
            args, workload, record)
        digest = _digest(workload, done)
        notes = workload.notes(len(done) // (2 if args.trace else 1))
    finally:
        workload.close()
    record.update(notes=notes)
    lines += notes.get("lines", [])
    record.update(
        metrics=metrics, attempted=attempted, failed=failed, wrong=wrong,
        digest=digest, latencies_s=[t for t, _ in done],
        op_digests=[r.digest.hex() for _, r in done],
        errors=[e for _, r in done for e in r.errors][:20])
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    head = [f"workload {args.workload}  seed {args.seed}  ops {len(done)}  "
            f"digest {digest[:16]}  results {out.relative_to(ROOT)}"]
    _emit(head + lines, {"correct": wrong == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics})
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]) + "\n")
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "kinfp" / "__init__.py").is_file():
        print(f"kinfp sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one caller, no thread pools: pin BLAS before numpy is imported
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
