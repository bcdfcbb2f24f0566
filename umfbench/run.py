"""Benchmark runner for umfdet: train, greedy eval and corpus building.

    python3 umfbench/run.py --workload {train,eval,corpus} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the library is imported from its
``src`` directory. Every workload runs in child processes with the BLAS
thread pool pinned to one thread.

With ``--trace 0`` the workload runs in PROCESSES fresh processes, one after
another. Each sets the workload up, then runs timed rounds for S/PROCESSES
seconds and checks every output. The last line of standard output is a JSON
object with the end-to-end metrics setup_s (median over the processes),
samples_per_s (median over all their rounds) and peak_rss_mb (highest
process). Times are in reference seconds (see hostspeed.py); the record
keeps the wall-clock figures too.

With ``--trace 1`` each of the three workloads runs in one process for S/3
seconds with rounds that alternate untraced and traced, and the line
carries every per-layer metric (see tracing.py) plus each workload's
tracing overhead.

A result record for each run, and the spans of a traced run beside it, are
written under umfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"

WORKLOAD_NAMES = ("train", "eval", "corpus")
# Processes per untraced run. Each one is a set-up to time, and spreading
# the timed rounds over them samples more of the host's drift.
PROCESSES = 3
CHILD_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def _import_library():
    """Import umfdet from this checkout's src, never from anywhere else."""
    if not (SRC / "umfdet" / "__init__.py").is_file():
        raise SystemExit(f"error: no umfdet package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import umfdet
    if Path(umfdet.__file__).resolve().parent != (SRC / "umfdet").resolve():
        raise SystemExit(f"error: umfdet was imported from {umfdet.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# child process: one workload


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_main(args):
    _import_library()
    import checks
    import hostspeed
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, Path(args.work_dir), smoke=args.smoke)
    tracer = tracing.Tracer() if args.mode == "trace" else None

    # Set-up is scaled by the mean of probes at its start and its end; the
    # start probe's own time is not set-up time.
    probe_start = hostspeed.probe()
    if tracer:
        tracer.install()
    wl.setup()
    setup_raw = time.monotonic() - args.spawned_at - probe_start
    if tracer:
        tracer.uninstall()
    probe_end = statistics.median(hostspeed.probe() for _ in range(3))
    setup_probe = (probe_start + probe_end) / 2

    # Per round: wall seconds per post, and reference seconds per post, which
    # scale the wall time by the mean of the probes just before and after it.
    raw = {False: [], True: []}   # by traced
    ref = {False: [], True: []}
    samples = {False: 0, True: 0}
    traced_ops = 0
    elapsed = 0.0
    problem = None
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        state = wl.prepare()
        probe_before = hostspeed.probe()
        if traced:
            tracer.round = k
            tracer.install()
            ops_before = tracer.ops
            root = tracer.open(f"{wl.name}.round")
        t0 = time.perf_counter()
        out = wl.run(state)
        dt = time.perf_counter() - t0
        probe_s = (probe_before + hostspeed.probe()) / 2
        if traced:
            tracer.close(root)
            tracer.uninstall()
            traced_ops += tracer.ops - ops_before
        elapsed += dt
        raw[traced].append(dt / wl.samples_per_round)
        ref[traced].append(raw[traced][-1] * hostspeed.PROBE_REF_S / probe_s)
        samples[traced] += wl.samples_per_round
        k += 1
        try:
            wl.check(out)
        except checks.CheckFailed as exc:
            problem = f"round {k}: {exc}"
            break
        if elapsed >= args.seconds and k >= max(wl.min_rounds, 2 if tracer else 1):
            break

    result = {"correct": problem is None, "problem": problem, "rounds": k,
              "attempted": samples[False] + samples[True], "failed": 0,
              "timed_s": elapsed,
              "setup_s": setup_raw * hostspeed.PROBE_REF_S / setup_probe,
              "setup_s_raw": setup_raw, "setup_probe_s": setup_probe,
              "ref_s_per_post": ref[False], "raw_s_per_post": raw[False]}
    if tracer is not None and problem is None:
        overhead = statistics.median(ref[True]) / statistics.median(ref[False])
        result["metrics"] = tracing.layer_metrics(wl.name, tracer.spans, samples[True],
                                                  traced_ops, overhead)
        tracer.dump(args.spans_out)
        result["spans"] = os.path.relpath(args.spans_out, ROOT)
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


# ---------------------------------------------------------------------------
# parent process


def _spawn(workload, mode, args, work_dir, seconds, spans_out=""):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--mode", mode,
           "--workload", workload, "--seed", str(args.seed), "--seconds", repr(seconds),
           "--work-dir", str(work_dir), "--spans-out", spans_out,
           "--spawned-at", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **PINNED_ENV}
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _versions():
    import numpy as np
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs and one process, to try the harness in seconds")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--mode", choices=("full", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    p.add_argument("--spans-out", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if args.child:
        print(json.dumps(child_main(args)))
        return 0

    if not (SRC / "umfdet" / "__init__.py").is_file():
        print(f"error: no umfdet package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}")
    work_dir = WORK / stem
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            children = []
            metrics = {}
            for name in WORKLOAD_NAMES:
                spans_out = RESULTS / f"{stem}.{name}.spans.jsonl"
                child = _spawn(name, "trace", args, work_dir / name,
                               args.seconds / len(WORKLOAD_NAMES), str(spans_out))
                children.append(child)
                metrics.update(child.get("metrics", {}))
        else:
            n = 1 if args.smoke else PROCESSES
            children = [_spawn(args.workload, "full", args, work_dir / f"p{i}", args.seconds / n)
                        for i in range(n)]
            ref = [r for c in children for r in c["ref_s_per_post"]]
            metrics = {
                "setup_s": {"value": statistics.median(c["setup_s"] for c in children),
                            "unit": "s"},
                "samples_per_s": {"value": 1.0 / statistics.median(ref), "unit": "1/s"},
                "peak_rss_mb": {"value": max(c["peak_rss_mb"] for c in children),
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    line = {"correct": all(c["correct"] for c in children),
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "metrics": metrics}
    record = {**line, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
              "versions": _versions(), "children": children}
    if not args.trace:
        raw = [r for c in children for r in c["raw_s_per_post"]]
        record["samples_per_s_raw"] = 1.0 / statistics.median(raw)
        record["setup_s_raw"] = statistics.median(c["setup_s_raw"] for c in children)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for c in children:
        if not c["correct"]:
            print(f"check failed: {c['problem']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
