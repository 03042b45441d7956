#!/usr/bin/env python3
"""Benchmark of specflow's certified-integer workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this process through the
library's public API, against the sources in ``src/`` next to this
directory.  The linear-algebra pools are pinned to ``--threads`` threads
before numpy loads.  The workload's problem set is solved again and again
for ``--seconds`` seconds of solving (at least twice), every certified
integer checked against its independent value.  Set-up is timed in this
process and in four fresh child processes run between solves, and
``setup_s`` is the median of the five.

With ``--trace 0`` the last line of standard output is the result with
the end-to-end metrics.  With ``--trace 1`` untraced and traced solves
alternate, and the result carries the per-layer metrics of the traced
solves, plus the tracing overhead against the untraced ones; the spans
are written to ``perfbench/out/``.  The line before the result records
the environment and every sample.  Exits 2 without a result when the
specflow sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
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
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (neither module imports numpy at import time)
import workloads  # noqa: E402

#: The variables ``SPECFLOW_THREADS`` sets in the command-line entry point.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUPS = 5
MIN_SOLVES = 2

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="how long to keep solving")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="linear-algebra pool size; 0 leaves the library "
                        "default")
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="problem sizes; 'toy' is for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it, and exit")
    return p.parse_args(argv)


def pin_threads(threads: int):
    """Cap the linear-algebra pools at ``threads``; 0 leaves them to the
    library.  Child processes inherit the setting."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy loaded before the thread pools were pinned")
    for var in THREAD_VARS:
        if threads:
            os.environ[var] = str(threads)
        else:
            os.environ.pop(var, None)


def timed_setup(args):
    """Seconds from before ``import specflow`` until the plain inputs are
    built, and the inputs."""
    start = time.perf_counter()
    import specflow
    inputs = workloads.SETUP[args.workload](
        workloads.SIZES[args.size][args.workload], args.seed)
    elapsed = time.perf_counter() - start
    if not Path(specflow.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"specflow was imported from {specflow.__file__}, "
                           f"not from {SRC}")
    return elapsed, inputs


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--threads", str(args.threads), "--size", args.size,
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def environment(threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": threads or None,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def solve_loop(args, inputs, tally, tracer, between):
    """Solve until the solves have taken ``args.seconds`` and at least
    MIN_SOLVES ran; with a tracer, untraced and traced solves alternate
    and the loop ends on a whole pair.  ``between`` runs after every solve
    but the last, outside the measured time."""
    solve = workloads.SOLVE[args.workload]
    plain, traced, layers, cpu = [], [], [], []
    start = time.perf_counter()
    paused = 0.0
    count = 0
    while True:
        use_trace = tracer is not None and count % 2 == 1
        gc.collect()
        if use_trace:
            tracer.install()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            solve(inputs, tally)
            elapsed = time.perf_counter() - t0
            cpu.append(time.process_time() - c0)
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            spans = tracer.take()
            traced.append(elapsed)
            layers.append((tracing.layer_metrics(spans, elapsed), spans))
        else:
            plain.append(elapsed)
        count += 1
        if (time.perf_counter() - start - paused >= args.seconds
                and count >= MIN_SOLVES
                and (tracer is None or count % 2 == 0)):
            return plain, traced, layers, cpu
        t0 = time.perf_counter()
        between()
        paused += time.perf_counter() - t0


def per_layer_result(plain, traced, layers):
    """Counts must repeat exactly from solve to solve; times are medians
    over the traced solves."""
    values, unsteady = {}, []
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_pct":
            continue
        samples = [m[name] for m, _ in layers]
        if unit == "count":
            if len(set(samples)) > 1:
                unsteady.append(name)
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return values, unsteady


def write_spans(path: Path, layers):
    solves = []
    for _, spans in layers:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = spans[0][2] if spans else 0.0
        solves.append({
            "names": names,
            "columns": ["name", "parent", "start_s", "end_s", "work",
                        "outermost"],
            "spans": [[index[n], p, round(s - t0, 7), round(e - t0, 7), w,
                       int(o)] for n, p, s, e, w, o in spans],
        })
    path.write_text(json.dumps({"solves": solves}, separators=(",", ":")))


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.threads)
    if not (SRC / "specflow" / "__init__.py").is_file():
        print(f"run.py: no specflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        elapsed, _ = timed_setup(args)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    elapsed, inputs = timed_setup(args)
    setup_samples = [elapsed]
    expect = workloads.EXPECT.get(args.workload)
    if expect is not None:
        expect(inputs)

    # The other set-ups run in child processes between solves, so that the
    # median spans the run instead of the few seconds before it.
    def sample_setup():
        if len(setup_samples) < SETUPS:
            setup_samples.append(setup_in_child(args))

    tally = workloads.Tally()
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layers, cpu = solve_loop(args, inputs, tally, tracer,
                                            sample_setup)
    while len(setup_samples) < SETUPS:
        sample_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.threads),
        "setup_s_samples": setup_samples,
        "solve_s_samples": plain,
        "traced_solve_s_samples": traced,
        "solve_cpu_s_samples": cpu,
        "refused": tally.refused[:20],
        "wrong": tally.wrong[:20],
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        values, unsteady = per_layer_result(plain, traced, layers)
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        record["unsteady_counts"] = unsteady
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                    layers)
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "solve_s": statistics.median(plain),
                  "peak_rss_mb": peak_rss_mb}
        units = {n: u for n, u, _ in END_TO_END}
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
