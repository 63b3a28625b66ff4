"""qmpemba benchmark: one workload per process, the result as the last stdout line.

Run from the root of a source checkout:

    python3 bench/run.py --workload fig2|states|fig3 --seed 1 --seconds 40 --trace 0|1
    python3 bench/run.py --workload all    # every workload, untraced then traced, as a table

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout and nowhere else; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("fig2", "fig3", "states")  # fig3 is not in BENCHMARK.json; run it by name
SETUP_SAMPLES = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Fix the BLAS thread count to the CPUs this process may use; before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for key in BLAS_ENV:
        os.environ[key] = str(threads)
    return threads


def measure_setup() -> list[float]:
    """Seconds from a fresh interpreter to a finished ``import qmpemba`` (numpy, scipy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import qmpemba"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # untimed: writes the bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads_in_use() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    paths = set()
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" in path and ".so" in path:
            paths.add(path)
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(threads: int, seed: int, n: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_reported": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "cache": _cache_sizes(),
        "seed": seed,
        "n": n,
    }


def _metrics(table: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def run_one(args) -> int:
    if not (SRC / "qmpemba" / "__init__.py").is_file():
        print(f"error: no qmpemba sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    setup = measure_setup()
    sys.path[:0] = [str(SRC), str(BENCH)]

    import harness
    import qmpemba
    import workloads

    if Path(qmpemba.__file__).resolve().parent != SRC / "qmpemba":
        print(f"error: imported qmpemba from {qmpemba.__file__}", file=sys.stderr)
        return 2
    env = environment(threads, args.seed, workloads.WORKLOADS[args.workload][0])
    if any(v != threads for v in env["blas_threads_reported"].values()):
        print(f"error: BLAS threads {env['blas_threads_reported']} != {threads}", file=sys.stderr)
        return 3
    print("env " + json.dumps(env, sort_keys=True))

    out_root = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    tracer = harness.Tracer()
    load = workloads.Workload(args.workload, args.seed, tracer, bool(args.trace), out_root)
    try:
        records = harness.run_passes(load.do_pass, args.seconds, tracer)
    finally:
        tracer.unwrap_all()
        shutil.rmtree(out_root, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for r in records for o in r.outcomes]
    failed = sum(o.failed for o in outcomes)
    summary = {
        "workload": args.workload, "passes": len(records), "operations": len(outcomes),
        "pass_s": [r.wall_s for r in records],
        "failed_frac": failed / len(outcomes),
        "failures": sorted({o.note for o in outcomes if o.failed}),
    }
    for i, key in enumerate(("unrotated_rate_over_lambda2", "rotated_rate_over_lambda3")):
        ratios = [o.rate_ratios[i] for o in outcomes if o.rate_ratios and o.rate_ratios[i] is not None]
        summary[key + "_median"] = statistics.median(ratios) if ratios else None
    if args.trace:
        table = harness.per_layer(records, tracer, harness.span_cost_s())
        spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"env": env, "spans": tracer.spans}))
        summary["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        table = harness.end_to_end(records, setup, peak_rss_mb)
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": _metrics(table),
    }))
    return 0


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in a fresh process, untraced then traced; a table."""
    ok = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            frac = result["failed"] / result["attempted"]
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_frac={frac:.4g}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
