"""Self-test of the benchmark's own code at N=4; finishes in well under a minute.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a gate failure shows in ``failed_frac``, that a program error makes the
run incorrect, that traced self times are non-negative and add up to the
traced pass time, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402  (loads no numpy)

run.pin_blas_threads()

import harness  # noqa: E402
import qmpemba  # noqa: E402
import workloads  # noqa: E402
from qmpemba.errors import NoConvergence  # noqa: E402

N = 4
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def passes(name: str, traced: bool, seconds: float = 0.0):
    tracer = harness.Tracer()
    out_root = ROOT / ".bench_out" / "selftest"
    out_root.mkdir(parents=True, exist_ok=True)
    load = workloads.Workload(name, 1, tracer, traced, out_root)
    try:
        records = harness.run_passes(load.do_pass, seconds, tracer)
    finally:
        tracer.unwrap_all()
    if traced:
        table = harness.per_layer(records, tracer, harness.span_cost_s())
    else:
        table = harness.end_to_end(records, [0.5], 1.0)
    return records, tracer, table


def result_line(workload: str) -> dict:
    """The last stdout line of ``run.py --workload <workload> --trace 0``, run in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"])
    expect(rc == 0, f"run.py {workload} exits 0")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_names():
    for name in ("fig2", "fig3", "states"):
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            _, _, table = passes(name, traced)
            got = {k: unit for k, (_, unit) in table.items()}
            expect(got == units(section), f"{name}: every {section} metric with its unit")


def check_self_times():
    records, tracer, _ = passes("states", True, seconds=0.5)
    own = tracer.self_times()
    expect(min(own) >= -1e-12, "traced self times are non-negative")
    wall = sum(r.wall_s for r in records)
    expect(math.isclose(sum(own), wall, rel_tol=1e-9),
           f"self times add up to the traced run time ({sum(own):.6f} s vs {wall:.6f} s)")
    expect(len(records) > 1, "the loop runs whole passes until the time is up")


def check_gate_failure():
    real = qmpemba.optimal_unitary

    def not_unitary(dec, psi):
        rot = real(dec, psi)
        return dataclasses.replace(rot, unitary=1.001 * rot.unitary)

    qmpemba.optimal_unitary = not_unitary
    try:
        records, _, table = passes("states", True)
    finally:
        qmpemba.optimal_unitary = real
    outcomes = [o for r in records for o in r.outcomes]
    expect(table["failed_frac"][0] == 1.0, "a failed unitarity gate shows in failed_frac")
    expect(all(o.wrong and "unitary" in o.note for o in outcomes), "and marks the output wrong")


def check_program_error():
    def no_convergence(*args, **kwargs):
        raise NoConvergence("raised by the benchmark self-test")

    # states calls the package's name; reproduce calls the one cli holds and exits 3
    for holder, workload in ((qmpemba, "states"), (qmpemba.cli, "fig2")):
        real = holder.robust_trajectory
        holder.robust_trajectory = no_convergence
        try:
            result = result_line(workload)
        finally:
            holder.robust_trajectory = real
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{workload}: NoConvergence fails every operation and makes the run incorrect")


def check_command():
    result = result_line("fig2")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result line keys")
    expect(result["correct"], "a healthy run is correct")
    expect({k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end"),
           "command prints every end-to-end metric with its unit")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "bench/run.py", "--workload", "fig2", "--seed", "1",
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program's sources: nonzero exit and no result")


def main():
    workloads.WORKLOADS = dict.fromkeys(workloads.WORKLOADS, (N, 2))  # short passes
    check_names()
    check_self_times()
    check_gate_failure()
    check_program_error()
    check_command()
    shutil.rmtree(ROOT / ".bench_out" / "selftest", ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
