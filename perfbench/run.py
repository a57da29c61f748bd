"""scorewave benchmark: one command per workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The run writes seeded inputs under ``.perfbench_work/`` (removed at the
end), times the set-up probe in fresh interpreters, runs the workload's
rounds in a fresh worker interpreter (``worker.py``), checks every output,
prints each metric with its unit and direction, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1``
its ``per_layer`` list. ``--record-golden`` rewrites ``golden.json`` from
the code as it is now.

The end-to-end times are wall times put on the reference machine speed of
``speed.py``: the reference kernel runs between the set-up probes and
between the rounds, and each probe and round is rescaled by the kernel's
time around it. The wall times as measured are printed beside them.

Workloads, metrics and the layers each per-layer metric should move are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per process: distort and eval fan out over --jobs 2
# threads on a 2-core machine, so jobs x BLAS threads <= nproc.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# glibc malloc keeps freed memory for reuse instead of unmapping every
# large temporary: with the default policy each call of a big numpy
# expression maps fresh pages, and on the 2-core VM this benchmark was tuned
# on those page faults made a quarter of the checkpoint leg's time and varied
# by +-15% from one process to the next.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20), "MALLOC_TRIM_THRESHOLD_": str(2**32),
              "MALLOC_TOP_PAD_": str(256 * 2**20)}
os.environ.update(BLAS_ENV)
os.environ.update(MALLOC_ENV)

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
SETUP_SNIPPET = ("import json, sys; sys.path.insert(0, 'src'); from scorewave.cli import main; "
                 "sys.exit(main(json.loads(sys.argv[1])))")

# What one op of op_ms is, per workload, and op_ms restated in the
# workload's natural unit: (label, name, unit, direction, op_ms -> value).
# enhance restates each leg on its own, from the leg's command times.
OPS = {
    "distort": ("one 10 s clip distorted", "distort_x_rt", "input-audio s per wall s", "higher",
                lambda ms: 1000.0 * 10.0 / ms),
    "enhance": ("one second of audio enhanced, both legs", None, "wall s per audio s", "lower",
                None),
    "train": ("one optimizer step", "train_steps_per_s", "steps per wall s", "higher",
              lambda ms: 1000.0 / ms),
    "eval": ("one 10 s pair scored", "eval_x_rt", "reference-audio s per wall s", "higher",
             lambda ms: 1000.0 * 10.0 / ms),
}


def source_lines(root: Path) -> int:
    """Non-blank, non-comment lines of the Python sources under root."""
    total = 0
    for path in root.rglob("*.py"):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def _cache_size(level: str) -> str:
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == level and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        except OSError:
            pass
    return "unknown"


def metadata() -> dict:
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
    blas = "unknown"
    try:
        blas = next(lib["version"] for lib in numpy.show_config(mode="dicts")
                    ["Build Dependencies"].values() if lib.get("name", "").endswith("openblas"))
    except (StopIteration, KeyError, TypeError, AttributeError):
        pass
    commit = "unknown"  # the benchmark's checkout is usually not a git repository
    if Path(".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": _cache_size("2"),
        "l3": _cache_size("3"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": BLAS_THREADS,
        "malloc_env": MALLOC_ENV,
        "python": sys.version.split()[0],
        "commit": commit,
        "src_lines": source_lines(Path("src")),
    }


def time_setup(argv: list[str]) -> tuple[list[float], list[float], int]:
    """Wall seconds of fresh interpreters running the set-up probe, the
    same at reference speed, and the number of probes that failed."""
    import speed

    times, scaled, failed = [], [], 0
    before = speed.kernel()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, json.dumps(argv)],
                              stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
        failed += done.returncode != 0
        after = speed.kernel()
        scaled.append(speed.at_reference(times[-1], before, after))
        before = after
    return times, scaled, failed


def run_worker(plan, seconds: float, trace: bool, work: Path) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps({
        "commands": plan.commands, "outputs": plan.outputs, "jobs": plan.jobs,
        "seconds": seconds, "trace": trace}))
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), str(result_path)],
                   stdout=subprocess.DEVNULL, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def at_reference(walls: list[float], kernels: list, jobs: int) -> list[float]:
    import speed

    return [speed.at_reference(w, a, b, jobs) for w, (a, b) in zip(walls, kernels)]


def per_layer_figures(result: dict, records, jobs: int) -> dict:
    figures = dict(result["layers"])
    for name, stats in result["per_call"].items():
        base = name + "_"
        figures[base + "p50_s"] = stats["p50"]
        figures[base + "tail_s"] = stats["tail"]
        figures[base + "calls"] = stats["n"]
    if records is not None:
        from scorewave.distort import PRIMITIVES
        figures["distort.aligned_chains"] = sum(
            any(PRIMITIVES[s["kind"]].introduces_delay for s in r["chain"]) for r in records)
        figures["distort.clipped_chains"] = sum(bool(r["clipped"]) for r in records)
    else:
        figures.update({"distort.aligned_chains": 0, "distort.clipped_chains": 0})
    untraced = statistics.median(at_reference(result["round_walls"], result["round_kernels"],
                                              jobs))
    traced = statistics.median(at_reference(result["traced_round_walls"],
                                            result["traced_round_kernels"], jobs))
    figures["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not Path("src/scorewave/cli.py").is_file():
        print("perfbench: run from the root of a scorewave checkout (src/scorewave missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    spec = json.loads(Path("BENCHMARK.json").read_text())
    work = Path(".perfbench_work") / f"{args.workload or 'golden'}-{args.seed}-{os.getpid()}"
    try:
        if args.record_golden:
            golden = workloads.record_golden(work)
            workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
            print(f"perfbench: wrote {workloads.GOLDEN_PATH}")
            return 0
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        prepare, check = workloads.WORKLOADS[args.workload]
        plan = prepare(args.seed, work)
        # The set-up probes count against the measuring window.
        started = time.perf_counter()
        setup_walls, setup_times, setup_failed = time_setup(plan.setup)
        remaining = args.seconds - (time.perf_counter() - started)
        result = run_worker(plan, remaining, bool(args.trace), work)
        try:
            checks = check(plan)
        except Exception as exc:  # missing or unreadable outputs fail the run's checks
            traceback.print_exc()
            checks = [(f"{args.workload}.checks", False, f"{type(exc).__name__}: {exc}")]
        records = workloads.distort_records(plan) if args.workload == "distort" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = SETUP_REPEATS + result["attempted"] + len(checks)
    failed = setup_failed + result["failed"] + sum(not ok for _, ok, _ in checks)
    label, derived, derived_unit, derived_better, convert = OPS[args.workload]
    rounds = at_reference(result["round_walls"], result["round_kernels"], plan.jobs)
    op_ms = [1000.0 * w / plan.ops_per_round for w in rounds]
    figures = {
        "setup_s": statistics.median(setup_times),
        "op_ms": statistics.median(op_ms),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall_op_ms = 1000.0 * statistics.median(result["round_walls"]) / plan.ops_per_round
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  op = {label}; {len(op_ms)} timed rounds of {plan.ops_per_round:g} ops")
    print("  round_ms at reference speed " + " ".join(f"{1000.0 * w:.1f}" for w in rounds))
    print("  round_ms wall " + " ".join(f"{1000.0 * w:.1f}" for w in result["round_walls"]))
    kernel_s = statistics.median(k for pair in result["round_kernels"] for k in pair)
    print(f"  wall op_ms {wall_op_ms:.6g} ms, set-up wall {statistics.median(setup_walls):.6g} s, "
          f"reference kernel {kernel_s:.4g} s (this run's machine speed; the metrics below "
          f"are at reference speed)")
    for name, ok, detail in checks:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")
    print(f"  checks: {len(checks) - sum(not ok for _, ok, _ in checks)}/{len(checks)} passed; "
          f"mismatched rounds {result['mismatched_rounds']}; setup probes failed {setup_failed}")
    print(f"  error_rate {failed / attempted:.4g} (failed {failed} of {attempted} attempted; lower)")
    if derived:
        print(f"  {derived} {convert(figures['op_ms']):.6g} {derived_unit} ({derived_better} is better)")
    else:  # one restated figure per command of the round
        for i, (leg, audio_s) in enumerate(plan.extra["legs"].items()):
            leg_s = at_reference([walls[i] for walls in result["command_walls"]],
                                 result["round_kernels"], plan.jobs)
            print(f"  {leg} {statistics.median(leg_s) / audio_s:.6g} {derived_unit} "
                  f"({derived_better} is better)")
    if args.trace:
        for name, stats in result["per_call"].items():
            if stats["n"]:
                tail = (f"p{stats['tail_pct']:g}={stats['tail']:.6g} s" if stats["tail_pct"]
                        else "no percentile with 10 samples beyond it")
                print(f"  {name} per call: n={stats['n']} p50={stats['p50']:.6g} s {tail}")
        figures = per_layer_figures(result, records, plan.jobs)
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
    metrics = {}
    for entry in listed:
        value = figures[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']} {value:.6g} {entry['unit']} ({entry['better']} is better)")
    print("meta " + json.dumps(metadata()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
