"""Runs one workload's rounds in a fresh interpreter and reports timings.

Started by ``run.py`` as ``python3 perfbench/worker.py PLAN.json RESULT.json``
from the root of a checkout, with the BLAS thread count already pinned in
its environment. A round is the workload's list of ``scorewave`` commands,
run in process through ``scorewave.cli.main`` one after another (a closed
loop). One untimed warm-up round comes first; timed rounds then repeat
until ``seconds`` have passed. The reference kernel (``speed.py``) runs
after the warm-up and after every round, so ``run.py`` can put each round
on the reference machine speed. Each round's output files are hashed
outside the timed region and must match the warm-up's bytes.

With tracing on, odd-numbered rounds run with the ``tracing.Tracer``
wrappers installed and even-numbered ones without, so the two kinds share
the same stretch of machine time; the difference between them is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, "src")
sys.path.insert(0, str(Path(__file__).resolve().parent))

from scorewave import cli  # noqa: E402
from scorewave.distort import PRIMITIVES  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

MIN_ROUNDS = 3


def digest(paths) -> str:
    """sha256 over every output file, directories expanded in name order."""
    h = hashlib.sha256()
    for path in map(Path, paths):
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_round(main, commands) -> tuple[float, list[float], float, int]:
    """(wall s, wall s of each command, process CPU s, commands that
    exited non-zero)."""
    failed = 0
    sink = io.StringIO()
    ends = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in commands:
            try:
                failed += main(argv) != 0
            except Exception:  # an escaped exception is one failed command
                traceback.print_exc()
                failed += 1
            ends.append(time.perf_counter())
    wall = ends[-1] - t0
    commands_wall = [b - a for a, b in zip([t0] + ends, ends)]
    return wall, commands_wall, time.process_time() - cpu0, failed


def percentiles(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"p50": statistics.median(values) if values else 0.0, "tail": 0.0,
           "tail_pct": 0.0, "n": n}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out["tail"] = values[min(n - 1, int(pct / 100.0 * n))]
            out["tail_pct"] = pct
            break
    return out


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    commands, outputs = plan["commands"], plan["outputs"]
    tracer = tracing.Tracer() if plan["trace"] else None
    traced_main = tracer.wrap("cli.main", cli.main) if tracer else None
    family_of = {kind: prim.family for kind, prim in PRIMITIVES.items()}

    attempted = len(commands)
    _, _, _, failed = run_round(cli.main, commands)
    reference = digest(outputs)
    mismatched = 0
    kernels = [speed.kernel(plan["jobs"])]
    walls = {False: [], True: []}
    command_walls: list[list[float]] = []
    round_traced: list[bool] = []
    layers: list[dict] = []
    per_call: dict[str, list] = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < plan["seconds"]:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, per_command, cpu, bad = run_round(traced_main if traced else cli.main, commands)
        finally:
            if traced:
                tracer.uninstall()
        kernels.append(speed.kernel(plan["jobs"]))
        rounds += 1
        attempted += len(commands) + 1
        failed += bad
        round_traced.append(traced)
        walls[traced].append(wall)
        if not traced:
            command_walls.append(per_command)
        else:
            figures, calls = tracing.round_layers(tracer.take(), family_of, wall, cpu,
                                                  plan["jobs"])
            layers.append(figures)
            for name, values in calls.items():
                per_call.setdefault(name, []).extend(values)
        if digest(outputs) != reference:
            mismatched += 1
    failed += mismatched

    # Round i ran between kernel runs i and i + 1; keep each kind of round
    # with the kernel runs either side of it.
    kernel_pairs = {kind: [(kernels[i], kernels[i + 1]) for i, t in enumerate(round_traced)
                           if t == kind] for kind in (False, True)}
    result = {
        "attempted": attempted,
        "failed": failed,
        "mismatched_rounds": mismatched,
        "round_walls": walls[False],
        "round_kernels": kernel_pairs[False],
        "command_walls": command_walls,
        "traced_round_walls": walls[True],
        "traced_round_kernels": kernel_pairs[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layers:
        result["layers"] = {key: statistics.median(r[key] for r in layers) for key in layers[0]}
        result["per_call"] = {name: percentiles(v) for name, v in per_call.items()}
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
