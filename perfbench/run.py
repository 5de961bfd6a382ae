"""srlab benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload transition_k16 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; srlab is imported from ``src/`` of that
checkout and nowhere else.  ``--trace 0`` times whole units of work with no
instrumentation and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced unit, then the same unit traced at 1 and at 2 worker threads, checks
that all three produce bitwise identical outcomes, and reports the per-layer
metrics of the traced run at the workload's own worker count.  ``--smoke``
shrinks every workload to a size that runs in about a second.

Standard output ends with a detail line (environment, outcome digest,
per-unit figures) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 2 when
the checkout holds no srlab sources or asks for more threads than ``nproc``.
"""

from __future__ import annotations

import argparse
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
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_srlab():
    if not (SRC / "srlab" / "__init__.py").is_file():
        fail(f"no srlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import srlab
    if Path(srlab.__file__).resolve().parent != SRC / "srlab":
        fail(f"imported srlab from {srlab.__file__}, not from {SRC}")
    return srlab


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def timed_unit(workload, seed: int, workers: int):
    """One unit at ``workers`` threads: (result, wall seconds, CPU seconds)."""
    from srlab.mc import WORKERS_ENV_VAR
    os.environ[WORKERS_ENV_VAR] = str(workers)
    w0, c0 = time.perf_counter(), cpu_seconds()
    res = workload.run(seed)
    return res, time.perf_counter() - w0, cpu_seconds() - c0


def setup_seconds(name: str, seed: int, smoke: bool, repeats: int) -> float:
    """Median time from a fresh interpreter to the workload's first batch call."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def metric_units(group: str) -> dict:
    """Names and units of one metric group of BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[group]}


def end_to_end(workload, seed: int, seconds: float, smoke: bool):
    """Untraced units of one seed until ``seconds`` have passed; medians."""
    setup_s = setup_seconds(workload.name, seed, smoke,
                            2 if smoke else SETUP_PROBES)
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(timed_unit(workload, seed, workload.workers))
    results = [u[0] for u in units]
    problems = list(results[0].problems)
    if len({r.digest for r in results}) != 1:
        problems.append("repeated units of one seed gave different outcomes")
    values = {
        "wall_s": statistics.median(u[1] for u in units),
        "traj_steps_per_s": statistics.median(r.useful_steps / w
                                              for r, w, _ in units),
        "cpu_s": statistics.median(u[2] for u in units),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"unit_wall_s": [u[1] for u in units],
              "unit_cpu_s": [u[2] for u in units],
              "useful_steps": results[0].useful_steps,
              "summary": results[0].summary}
    return results, problems, values, detail


def traced(workload, seed: int, smoke: bool):
    """An untraced unit, then traced units at 1 and 2 workers; layer totals."""
    from tracer import Tracer, layer_metrics, layer_patches, patched
    import srlab.mc

    base, base_wall, _ = timed_unit(workload, seed, workload.workers)
    walls, results = {}, [base]

    def traced_unit(workers):
        tracer = Tracer()
        with patched(layer_patches(tracer)):
            res, walls[workers], _ = timed_unit(workload, seed, workers)
        results.append(res)
        return tracer.spans()

    spans = traced_unit(workload.workers)
    traced_unit(1 if workload.workers == 2 else 2)
    problems = list(base.problems)
    if len({r.digest for r in results}) != 1:
        problems.append("traced outcomes differ from the untraced run")
    layers = layer_metrics(spans, srlab.mc.CHUNK_SIZE)
    useful_normals = base.useful_steps * base.normals_per_step
    layers["streams.normals_useful_ratio"] = (
        useful_normals / layers["streams.normals_drawn"]
        if layers["streams.normals_drawn"] else 0.0)
    layers["mc.worker_speedup"] = walls[1] / walls[2]
    layers["trace.overhead_frac"] = walls[workload.workers] / base_wall - 1.0
    spans_file = write_spans(spans, f"{workload.name}-seed{seed}"
                             f"{'-smoke' if smoke else ''}")
    detail = {"untraced_wall_s": base_wall,
              "traced_wall_s": {str(w): v for w, v in walls.items()},
              "spans": len(spans), "spans_file": str(spans_file.relative_to(ROOT)),
              "summary": base.summary}
    return results, problems, layers, detail


def write_spans(spans, stem: str) -> Path:
    import numpy as np
    names = sorted({s[1] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{stem}-spans.npz"
    np.savez_compressed(
        path, names=np.array(names),
        span_id=np.array([s[0] for s in spans], dtype=np.int64),
        name=np.array([index[s[1]] for s in spans], dtype=np.int16),
        start=np.array([s[2] for s in spans]),
        end=np.array([s[3] for s in spans]),
        parent=np.array([s[4] for s in spans], dtype=np.int64))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; reference checks are skipped")
    args = ap.parse_args(argv)

    srlab = import_srlab()
    import numpy as np
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.smoke)
    nproc = len(os.sched_getaffinity(0))
    threads = 2 if args.trace else workload.workers
    if threads > nproc:
        fail(f"{args.workload} needs {threads} worker threads, nproc is {nproc}")
    units = metric_units("per_layer" if args.trace else "end_to_end")

    if args.trace:
        results, problems, values, detail = traced(workload, args.seed, args.smoke)
    else:
        results, problems, values, detail = end_to_end(
            workload, args.seed, args.seconds, args.smoke)
    attempted = sum(r.attempted for r in results)
    failed = attempted if problems else sum(r.failed for r in results)
    detail.update({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "outcome_sha256": results[0].digest,
        "problems": problems,
        "ops_failed_frac": {"value": failed / attempted, "unit": "frac"},
        "environment": {"cpu_count": os.cpu_count(), "nproc": nproc,
                        "workers": workload.workers, "max_threads": threads,
                        "numpy": np.__version__,
                        "python": platform.python_version(),
                        "srlab": srlab.__version__},
    })
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
