"""Child process of the ``setup_s`` measurement.

Runs a workload's unit from a fresh interpreter up to its first batch call
(``srlab.mc.run_batch``, or ``simulate_linear_mode`` for the variance
report), prints ``ready`` and exits.  The parent times spawn to ``ready``:
interpreter start, imports, model, branch levels and initial field.

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import srlab.mc  # noqa: E402

from tracer import patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FirstBatch(Exception):
    pass


def stop(*args, **kwargs):
    raise FirstBatch


def main():
    workload = WORKLOADS[sys.argv[1]]("--smoke" in sys.argv[3:])
    with patched([(srlab.mc, workload.first_batch, stop)]):
        try:
            workload.run(int(sys.argv[2]))
        except FirstBatch:
            print("ready", flush=True)
            return
    raise SystemExit("the workload finished without a batch call")


if __name__ == "__main__":
    main()
