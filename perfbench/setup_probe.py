"""Time one cold start of a workload in this fresh interpreter.

The clock starts before ``import repro.cli`` and stops once the
workload's imports and one-time construction are done, just before its
first simulated step.  Prints ``{"setup_s": ...}``.  ``run.py`` starts this
script once per sample with ``src`` on ``PYTHONPATH``::

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    import repro.cli  # noqa: F401  (the command-line surface every entry point sits behind)
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed=seed, smoke="--smoke" in sys.argv[3:]).setup()
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
