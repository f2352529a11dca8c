"""Set-up probe: a fresh interpreter imports udngc and builds a workload's inputs.

    python3 bench/setup_probe.py <workload> <seed>

Prints ``[monotonic time when the inputs were built, seconds spent in
``import udngc``]``.  The caller subtracts the monotonic time at which it
started this process.
"""
import json
import sys
import time

from run import use_checkout_sources


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    use_checkout_sources()
    t0 = time.monotonic()
    import udngc  # noqa: F401  (the import is what is timed)

    import_s = time.monotonic() - t0
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed, 0)
    print(json.dumps([time.monotonic(), import_s]))


if __name__ == "__main__":
    main()
