"""Cold start of the command line front end in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO

Times, from ``import coiso`` to the point where the first task can start,
the import of the CLI, the loading of SCENARIO and the construction of its
Jacobi structure, under a ``hostspeed.SpeedProbe``.  Prints the wall
seconds, the number of probes, the sum of their fast shares, and the
seconds the probes took.
"""

import sys
import time

from hostspeed import SpeedProbe, cpu_ns


def main() -> int:
    src, scenario = sys.argv[1], sys.argv[2]
    with SpeedProbe() as probe:
        start, cpu0 = time.perf_counter(), cpu_ns()
        sys.path.insert(0, src)
        import coiso.cli  # noqa: F401  (the entry point a user's job starts from)
        from coiso.scenario import load_scenario

        load_scenario(scenario).jacobi()
        wall = time.perf_counter() - start
        n, shares, probe_s = probe.window(cpu0, cpu_ns())
    print(repr(wall), n, repr(shares), repr(probe_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
