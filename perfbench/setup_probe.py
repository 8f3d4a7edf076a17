"""Time switchopt set-up in a fresh interpreter and print it in seconds.

Usage: python3 perfbench/setup_probe.py SCENARIO
       python3 perfbench/setup_probe.py --reference

The clock starts before switchopt (and numpy) is imported and stops once
the scenario is loaded and built, the stationary distribution is solved (if
the scenario has a chain) and the certified equilibrium is constructed:
everything a run needs before it can integrate.  ``--reference`` times only
the import of numpy, the same kind of start-up work without switchopt; the
runner uses it to follow the machine's speed.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def reference() -> float:
    import numpy.linalg  # noqa: F401

    return time.perf_counter() - T0


def setup(scenario_path: str) -> float:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import switchopt.cli  # noqa: F401  (the whole package, as a command loads it)
    from switchopt import chain, dynamics
    from switchopt.problem import derive_multipliers
    from switchopt.scenario import load_scenario

    scn = load_scenario(scenario_path)
    problem = scn.build_problem()
    scn.build_network()
    scn.build_config()
    scn.build_init(problem)
    if "chain" in scn.raw:
        chain.stationary(scn.build_generator())
    cert = derive_multipliers(problem, scn.candidate())
    dynamics.build_equilibrium(problem, cert)
    return time.perf_counter() - T0


if __name__ == "__main__":
    arg = sys.argv[1]
    print(repr(reference() if arg == "--reference" else setup(arg)))
