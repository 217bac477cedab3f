"""Work counters of shipped presets run unmodified under the tracer.

    python3 perfbench/preset_counters.py cement_mill_error_feedback [PRESET...]

Counters are deterministic, so they compare across machines where wall
times do not.  See perfbench/README.md for the figures at the commit that
added the benchmark.
"""

import sys

from run import import_library
from tracing import Tracer


def main(presets):
    lib = import_library()
    for name in presets:
        spec = lib.config.parse_config(lib.config.read_config_file(name))
        tracer = Tracer()
        tracer.install(lib)
        try:
            lib.simulation.run(spec)
        finally:
            tracer.uninstall()
        calls = {n: t[0] for n, t in tracer.totals.items()}
        print(f"{name}: solves={calls['mpc.solve']} gn_iters={tracer.counts['mpc.gn_iters']} "
              f"rollouts={calls['mpc.rollout']} jacobians_f={calls['models.jacobians_f']} "
              f"backtracks={tracer.counts['mpc.backtracks']} "
              f"unconverged={tracer.counts['mpc.unconverged']} failed={tracer.counts['mpc.failed']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
