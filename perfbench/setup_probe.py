"""Set-up probe: one workload's imports and inputs in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  It imports
the ``freenoise`` submodules the workload names, builds the inputs of
solve 0 and runs no solve.  The caller times the whole process; the
probe prints its own split of that time as one JSON line.

Importing any submodule first runs the package ``__init__``, which
imports every submodule and, through ``chebyshev`` and ``quadrature``,
``scipy.integrate``.  Until ``__init__`` imports lazily, every workload
therefore times the same full-package import, and ``scipy_modules`` is
the same for all of them.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    work = workloads.WORKLOADS[name]
    fn = workloads.load_modules(work.modules)
    imported = time.perf_counter()
    work.make_inputs(fn, seed, 0)
    built = time.perf_counter()
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({"import_s": imported - START, "inputs_s": built - imported,
                      "scipy_modules": scipy_modules}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
