"""freenoise benchmark: timed solves checked against oracles.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one workload of ``workloads.WORKLOADS``, a comma-separated
list, or ``all``; listed workloads run one after another in this
process.  Run from anywhere: the program is imported from the ``src``
directory next to ``perfbench``, and nothing else is read or written.

With ``--trace 0`` a run reports, per workload:

* ``solve_s``: median wall seconds of one solve;
* ``setup_s``: median wall seconds of fresh interpreters that import the
  workload's submodules and build its inputs without solving.  The
  package ``__init__`` imports every submodule, and with them scipy, so
  for now every workload times the same full-package import; the
  submodule list of a workload starts to matter once ``__init__``
  imports lazily;
* ``peak_rss_mb``: peak resident set of this process (with several
  workloads in one process, the peak so far).

With ``--trace 1`` about half the solves run untraced and the rest run
with the outside-in tracer installed; the per-layer metrics of
``layers.PER_SOLVE`` are medians over the traced solves, and
``tracing.overhead`` is the traced median solve time over the untraced
one.  Every solve, traced or not, is checked by its workload's oracle;
a solve that raises or fails its oracle counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the environment, each solve and, when tracing, each span.
The process sets no thread variable: it measures the program's own
defaults, and the environment line records what it found.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Fresh interpreters per workload; setup_s is their median.
SETUP_PROBES = 3
# No new solve starts once a run is this many times over --seconds, so a
# host far slower than nominal still ends well inside the time limit.
OVERRUN = 1.25


@dataclass
class Solve:
    index: int
    seconds: float
    errors: list[str]
    caches: dict[str, tuple[int, int]]  # (hits, misses) during the solve


def environment() -> dict:
    """Host, library versions and thread settings as found."""
    import numpy
    from freenoise import parallel

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "FREENOISE_THREADS": os.environ.get("FREENOISE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "thread_count": parallel.thread_count(),
    }


def probe_setup(name: str, seed: int, count: int) -> list[tuple[float, dict]]:
    """(wall seconds, probe report) of ``count`` fresh set-up interpreters."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed for {name}:\n{proc.stderr}")
        out.append((wall, json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def resolve_caches(layers, tracer_mod) -> dict:
    """Metric prefix -> lru_cache function, or None when it is gone."""
    found = {}
    for prefix, path in layers.CACHES:
        try:
            owner, attr = tracer_mod.resolve(path)
        except LookupError:
            found[prefix] = None
            continue
        fn = getattr(owner, attr)
        found[prefix] = fn if hasattr(fn, "cache_info") else None
    return found


def cache_counts(caches: dict) -> dict[str, tuple[int, int]]:
    infos = {k: fn.cache_info() for k, fn in caches.items() if fn is not None}
    return {k: (info.hits, info.misses) for k, info in infos.items()}


def run_solves(work, fn, seed, indices, caches, tracer=None, deadline=None):
    """Solve, time and check each index; a solve that raises is a failure."""
    done = []
    for index in indices:
        if done and deadline is not None and time.perf_counter() > deadline:
            break
        inp = work.make_inputs(fn, seed, index)
        before = cache_counts(caches)
        failure = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = work.solve(fn, inp)
            else:
                tracer.solve_id = index
                with tracer.span("solve"):
                    out = work.solve(fn, inp)
        except Exception as exc:  # a failed solve is counted, not fatal
            failure = exc
        seconds = time.perf_counter() - t0
        # read before the oracle runs, so its cache lookups are not the solve's
        after = cache_counts(caches)
        if failure is not None:
            traceback.print_exception(failure, file=sys.stderr)
            errors = [f"{type(failure).__name__}: {failure}"]
        else:
            if tracer is not None:
                tracer.solve_id = -1  # the oracle's own calls belong to no solve
            errors = work.check(out, work.reference(inp))
        deltas = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
                  for k in after}
        done.append(Solve(index, seconds, errors, deltas))
        tag = "traced" if tracer is not None else "untraced"
        status = "ok" if not errors else "FAIL " + "; ".join(errors[:3])
        cache_text = " ".join(f"{k}={h}/{h + m}" for k, (h, m) in deltas.items() if h + m)
        print(f"# {work.name} solve {index} {tag} {seconds:.4f} s {status}"
              + (f" cache hits/lookups {cache_text}" if cache_text else ""))
    return done


def layer_metrics(tracer, layers, traced: list[Solve], unresolved: set[str]) -> dict:
    """Per-layer metrics, each the median over traced solves."""
    from tracer import self_times

    names, starts, ends, parents, solves = tracer.spans()
    selfs = self_times(starts, ends, parents)
    per_solve = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for name, s, e, own, sid in zip(names, starts, ends, selfs, solves):
        rec = per_solve[sid][name]
        rec[0] += 1
        rec[1] += own
        rec[2] += e - s
    solved = [per_solve[s.index] for s in traced]
    for name in sorted({n for spans in solved for n in spans}):
        calls = sum(spans[name][0] for spans in solved if name in spans)
        own = sum(spans[name][1] for spans in solved if name in spans)
        print(f"# span {name}: {calls} calls, {own:.4f} s self over {len(traced)} solves")

    gone = tracer.missing | tracer.broken | unresolved
    metrics = {}
    for metric in layers.PER_SOLVE:
        if any(n in gone for n in metric.needs):
            metrics[metric.name] = {"value": 0, "unit": metric.unit, "status": "unmeasured"}
            continue
        values = [metric.value({"spans": per_solve[s.index], "caches": s.caches,
                                "counts": tracer.counts(s.index)}) for s in traced]
        metrics[metric.name] = {"value": statistics.median(values), "unit": metric.unit}

    # keys a solve passed to a cached function that an earlier solve of
    # this run also passed; the seeded jitter and relabelling leave only
    # keys without letters or times, such as (empty word, empty word)
    seen: dict[str, set] = defaultdict(set)
    reuse = 0
    for s in traced:
        for name, keys in tracer.keys(s.index).items():
            shared = keys & seen[name]
            if shared:
                print(f"# solve {s.index} reused {len(shared)} {name} keys, "
                      f"e.g. {sorted(map(repr, shared))[0]}")
            reuse += len(shared)
            seen[name] |= keys
    metrics["cache.cross_solve_reuse"] = {"value": reuse,
                                          "unit": layers.PER_RUN["cache.cross_solve_reuse"]}
    return metrics


def run_workload(work, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import tracer as tracer_mod
    import workloads

    fn = workloads.load_modules(work.modules)
    caches = resolve_caches(layers, tracer_mod)
    n = max(1, int(seconds // work.solve_s))
    deadline = time.perf_counter() + OVERRUN * seconds
    if not trace:
        probes = probe_setup(work.name, seed, SETUP_PROBES)
        solves = run_solves(work, fn, seed, range(n), caches, deadline=deadline)
        metrics = {
            "solve_s": {"value": statistics.median(s.seconds for s in solves), "unit": "s"},
            "setup_s": {"value": statistics.median(w for w, _ in probes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    else:
        plain = max(1, n // 2)
        untraced = run_solves(work, fn, seed, range(plain), caches, deadline=deadline)
        tr = tracer_mod.Tracer()
        tr.install(layers.TARGETS)
        try:
            # two traced solves at least, so keys shared across solves show
            traced = run_solves(work, fn, seed, range(plain, plain + max(2, n - plain)),
                                caches, tracer=tr, deadline=deadline)
        finally:
            tr.uninstall()
        solves = untraced + traced
        unresolved = {k for k, v in caches.items() if v is None}
        metrics = layer_metrics(tr, layers, traced, unresolved)
        probes = probe_setup(work.name, seed, SETUP_PROBES)
        values = {
            "tracing.overhead": statistics.median(s.seconds for s in traced)
            / statistics.median(s.seconds for s in untraced),
            "setup.import_s": statistics.median(p["import_s"] for _, p in probes),
            "setup.scipy_modules": statistics.median(p["scipy_modules"] for _, p in probes),
        }
        metrics.update({k: {"value": v, "unit": layers.PER_RUN[k]} for k, v in values.items()})
    failed = sum(1 for s in solves if s.errors)
    return {"correct": failed == 0, "attempted": len(solves), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freenoise" / "__init__.py").is_file():
        print(f"perfbench: no freenoise package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import freenoise
    import workloads

    if Path(freenoise.__file__).resolve().parent != (SRC / "freenoise").resolve():
        print(f"perfbench: imported freenoise from {freenoise.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        print(f"perfbench: unknown workload {unknown} or non-positive --seconds; "
              f"workloads are {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print("# environment " + json.dumps(environment()))
    results = {}
    for name in names:
        results[name] = run_workload(workloads.WORKLOADS[name], args.seed,
                                     args.seconds, bool(args.trace))
        if len(names) > 1:
            print("# result " + json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
