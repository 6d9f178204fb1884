"""One timed CLI run, in a fresh interpreter started by ``run.py``.

Usage: ``child.py WORKLOAD SEED WORKDIR TRACE CPUS`` runs the workload's
capnet commands through ``capnet.cli.main`` and prints one JSON line: the
exit code, the wall time of the commands and, with TRACE=1, the span report.
CPUS is the comma-separated CPU set the child may use.
``child.py --env`` prints the environment the runs execute in.

The wall time starts after ``import capnet`` and input generation and ends
when the last ``main`` returns; everything else the parent sees between
spawn and exit is set-up.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and len(sys.argv) == 6:
    # run.py forks each child on one chosen CPU; widen the set again before
    # numpy loads, so BLAS still sees every CPU and keeps its default threads
    os.sched_setaffinity(0, [int(cpu) for cpu in sys.argv[5].split(",")])

import ctypes
import json
import platform
from time import perf_counter

import numpy as np

import capnet
from capnet.cli import main

import workloads


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded, when found."""
    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), int(threads())
    return None, None


def _caches() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            try:
                with open(f"{base}/{index}/level") as level, open(f"{base}/{index}/type") as kind, \
                        open(f"{base}/{index}/size") as size:
                    caches[f"L{level.read().strip()}{kind.read().strip()[0].lower()}"] = size.read().strip()
            except OSError:
                continue
    return caches


def environment() -> dict:
    blas_config, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "capnet": capnet.__version__,
        "blas": blas_config,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _caches(),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, workdir: str, trace: bool) -> dict:
    argvs = workloads.make_inputs(workload, seed, workdir)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main_fn = sys.modules["capnet.cli"].main
    else:
        main_fn = main
    code = 0
    start = perf_counter()
    for argv in argvs:
        code = main_fn(argv)
        if code != 0:
            break
    wall = perf_counter() - start
    result = {"code": code, "wall_s": wall}
    if tracer is not None:
        result.update(tracer.report())
    return result


if __name__ == "__main__":
    if sys.argv[1:] == ["--env"]:
        print(json.dumps(environment(), sort_keys=True))
    else:
        name, seed, workdir, trace, _ = sys.argv[1:]
        print(json.dumps(run(name, int(seed), workdir, trace == "1")))
