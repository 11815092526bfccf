"""One cold run of one part of a workload, in a fresh process.

Usage (normally started by run.py):

    python3 certbench/worker.py '{"src": ".../src", "workload": "audits",
                                  "seed": 1, "part": 0, "trace": false}'

Imports ``cuboid_complex`` from the given source tree, times a fixed
calibration (``calibrate``), runs every operation of the given part of the
workload, checks each result, and prints one JSON line with the timings,
the peak RSS, the operation counts, the number of parts in the workload and
(when tracing) the per-layer metrics.  With ``"probe": true`` in the request
it stops after the calibration and prints the time the import ended and the
calibration's time.  Exit code 0 means the part ran, whatever its checks
found; 2 means the request itself was unusable.
"""

import gc
import importlib
import json
import os
import resource
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes in this process:
    exact rational and big-integer arithmetic with dict traffic, the kind
    of work the package does, but none of its code, and with the garbage
    collector off, so its time depends on nothing but how fast the shared
    host runs this process at this moment."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 6000):
            total += Fraction(i % 97 + 1, i % 89 + 2)
        pivot = 3 ** 40
        rows = {}
        for i in range(150000):
            pivot = (pivot * 1103515245 + i) % (1 << 127)
            rows[i & 1023] = pivot ^ i
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    cuboid_complex = importlib.import_module("cuboid_complex")
    imported_at = time.monotonic()

    module_file = os.path.realpath(cuboid_complex.__file__)
    if not module_file.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"cuboid_complex was imported from {module_file}, not from "
              f"{spec['src']}", file=sys.stderr)
        return 2
    calibration_s = calibrate()
    if spec.get("probe"):  # set-up time and the host's speed only
        print(json.dumps({"imported_at": imported_at,
                          "calibration_s": calibration_s}))
        return 0
    import tracer
    import workloads
    build = workloads.WORKLOADS.get(spec["workload"])
    if build is None:
        print(f"unknown workload {spec['workload']!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    trace = tracer.Tracer() if spec["trace"] else None
    if trace is not None:
        trace.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    load = build(spec["seed"])
    operations = load.parts[spec["part"]]
    failures = []
    for op in operations:
        try:
            problems = op.check(op.call())
        except Exception as exc:  # any failure is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"operation": op.label, "problems": problems})
    run_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    # the host's speed changes within seconds: calibrate at both ends
    calibration_s = (calibration_s + calibrate()) / 2

    result = {
        "imported_at": imported_at,
        "calibration_s": calibration_s,
        "run_s": run_s,
        "peak_rss_mb": usage1.ru_maxrss / 1024,
        "attempted": len(operations),
        "parts": len(load.parts),
        "failures": failures,
        "backend": getattr(cuboid_complex, "kernel_backend", "absent"),
    }
    if trace is not None:
        cpu_s = (usage1.ru_utime + usage1.ru_stime
                 - usage0.ru_utime - usage0.ru_stime)
        for problem in trace.check_consistent(cpu_s):
            failures.append({"operation": "trace", "problems": [problem]})
        layer = trace.metrics()
        layer["mesh.cells"] = sum(m.num_cells for m in load.meshes)
        layer["mesh.cell_shapes"] = len({
            tuple(m.cell_box(ci).h(a) for a in range(3))
            for m in load.meshes for ci in range(m.num_cells)})
        result["layer"] = layer
        result["absent"] = trace.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
