"""Cold-process certification benchmark for cuboid_complex.

Usage, from the root of a source checkout:

    python3 certbench/run.py --workload uniform --seed 1 \\
        --seconds 55 --trace 0

A workload is a list of parts, and each run of a part happens in a fresh
worker process (``worker.py``), as one command-line invocation would, so
every run pays the per-shape set-up that command-line and CI users pay; the
package keeps process-wide caches that would hide it.  One worker runs at a
time, from this single-threaded loop, which cycles through the parts while
the next one is expected to end within ``--seconds``; every part runs at
least once.

The shared host's speed drifts by up to a factor of two between minutes, so
every worker times a fixed piece of pure-Python work (``calibrate`` in
``worker.py``) right after its import, and a part's worker again right
after the part; each time a worker measures is scaled toward a host on
which that work takes ``CALIBRATION_REF_S`` (see ``scaled``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: ``run_s`` sums over the parts the median of each part's
scaled run times, ``setup_s`` is the median scaled import time over the
part runs and the probe workers (import and calibration only) started
before each, and ``peak_rss_mb`` is the largest part's median peak RSS.
With ``--trace 1`` traced and untraced runs of each part alternate and the
per-layer metrics are reported instead, unscaled, with the tracing
overhead.  Every operation's result
is checked against frozen values; any failure makes ``correct`` false and
the exit code 1.  The line before the result holds the raw samples.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracer import PER_LAYER  # noqa: E402  (this directory is sys.path[0])

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

PROBES_PER_RUN = 1    # probe workers before each untraced part run
#: the reference host: reported times are scaled toward a host on which
#: worker.calibrate() takes this long (0.06-0.12 s on a 2-vCPU Xeon VM)
CALIBRATION_REF_S = 0.08
DEADLINE_S = 170.0    # the whole run must end well within 180 s
ENV_PREFIX = "CUBOID_COMPLEX_"


def machine_facts() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from the
    files so that nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(spec: dict, env: dict, deadline: float) -> dict:
    """One worker process; returns its record plus the spawn-side
    timings, or a record of the failure."""
    argv = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crashed": "worker timed out"}
    except BaseException:  # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode == 2:
        sys.stderr.write(err)
        raise SystemExit(2)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"worker exit {proc.returncode}: {err[-2000:]}"}
    record = json.loads(lines[-1])
    record["setup_s"] = record["imported_at"] - spawned
    return record


def scaled(seconds: float, worker: dict) -> float:
    """A time a worker measured, scaled toward the reference host by the
    square root of the worker's calibration ratio.  The calibration's time
    varies about twice as much, in proportion, as a part's run time when
    the host's speed drifts, so the square root tracks the drift without
    adding the calibration's own noise at full weight."""
    return seconds * math.sqrt(CALIBRATION_REF_S / worker["calibration_s"])


def layer_metrics(traced: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of the whole workload from each part's traced
    runs: the median over a part's runs, summed over the parts.  Mesh
    facts are the same in every part, and the cache's hit ratio is taken
    over the summed calls and misses."""
    per_part = [{name: statistics.median(r["layer"].get(name, 0) for r in runs)
                 for name, _unit in PER_LAYER} for runs in traced]
    out = {name: sum(p[name] for p in per_part) for name, _unit in PER_LAYER}
    for name in ("mesh.cells", "mesh.cell_shapes", "trace.absent_entries"):
        out[name] = max(p[name] for p in per_part)
    calls = out["assembly.local_operator_block.calls"]
    out["assembly.local_operator_block.hit_ratio"] = (
        1.0 - out["assembly.local_operator_block.misses"] / calls
        if calls else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its worker (see run_worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cuboid_complex" / "__init__.py").is_file():
        print(f"no cuboid_complex source tree under {SRC}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    removed = {k: v for k, v in os.environ.items() if k.startswith(ENV_PREFIX)}
    facts = machine_facts()
    spec = {"src": str(SRC), "workload": args.workload, "seed": args.seed}

    start = time.monotonic()
    deadline = start + DEADLINE_S
    parts = 1                      # learned from the first worker's reply
    plain: list[list[dict]] = [[]]
    traced: list[list[dict]] = [[]]
    attempted = failed = 0
    failures: list = []
    part = 0
    while True:
        runs = plain[part] + traced[part]
        if runs:
            elapsed = time.monotonic() - start
            typical = statistics.median(r["block_s"] for r in runs)
            # every part has run at least once (traced, when tracing)
            enough = all(t if args.trace else p
                         for p, t in zip(plain, traced))
            if enough and elapsed + typical > args.seconds:
                break
            if elapsed + typical > DEADLINE_S:
                break
        trace_this = bool(args.trace) and len(plain[part]) > len(traced[part])
        # one import spreads by up to a third, so set-up is sampled many
        # times, spread over the whole run
        block_start = time.monotonic()
        probes = []
        for _ in range(0 if args.trace else PROBES_PER_RUN):
            record = run_worker({"src": str(SRC), "probe": True}, env,
                                deadline)
            if "crashed" in record:
                break
            probes.append(record)
        else:
            record = run_worker({**spec, "part": part, "trace": trace_this},
                                env, deadline)
            record["block_s"] = time.monotonic() - block_start
            record["probes"] = probes
        if "crashed" in record:
            attempted += 1
            failed += 1
            failures.append(record["crashed"])
            break
        attempted += record["attempted"]
        failed += len(record["failures"])
        if record["failures"]:
            failures.extend(record["failures"])
            break
        if record["parts"] != parts:
            parts = record["parts"]
            plain += [[] for _ in range(parts - len(plain))]
            traced += [[] for _ in range(parts - len(traced))]
        (traced if trace_this else plain)[part].append(record)
        part = (part + 1) % parts

    complete = all(plain) and (all(traced) or not args.trace)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "parts": parts, "samples": [len(p) for p in plain],
        "traced_samples": [len(t) for t in traced],
        "run_s": [[r["run_s"] for r in p] for p in plain],
        "setup_s": [[[q["setup_s"] for q in [r] + r["probes"]] for r in p]
                    for p in plain],
        "calibration_s": [[[q["calibration_s"] for q in [r] + r["probes"]]
                           for r in p] for p in plain],
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": failures,
        "backend": plain[0][0]["backend"] if plain[0] else "unknown",
        "env_removed": removed, "facts": facts,
    }
    if complete and args.trace:
        summary["absent"] = traced[0][0]["absent"]
        self_times: dict[str, float] = {}
        for runs in traced:
            for k, v in runs[0]["layer"].items():
                if k.endswith(".self_s"):
                    self_times[k] = self_times.get(k, 0.0) + v
        summary["largest_self_s"] = max(self_times, key=self_times.get)
    print(json.dumps(summary))

    metrics: dict[str, float] = {}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if complete and args.trace:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_frac"] = sum(
            statistics.median(r["run_s"] for r in t) for t in traced) / sum(
            statistics.median(r["run_s"] for r in p) for p in plain) - 1.0
    elif complete:
        workers = [q for runs in plain for r in runs
                   for q in [r] + r["probes"]]
        metrics = {
            "run_s": sum(statistics.median(scaled(r["run_s"], r)
                                           for r in runs) for runs in plain),
            "setup_s": statistics.median(scaled(q["setup_s"], q)
                                         for q in workers),
            "peak_rss_mb": max(statistics.median(r["peak_rss_mb"]
                                                 for r in runs)
                               for runs in plain),
        }
    correct = failed == 0 and complete
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
