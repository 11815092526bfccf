"""Smoke test of the benchmark itself, at a tiny size (about 20 s).

    python3 certbench/smoke.py

Checks that a run prints every metric BENCHMARK.json names, with its unit,
in both modes; that a deliberately wrong expected rank is reported as a
failed operation with a nonzero exit; that the seeded graded breakpoints are
reproducible with distinct widths; and that the benchmark refuses to run,
without printing a result, where there is no source tree.  Exits nonzero on
the first problem.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {what}")
    print(f"smoke: ok: {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, err = run("smoke", trace)
        expect(code == 0, f"smoke run with --trace {trace} exits 0"
               + (f"; stderr: {err[-500:]}" if code else ""))
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               "result has exactly correct/attempted/failed/metrics")
        expect(result["correct"] and result["failed"] == 0,
               f"--trace {trace}: correct with no failed operation")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"--trace {trace}: every {key} metric with its unit")
        expect(all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values()),
               f"--trace {trace}: every value is a number")

    code, lines, _err = run("smoke-bad-rank", 0)
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])
    expect(code != 0 and not result["correct"],
           "a wrong expected rank makes the run incorrect and exit nonzero")
    expect(result["failed"] >= 1 and summary["fail_frac"] > 0,
           "a wrong expected rank shows as fail_frac > 0")

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    for seed in range(50):
        breaks = workloads.graded_breaks(random.Random(seed), 2)
        widths = [b - a for a, b in zip(breaks, breaks[1:])]
        expect_same = workloads.graded_breaks(random.Random(seed), 2)
        if (breaks != expect_same or len(set(widths)) != len(widths)
                or max(b.denominator for b in breaks) > 7):
            expect(False, f"graded breakpoints for seed {seed}: {breaks}")
    expect(True, "graded breakpoints are reproducible, distinct, bounded")

    with tempfile.TemporaryDirectory(prefix=".smoke-", dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _err = run("uniform", 0, cwd=bare)
        expect(code != 0 and not lines,
               "without a source tree the run fails and prints no result")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
