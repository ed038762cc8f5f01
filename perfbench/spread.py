"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload decide-cold --seeds 1-10 [--trace 0]

For every metric: the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
        ), flush=True)

    print(f"\n{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<34}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}{spread:>9.3f}"
              f"{'' if bound is None else bound:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
