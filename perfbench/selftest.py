"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py [--seconds 1]

1. Plans are pure functions of the seed: the same seed gives an identical
   plan (also in another process with another string-hash salt), and a
   different seed gives a different plan, for every workload.
2. ``BENCHMARK.json`` keeps the benchmark contract, and every metric the
   benchmark prints is declared there with the same unit.
3. Quick mode: every workload runs end to end, untraced and traced, and
   prints a correct result.
4. Without the program (a directory holding only ``BENCHMARK.json`` and
   the benchmark) the command exits non-zero and prints no result.

Exits non-zero on the first failing section.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = BENCH_DIR / "history" / "selftest"

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _digests(seed: int) -> dict[str, str]:
    import workloads

    return {
        name: cls(seed, 15.0).digest() for name, cls in workloads.WORKLOADS.items()
    }


def check_plans() -> list[str]:
    problems = []
    first, again, other = _digests(1), _digests(1), _digests(2)
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import selftest; print(json.dumps(selftest._digests(1)))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(ROOT / "src")],
        capture_output=True, text=True, env=env, check=True,
    )
    elsewhere = json.loads(proc.stdout)
    for name in first:
        if first[name] != again[name]:
            problems.append(f"{name}: same seed, different plan")
        if first[name] != elsewhere[name]:
            problems.append(f"{name}: plan depends on the process's hash salt")
        if first[name] == other[name]:
            problems.append(f"{name}: seeds 1 and 2 give the same plan")
    return problems


def check_contract() -> list[str]:
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
        _PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]
    ):
        problems.append(f"bad paths {spec['paths']}")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    names = [w["name"] for w in spec["workloads"]]
    if not 2 <= len(names) <= 8 or any(set(w) != {"name", "why"} for w in spec["workloads"]):
        problems.append("workloads need 2..8 entries of exactly name and why")
    import workloads

    if set(names) != set(workloads.WORKLOADS):
        problems.append(f"declared workloads {names} != {sorted(workloads.WORKLOADS)}")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"{w['name']}: why must be one line of <= 200 characters")
    seen = set(names)
    for group, keys, printed in (
        ("end_to_end", {"name", "unit", "better", "bound"}, run.E2E_UNITS),
        ("per_layer", {"name", "unit", "better"}, layers.PER_LAYER_UNITS),
    ):
        for m in spec[group]:
            if set(m) != keys:
                problems.append(f"{group} {m.get('name')}: keys {sorted(m)}")
            if not _NAME.match(m["name"]) or m["name"] in seen:
                problems.append(f"{group}: bad or repeated name {m['name']!r}")
            seen.add(m["name"])
            if not _UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"{group} {m['name']}: bad unit or better")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
        declared = {m["name"]: m["unit"] for m in spec[group]}
        if declared != printed:
            problems.append(f"{group}: declared {declared} != printed {printed}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be declared in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def _run(cwd: pathlib.Path, workload: str, seconds: float, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_quick(seconds: float) -> list[str]:
    import layers
    import run

    problems = []
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace, units in ((0, run.E2E_UNITS), (1, layers.PER_LAYER_UNITS)):
            proc = _run(ROOT, workload["name"], seconds, trace)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct or nothing attempted")
            elif {k: m["unit"] for k, m in result["metrics"].items()} != units:
                problems.append(f"{label}: printed metrics differ from the declared ones")
            print(f"  {label}: ok ({result['attempted']} ops)", flush=True)
    return problems


def check_without_program() -> list[str]:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    shutil.copytree(BENCH_DIR, SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("history", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    try:
        proc = _run(SCRATCH, "decide-cold", 1, 0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without the program the command must fail and print nothing"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="measured seconds per quick run")
    args = parser.parse_args()
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    sections = (
        ("plans are pure functions of the seed", check_plans),
        ("BENCHMARK.json contract and declared metrics", check_contract),
        ("quick mode, every workload", lambda: check_quick(args.seconds)),
        ("no program, no result", check_without_program),
    )
    for title, check in sections:
        print(f"{title} ...", flush=True)
        problems = check()
        for problem in problems:
            print(f"  FAIL {problem}")
        if problems:
            return 1
        print("  ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
