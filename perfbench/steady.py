"""Steadiness check: run each workload several times and report the
spread of every metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W]
    python3 perfbench/steady.py --trace [--runs 3] [--first-seed 1]

Untraced, run i uses seed first-seed + i, as a regression gate does, and
each end-to-end metric gets its median, quartiles (statistics.quantiles,
n=4) and spread (q3 - q1) / median against its bound in BENCHMARK.json.
Exit code 1 if a run fails or a spread other than setup_s exceeds its
bound.

Traced, every run uses first-seed, and every count-valued per-layer
metric must repeat exactly from run to run; exit code 1 otherwise.

Raw results, with the machine they ran on, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_UNITS = ("count", "conductor")


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "seed": seed, "returncode": proc.returncode}
    summary = json.loads(lines[-2])["summary"]
    result = json.loads(lines[-1])
    return {**result, "seed": seed, "summary": summary}


def _spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def describe(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 \
        else (med, med, med)
    return (f"  {name:28s} median {med:12.6g} {unit:9s} "
            f"q1 {q1:12.6g} q3 {q3:12.6g} spread {_spread(values):7.2%}")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    ok = True
    record = {"trace": args.trace, "runs": {}}
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.trace else i)
            runs.append(one_run(name, seed, spec["run_seconds"], args.trace))
        record["runs"][name] = runs
        if "machine" not in record and "summary" in runs[0]:
            record["machine"] = runs[0]["summary"]["machine"]
            print("machine:", json.dumps(record["machine"]), flush=True)
        bad = [r["seed"] for r in runs if not r.get("correct")]
        print(f"\n{name}: {len(runs)} runs, incorrect seeds: {bad or 'none'}",
              flush=True)
        if bad:
            ok = False
            continue
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            line = describe(m["name"], m["unit"], values)
            if args.trace:
                if m["unit"] in EXACT_UNITS and len(set(values)) > 1:
                    line += "  NOT EXACT"
                    ok = False
            else:
                bound = m["bound"]
                spread = _spread(values)
                state = "steady" if spread <= bound / 3 else \
                    "within bound" if spread <= bound else "WIDE"
                line += f"  bound {bound:.0%}  {state}"
                if state == "WIDE" and m["name"] != "setup_s":
                    ok = False
            print(line, flush=True)
        if not args.trace:
            declared = {m["name"] for m in metrics}
            for key, fig in runs[0]["summary"]["end_to_end"].items():
                if key not in declared:
                    values = [r["summary"]["end_to_end"][key]["value"]
                              for r in runs]
                    print(describe(key, fig["unit"], values) + "  not gated",
                          flush=True)
    (BENCH / "out").mkdir(exist_ok=True)
    path = BENCH / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"\nraw results: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
