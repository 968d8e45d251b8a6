"""charval benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/charval`` beside
``perfbench``).  Each pass of the workload runs in a fresh worker
process with one caller and no threads, the way the ``charval`` CLI is
used: set-up (import and input generation), the timed items one after
another, then the output checks against ``perfbench/reference.json``.
Passes repeat while the next one is projected to end within --seconds;
there is always at least one.  Five set-up-only workers run first, so
``setup_s`` is a median of several set-ups.

Times are paced (``pace.py``): probes of a fixed piece of pure Python
run every 0.1 s inside each untraced window, and just before and after
each set-up and window, and every time is reported in reference
seconds, so that the drifting speed of a shared host cancels.  The raw
figures are in the summary line as ``*_raw_s``.

--trace 0 reports the end-to-end metrics that BENCHMARK.json declares.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_frac``: the
traced wall time over the untraced one, minus one.  Spans of traced
passes are written to ``perfbench/out/``.

The last line of stdout is the result object; the line before it is a
summary with the machine, the pass count, and every end-to-end figure
with its unit: the declared ones plus item_p50_s, item_tail_s (with its
percentile and sample count), failed_frac and the raw times.  Exit code
0 when every output checked out, 1 when one did not, 2 on a usage error or a checkout without ``src/charval``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("catalog_verify", "large_perm", "many_classes", "cyc_arith")
SETUP_PROBES = 5
SETUP_PACE_PROBES = 10  # pace probes just before and just after set-up
WINDOW_PACE_PROBES = 5  # pace probes just before and just after a window
RUN_LIMIT_S = 170       # the whole run must end within 180 s
TAIL_BEYOND = 10        # items beyond the reported tail percentile
TAIL_MIN_ITEMS = 20


def machine() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"nproc": cpus, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


# -- worker: one pass in a fresh process ----------------------------------

def worker(args) -> int:
    import pace
    pace.timed_probes(1)    # warm the probe's own code paths
    before = pace.timed_probes(SETUP_PACE_PROBES)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    from charval.cyclo import _descent_solver

    wl = workloads.WORKLOADS[args.workload]()
    items = wl.prepare(args.seed, args.items)
    setup_raw_s = time.perf_counter() - t0
    around = before + pace.timed_probes(SETUP_PACE_PROBES)
    setup = {"setup_s": pace.reference_seconds(setup_raw_s, around),
             "setup_raw_s": setup_raw_s}
    if args.worker == "setup":
        print(json.dumps({**setup, "attempted": len(items)}))
        return 0
    with open(args.reference, encoding="utf-8") as fh:
        ref = json.load(fh)[wl.name]

    tracer = None
    if args.worker == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.window = True
    # traced passes are paced only around the window, so that no probe
    # lands inside a span
    pacer = pace.Pacer() if tracer is None else None
    probes = pace.timed_probes(WINDOW_PACE_PROBES)
    solver_before = _descent_solver.cache_info()
    outputs, latencies, errors = [], [], []
    if pacer is not None:
        pacer.start()
    start = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception:   # counted as a failed item, never retried
            out = None
            errors.append(i)
            traceback.print_exc()
        end = time.perf_counter()
        latencies.append(end - t - (pacer.spent(t, end) if pacer else 0.0))
        outputs.append(out)
    end = time.perf_counter()
    if pacer is not None:
        pacer.stop()
        probes += pacer.durations()
    wall_raw_s = end - start - (pacer.spent(start, end) if pacer else 0.0)
    solver_after = _descent_solver.cache_info()
    probes += pace.timed_probes(WINDOW_PACE_PROBES)
    scale = pace.reference_seconds(1.0, probes)

    if tracer is not None:
        tracer.window = False
        tracer.item = tracing.CHECK
    try:
        failed, job_ok = wl.check(items, outputs, ref, args.items is not None)
    except Exception:
        traceback.print_exc()
        failed, job_ok = set(range(len(items))), False
    if tracer is not None:
        tracer.remove()
    failed |= set(errors)
    for i in sorted(failed):
        print(f"{args.workload}: item {i} failed: {items[i]!r:.120}",
              file=sys.stderr)
    if not job_ok:
        print(f"{args.workload}: job output differs from the reference",
              file=sys.stderr)

    import resource
    record = {
        **setup, "wall_s": wall_raw_s * scale, "wall_raw_s": wall_raw_s,
        "latencies": [x * scale for x in latencies],
        "pace_probe_s": statistics.median(probes),
        "attempted": len(items), "failed": len(failed), "job_ok": job_ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, solver_before, solver_after)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_no}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "machine": machine(), **tracer.to_json()}, fh)
        record["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


def layer_metrics(tracer, before, after) -> dict:
    """Per-layer metrics of one traced pass, over its timed window;
    symchar.mn_s is oracle time, spent in the checks after it."""
    incl, counts = tracer.inclusive, tracer.counts
    builds = after.misses - before.misses
    hits = after.hits - before.hits
    return {
        "chartab.self_verify_s": incl("self_verify"),
        "chartab.split_lift_s": incl("character_table") - incl("self_verify"),
        "chartab.k_cubed": counts["k_cubed"],
        "chartab.tables": counts["tables"],
        "permcore.derived_length_s": incl("derived_series"),
        "permcore.structure_flags_s": incl("structure_flags"),
        "permcore.normal_subgroups_s": incl("normal_subgroups"),
        "permcore.enumerate_s": incl("enumerate"),
        "permcore.classes_s": incl("classes"),
        "permcore.elements": counts["elements"],
        "permcore.classes": counts["classes"],
        "cyclo.mul_s": tracer.fine_seconds("mul"),
        "cyclo.add_s": tracer.fine_seconds("add"),
        "cyclo.display_parse_s": tracer.fine_seconds("display_parse"),
        "cyclo.ops": counts["ops"],
        "cyclo.max_conductor": counts["max_conductor"],
        "cyclo.solver_builds": builds,
        "cyclo.solver_hit_ratio": hits / (hits + builds) if hits + builds
        else 0.0,
        "invariants.report_self_s": tracer.self_time("report"),
        "verify.checkers_s": incl("checker"),
        "verify.scan_checks_s": incl("scan_checks"),
        "verify.verdicts": counts["verdicts"],
        "verify.fail": counts["fail"],
        "catalog.bundle_s": tracer.self_time("bundle"),
        "symchar.mn_s": incl("mn_value", check=True),
    }


# -- parent side: passes, aggregation, result -----------------------------

class Run:
    def __init__(self, args):
        self.args = args
        self.begin = time.perf_counter()
        self.passes = 0

    def spawn(self, kind: str) -> dict | None:
        a = self.args
        cmd = [sys.executable, str(BENCH / "run.py"), "--worker", kind,
               "--workload", a.workload, "--seed", str(a.seed),
               "--reference", str(a.reference), "--pass-no", str(self.passes)]
        if a.items is not None:
            cmd += ["--items", str(a.items)]
        self.passes += 1
        left = RUN_LIMIT_S - (time.perf_counter() - self.begin)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            print(f"{a.workload}: {kind} pass exceeded the run limit",
                  file=sys.stderr)
            return None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{a.workload}: {kind} pass exited {proc.returncode}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> dict | None:
    """Latency at the highest percentile with TAIL_BEYOND items beyond it."""
    n = len(latencies)
    if n < TAIL_MIN_ITEMS:
        return None
    rank = n - TAIL_BEYOND
    return {"value": sorted(latencies)[rank - 1],
            "percentile": 100.0 * rank / n, "samples": n}


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(args) -> int:
    run = Run(args)
    probes = [run.spawn("setup") for _ in range(SETUP_PROBES)]
    if any(p is None for p in probes):
        print("error: the workload could not be set up", file=sys.stderr)
        return 2
    expected = probes[0]["attempted"]

    kinds = ["plain", "traced"] if args.trace else ["plain"]
    plain, traced, durations = [], [], []
    attempted = failed = 0
    job_ok = True
    start = time.perf_counter()
    while True:
        kind = kinds[len(durations) % len(kinds)]
        t = time.perf_counter()
        rec = run.spawn(kind)
        durations.append(time.perf_counter() - t)
        if rec is None:
            attempted += expected
            failed += expected
            job_ok = False
            break
        attempted += rec["attempted"]
        failed += rec["failed"]
        job_ok &= rec["job_ok"]
        (traced if kind == "traced" else plain).append(rec)
        enough = len(durations) >= len(kinds)
        projected = time.perf_counter() - start + statistics.median(durations)
        if enough and projected > args.seconds:
            break

    metrics = {}
    summary = {"workload": args.workload, "seed": args.seed,
               "machine": machine(), "passes": len(durations),
               "pass_wall_s": [r["wall_s"] for r in plain + traced],
               "pass_wall_raw_s": [r["wall_raw_s"] for r in plain + traced],
               "pace_probe_s": [r["pace_probe_s"] for r in plain + traced],
               "attempted": attempted, "failed": failed}
    figures = {"failed_frac": {"value": failed / attempted if attempted
                               else 1.0, "unit": "ratio"}}
    if plain:
        setups = probes + plain
        metrics.update({
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "setup_raw_s": statistics.median(r["setup_raw_s"]
                                             for r in setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "wall_raw_s": statistics.median(r["wall_raw_s"] for r in plain),
            "item_p50_s": statistics.median(
                statistics.median(r["latencies"]) for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        })
        units = {"setup_s": "s", "setup_raw_s": "s", "wall_s": "s",
                 "wall_raw_s": "s", "item_p50_s": "s", "peak_rss_mb": "MB"}
        figures.update({k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()})
        tails = [t for t in (tail(r["latencies"]) for r in plain) if t]
        if tails:
            figures["item_tail_s"] = {
                "value": statistics.median(t["value"] for t in tails),
                "unit": "s", "percentile": tails[0]["percentile"],
                "samples_per_pass": tails[0]["samples"]}
    summary["end_to_end"] = figures
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        if plain:
            metrics["trace.overhead_frac"] = statistics.median(
                r["wall_s"] for r in traced) / metrics["wall_s"] - 1.0
        summary["per_layer"] = {k: metrics[k] for k in traced[0]["layers"]}
        summary["per_layer"]["trace.overhead_frac"] = \
            metrics.get("trace.overhead_frac")
        summary["spans_files"] = [r["spans_file"] for r in traced]

    correct = failed == 0 and job_ok
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {}}
    for m in declared_metrics(args.trace):
        if m["name"] not in metrics:
            print(f"error: metric {m['name']} was not measured",
                  file=sys.stderr)
            return 1
        result["metrics"][m["name"]] = {"value": metrics[m["name"]],
                                        "unit": m["unit"]}
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, default=None,
                   help="cut the item list down to its first N items")
    p.add_argument("--reference", type=Path, default=REFERENCE)
    p.add_argument("--worker", choices=("setup", "plain", "traced"),
                   help=argparse.SUPPRESS)
    p.add_argument("--pass-no", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "charval" / "__init__.py").is_file():
        print(f"error: no charval sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    import compileall   # the build: byte-compile once, outside any timing
    compileall.compile_dir(SRC / "charval", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
