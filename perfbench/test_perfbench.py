"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench

Each workload runs on a cut-down item list against a corrupted copy of
the reference and must report failures; the traced mode must report
every per-layer metric and leave the library unpatched.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "smoke"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402


def _reference() -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args: str, reference: Path | None = None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--seed", "3",
           "--seconds", "0", *args]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def _corrupt(ref: dict, workload: str) -> None:
    if workload == "catalog_verify":
        first = sorted(ref[workload]["items"])[0]
        ref[workload]["items"][first] = "0" * 64
    elif workload == "large_perm":
        ref[workload]["alt_7"]["dl"] = 99
    elif workload == "many_classes":
        ref[workload]["digests"]["table"] = "0" * 64
    else:
        ref[workload]["float_tolerance"] = -1.0


CUT_DOWN = {"catalog_verify": 40, "large_perm": 1, "many_classes": 1,
            "cyc_arith": 24}


@pytest.mark.parametrize("workload", sorted(CUT_DOWN))
def test_corrupted_reference_counts_failures(workload):
    ref = copy.deepcopy(_reference())
    _corrupt(ref, workload)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"reference-{workload}.json"
    path.write_text(json.dumps(ref))
    code, lines = _bench("--workload", workload,
                         "--items", str(CUT_DOWN[workload]), reference=path)
    summary = json.loads(lines[-2])["summary"]
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert summary["end_to_end"]["failed_frac"]["value"] > 0
    assert summary["machine"]["nproc"] >= 1
    assert summary["machine"]["python"]


@pytest.mark.parametrize("workload", ["catalog_verify", "cyc_arith"])
def test_true_reference_passes(workload):
    code, lines = _bench("--workload", workload,
                         "--items", str(CUT_DOWN[workload]))
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == declared
    figures = json.loads(lines[-2])["summary"]["end_to_end"]
    assert {"setup_s", "wall_s", "item_p50_s", "item_tail_s", "peak_rss_mb",
            "failed_frac"} <= set(figures)
    assert all("unit" in f for f in figures.values())
    assert figures["failed_frac"]["value"] == 0


def test_traced_run_reports_every_layer_metric():
    code, lines = _bench("--workload", "cyc_arith", "--items", "24",
                         "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == declared
    assert metrics["cyclo.ops"] > 0
    assert metrics["cyclo.mul_s"] > 0
    assert metrics["chartab.tables"] == 0


def test_tracer_restores_the_library():
    import tracing
    from charval import catalog, chartab, invariants, permcore, verify
    from charval.cyclo import Cyc

    def snapshot():
        return ([chartab.character_table, chartab._self_verify,
                 catalog.bundle, catalog.report, invariants.report,
                 invariants.structure_flags, verify.structure_flags,
                 permcore.derived_series]
                + [Cyc.__dict__[a] for a in ("__mul__", "__rmul__",
                                             "__add__", "display", "parse")]
                + [permcore.PermGroup.__dict__["from_generators"],
                   permcore.ClassData.__dict__["__init__"]])

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.window = True
    tracer.item = 0
    try:
        assert invariants.report is not before[4]
        group = permcore.PermGroup.from_generators(
            [permcore.perm_from_cycles([(0, 1, 2)], 3)])
        table = chartab.character_table(group)
        invariants.report(table)
    finally:
        tracer.remove()
    after = snapshot()
    assert all(a is b for a, b in zip(before, after))
    assert tracer.counts["tables"] == 1 and tracer.counts["k_cubed"] == 27
    assert tracer.counts["elements"] == 3 and tracer.counts["classes"] == 3
    names = {s.name for s in tracer.spans}
    assert {"enumerate", "classes", "character_table", "self_verify",
            "report", "structure_flags", "derived_series"} <= names
    for s in tracer.spans:
        assert s.end - s.start >= s.child_s >= 0


def test_pacer_scales_and_restores_the_alarm_handler():
    import signal
    import time

    import pace

    assert pace.reference_seconds(2.0, [0.01, 0.01]) == pytest.approx(1.0)
    assert pace.reference_seconds(1.0, [0.0025, 0.005]) == pytest.approx(1.5)
    before = signal.getsignal(signal.SIGALRM)
    pacer = pace.Pacer()
    pacer.start()
    a = time.perf_counter()
    try:
        while time.perf_counter() - a < 3.5 * pace.INTERVAL:
            pass
    finally:
        pacer.stop()
    b = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(pacer.probes) >= 2
    assert pacer.spent(a, b) == pytest.approx(sum(pacer.durations()))
    assert pacer.spent(b, b + 1) == 0


def test_cyc_values_keep_their_conductor_under_every_seed():
    import workloads

    wl = workloads.CycArith()
    shapes = None
    for seed in (1, 2):
        items = wl.prepare(seed, None)
        got = sorted((v.n, len([c for c in v.coeffs if c]) > 0)
                     for item in items for v in item)
        assert shapes is None or got == shapes
        shapes = got
        assert all(v.n == 1 or v.n in workloads.CONDUCTORS
                   for item in items for v in item)


def test_tail_needs_ten_items_beyond():
    assert bench_run.tail([0.1] * 19) is None
    got = bench_run.tail([float(i) for i in range(40)])
    assert got == {"value": 29.0, "percentile": 75.0, "samples": 40}


def test_refuses_a_checkout_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cyc_arith",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        # a copy of this file under perfbench/ would be collected next time
        shutil.rmtree(bare)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
