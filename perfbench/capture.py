"""Write perfbench/reference.json from the charval sources beside it.

    python3 perfbench/capture.py

The references are the outputs the benchmark compares against: the
sha256 of ``charval verify --all --json`` (taken from the CLI itself)
and of each entry's verdicts, the label-independent report fields of
sym_7 and alt_7, and the table and report digests of sg_250_14.  Each is
captured under two splitting seeds and must agree, since any seed
yields the same tables.  Run it only on a commit whose outputs are
known to be right; the benchmark then holds later commits to them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from charval import catalog  # noqa: E402

SEEDS = (0, 1)
FLOAT_TOLERANCE = 1e-9


def capture(seed: int) -> dict:
    cli = subprocess.run(
        [sys.executable, "-m", "charval.cli", "verify", "--all", "--json",
         "--seed", str(seed)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True)

    cv = workloads.CatalogVerify()
    items = cv.prepare(seed, None)
    outputs = [cv.run(item) for item in items]
    text = workloads.cli_json([v.to_json_dict() for o in outputs for v in o])
    if text != cli.stdout:
        raise SystemExit("verdicts differ from `charval verify --all --json`")

    lp = workloads.LargePerm()
    groups = {item[0]: lp.run(item) for item in lp.prepare(seed, None)}
    if not workloads.mn_rows_match(groups["sym_7"][0]):
        raise SystemExit("sym_7 table disagrees with Murnaghan-Nakayama")

    mc = workloads.ManyClasses()
    mc.prepare(seed, None)
    table, rep = mc.run(mc.entry)
    if catalog.check_expected(mc.entry, seed):
        raise SystemExit(f"{mc.entry} fails its catalog expectations")
    catalog.clear_caches()
    return {
        "catalog_verify": {
            "verify_all_json_sha256": workloads.sha256(cli.stdout),
            "items": cv.reference(outputs, items),
        },
        "large_perm": {name: workloads.perm_fields(*out)
                       for name, out in groups.items()},
        "many_classes": {"digests": workloads.table_digests(table, rep)},
        "cyc_arith": {"float_tolerance": FLOAT_TOLERANCE},
    }


def main() -> int:
    refs = [capture(seed) for seed in SEEDS]
    if any(r != refs[0] for r in refs):
        raise SystemExit("reference outputs depend on the splitting seed")
    path = BENCH / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs[0], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
