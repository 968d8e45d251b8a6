"""The four benchmark workloads: inputs from a seed, the timed call per
item, and the output checks that run after the timed window.

Each workload class has ``prepare(seed, limit)``, which makes the item
list once per pass (``limit`` cuts it down); ``run(item)``, the timed
call; and ``check(items, outputs, ref, cut_down)``, which returns the
indices of failed items and whether the job-level output, if any,
matches its reference.

Every workload calls the library the way ``charval.cli`` does
(``_cmd_verify`` for catalog entries, ``_load`` for group files), through
module attributes so that a traced pass sees its patched entry points.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from charval import catalog, chartab, invariants, permcore, symchar, verify
from charval.cyclo import Cyc


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_json(obj) -> str:
    """The bytes ``charval ... --json`` writes for obj."""
    return json.dumps(obj, indent=2) + "\n"


class CatalogVerify:
    """``charval verify --all --json`` from a cold bundle cache: every
    core entry through the six checkers, then the corpus scans."""

    name = "catalog_verify"

    def prepare(self, seed, limit):
        self.seed = seed
        items = [("entry", n) for n in sorted(catalog.names("core"))]
        if limit is not None:
            # the corpus scans need every core bundle, so a cut-down
            # list leaves them out
            return items[:limit]
        return items + [("scan", "corpus")]

    def run(self, item):
        kind, name = item
        if kind == "entry":
            return verify.check_group(name, self.seed)
        return verify.scan_checks(self.seed)

    def check(self, items, outputs, ref, cut_down):
        failed = set()
        for i, ((_, name), out) in enumerate(zip(items, outputs)):
            if out is None or _verdict_digest(out) != ref["items"].get(name):
                failed.add(i)
        if cut_down:
            return failed, True
        if any(out is None for out in outputs):
            return failed, False
        text = cli_json([v.to_json_dict() for out in outputs for v in out])
        return failed, sha256(text) == ref["verify_all_json_sha256"]

    @staticmethod
    def reference(outputs, items) -> dict:
        return {name: _verdict_digest(out)
                for (_, name), out in zip(items, outputs)}


def _verdict_digest(verdicts) -> str:
    return sha256(cli_json([v.to_json_dict() for v in verdicts]))


# Generators in 1-based cycle notation, as the catalog builds them.
_PERM_GROUPS = {
    "alt_7": [(1, 2, 3), (1, 2, 3, 4, 5, 6, 7)],
    "sym_7": [(1, 2), (1, 2, 3, 4, 5, 6, 7)],
}
_DEGREE = 7
_BOUND = 5040   # the CLI's --max-order for these files


class LargePerm:
    """sym_7 and alt_7 as group files with seeded point labels, through
    parse -> classes -> table -> report."""

    name = "large_perm"

    def prepare(self, seed, limit):
        self.seed = seed
        rng = random.Random(seed)
        items = []
        for name, gens in _PERM_GROUPS.items():
            label = list(range(1, _DEGREE + 1))
            rng.shuffle(label)
            lines = [f"degree {_DEGREE}"]
            lines += ["(" + " ".join(str(label[p - 1]) for p in cyc) + ")"
                      for cyc in gens]
            items.append((name, "\n".join(lines) + "\n"))
        return items if limit is None else items[:limit]

    def run(self, item):
        _, text = item
        group = permcore.parse_group_file(text, bound=_BOUND)
        classes = permcore.conjugacy_classes(group)
        table = chartab.character_table(group, classes, seed=self.seed)
        return table, invariants.report(table)

    def check(self, items, outputs, ref, cut_down):
        failed = set()
        for i, ((name, _), out) in enumerate(zip(items, outputs)):
            if out is None or perm_fields(*out) != ref.get(name):
                failed.add(i)
            elif name == "sym_7" and not mn_rows_match(out[0]):
                failed.add(i)
        return failed, True


def perm_fields(table, rep) -> dict:
    """Report and table facts that do not depend on the point labels."""
    d = rep.to_json_dict()
    cd = table.classes
    fields = {
        "order": d["order"], "class_count": d["class_count"],
        "cv": d["cv"], "cd": d["cd"], "cdc": d["cdc"], "ncv": d["ncv"],
        "b": d["b"], "dl": d["dl"], "flags": d["flags"],
        "is_rational_group": d["is_rational_group"],
        "per_char_cv_sizes": sorted(d["per_char_cv_sizes"]),
        "cod": sorted(d["cod"]),
        "root_of_unity_classes": len(d["root_of_unity_elements"]),
        "degrees": sorted(table.degrees),
        "class_shapes": sorted(zip(cd.element_orders, cd.sizes)),
    }
    return json.loads(json.dumps(fields))   # as read back from the file


def _cycle_type(images) -> tuple[int, ...]:
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def mn_rows_match(table) -> bool:
    """Rows of a symmetric-group table equal the Murnaghan-Nakayama
    characters, classes matched by cycle type."""
    group, cd = table.group, table.classes
    types = [_cycle_type(group.elements[r].images) for r in cd.reps]
    if any(not v.is_integer() for row in table.rows for v in row.values):
        return False
    got = sorted(tuple(v.as_int() for v in row.values) for row in table.rows)
    want = sorted(tuple(symchar.mn_value(lam, rho) for rho in types)
                  for lam in symchar.partitions(group.degree))
    return got == want


class ManyClasses:
    """sg_250_14 (64 classes) through table and report."""

    name = "many_classes"
    entry = "sg_250_14"

    def prepare(self, seed, limit):
        self.seed = seed
        return [self.entry]

    def run(self, item):
        _, _, _, table, rep = catalog.bundle(item, self.seed)
        return table, rep

    def check(self, items, outputs, ref, cut_down):
        out = outputs[0]
        ok = out is not None and \
            table_digests(*out) == ref["digests"] and \
            catalog.check_expected(self.entry, self.seed) == []
        return (set() if ok else {0}), True


def table_digests(table, rep) -> dict:
    return {"table": sha256(cli_json(table.to_json_dict())),
            "report": sha256(cli_json(rep.to_json_dict()))}


# The conductors the test suite draws Cyc values from.
CONDUCTORS = (1, 3, 4, 5, 7, 8, 9, 12)


class CycArith:
    """Triples of Cyc values, one per ordered conductor triple, in seeded
    order with seeded coefficients; products and sums reach conductors
    in the hundreds."""

    name = "cyc_arith"

    def prepare(self, seed, limit):
        rng = random.Random(seed)
        triples = [(x, y, z) for x in CONDUCTORS for y in CONDUCTORS
                   for z in CONDUCTORS]
        # The number of terms (0..4) of each value is fixed by its triple
        # and position, not by the seed: which triples hold zeros decides
        # how much high-conductor arithmetic a pass does, so seeds differ
        # only in exponents, coefficients and item order.
        items = [tuple(_random_cyc(rng, n, (j + k) % 5)
                       for k, n in enumerate(t))
                 for j, t in enumerate(triples)]
        rng.shuffle(items)
        return items if limit is None else items[:limit]

    def run(self, item):
        a, b, c = item
        zero, one = Cyc.zero(), Cyc.one()
        ab = a * b
        laws = [
            ab == b * a,
            a + b == b + a,
            ab * c == a * (b * c),
            (a + b) + c == a + (b + c),
            a * (b + c) == ab + a * c,
            a + zero == a,
            a * one == a,
            a + (-a) == zero,
        ]
        laws += [Cyc.parse(x.display()) == x for x in (a, b, c, ab)]
        return all(laws), ab

    def check(self, items, outputs, ref, cut_down):
        tol = ref["float_tolerance"]
        failed = set()
        for i, ((a, b, _), out) in enumerate(zip(items, outputs)):
            if out is None or not out[0]:
                failed.add(i)
                continue
            fa, fb = a.approx(), b.approx()
            scale = 1.0 + _l1(a) * _l1(b)
            if not abs(out[1].approx() - fa * fb) <= tol * scale:
                failed.add(i)
        return failed, True


def _l1(x: Cyc) -> float:
    return float(sum(abs(c) for c in x.coeffs))


def _random_cyc(rng: random.Random, n: int, size: int) -> Cyc:
    # the test suite's shape: up to four terms, coefficients in [-3, 3]
    # with denominators up to 4.  A nonzero value is drawn again until
    # its conductor is n itself, since a value that falls to a smaller
    # field would make the work of a pass depend on the seed.
    while True:
        terms = {}
        for e in rng.sample(range(n), min(size, n)):
            den = rng.randint(1, 4)
            num = rng.choice([k for k in range(-3 * den, 3 * den + 1) if k])
            terms[e] = Fraction(num, den)
        value = Cyc.from_exponents(n, terms)
        if not size or value.n == n:
            return value


WORKLOADS = {w.name: w for w in (CatalogVerify, LargePerm, ManyClasses,
                                 CycArith)}
