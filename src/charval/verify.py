"""Executable hypothesis-to-conclusion checks over computed tables.

Each classification claim becomes a checker: decide whether the group
meets the hypothesis, then test the asserted conclusion exactly.  A
verdict never hides a vacuous hypothesis; FAIL means the computed table
contradicts the claim, which on this corpus indicates an engine bug.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import catalog
from .chartab import CharTable
from .cyclo import is_p_power, prime_factors
from .invariants import InvariantReport
from .permcore import (
    ClassData, a5a6_free, centralizes, frobenius_kernel, is_abelian_section,
    is_extraspecial, large_normal_masks, mask_size, sort_masks,
)
# unused here, but perfbench patches and restores verify.structure_flags
from .permcore import structure_flags  # noqa: F401

CLAIMS = ("four_values_solvable", "cdc3_solvable", "cdc2_shape",
          "nilpotent_cdc3", "nonnilpotent_cdc3", "two_degrees")


class Verdict(NamedTuple):
    group: str
    claim: str
    hypothesis_met: bool
    conclusion_holds: bool | None  # None exactly when the hypothesis fails
    details: str

    @property
    def status(self) -> str:
        if not self.hypothesis_met:
            return "vacuous"
        return "pass" if self.conclusion_holds else "FAIL"

    def to_json_dict(self) -> dict:
        return {"group": self.group, "claim": self.claim,
                "hypothesis_met": self.hypothesis_met,
                "conclusion_holds": self.conclusion_holds,
                "status": self.status, "details": self.details}


def _met(group: str, claim: str, concl: bool, details: str) -> Verdict:
    return Verdict(group, claim, True, bool(concl), details)


def _vacuous(group: str, claim: str, details: str) -> Verdict:
    return Verdict(group, claim, False, None, details)


def _elementary_abelian_section(classes: ClassData, mask: int, p: int,
                                below: int = 1) -> bool:
    """Whether K/N is elementary abelian of exponent p (or trivial)."""
    return all(below >> classes.power_class(i, p) & 1
               for i in range(classes.n_classes) if mask >> i & 1) \
        and is_abelian_section(classes, mask, below)


def check_four_values_solvable(table: CharTable, rep: InvariantReport,
                               label: str) -> Verdict:
    """At most four values on every nonlinear row forces solvability."""
    claim = "four_values_solvable"
    sizes = [s for row, s in zip(table.rows, rep.per_char_cv_sizes)
             if row.degree > 1]
    if any(s > 4 for s in sizes):
        return _vacuous(label, claim,
                        f"a nonlinear row has {max(sizes)} values")
    solvable = rep.dl is not None
    note = "no nonlinear rows" if not sizes else \
        f"nonlinear rows have at most {max(sizes)} values"
    return _met(label, claim, solvable, f"{note}; dl={rep.dl}")


def check_cdc3_solvable(table: CharTable, rep: InvariantReport,
                        label: str) -> Verdict:
    """cdc of size at most 3 forces solvability, barring the alternating
    composition factors A5 and A6, which the table's chief factors rule
    out or show (solvable groups have only cyclic composition factors)."""
    claim = "cdc3_solvable"
    free = rep.dl is not None or a5a6_free(table)
    if not (free and len(rep.cdc) <= 3):
        return _vacuous(
            label, claim,
            f"|cdc|={len(rep.cdc)}, excluded-factor-free={free}")
    return _met(label, claim, rep.dl is not None,
                f"|cdc|={len(rep.cdc)}; dl={rep.dl}")


def cdc2_shape(table: CharTable, rep: InvariantReport) -> str | None:
    """Which cdc-size-2 classification shape the group matches, if any.

    Returns "frobenius_3" for a Frobenius group with elementary abelian
    3-kernel, order-2 complement, and degrees {1,2}; "s4" for the
    symmetric-group-on-4-points fingerprint; None otherwise.
    """
    g, cd = table.group, table.classes
    kernel = rep.flags.frobenius
    if kernel is not None and 2 * mask_size(cd, kernel) == g.order \
            and rep.cd == (1, 2) and _elementary_abelian_section(cd, kernel, 3):
        return "frobenius_3"
    if g.order == 24 and rep.dl == 3 \
            and tuple(sorted(table.classes.sizes)) == (1, 3, 6, 6, 8) \
            and table.degrees == (1, 1, 2, 3, 3):
        return "s4"
    return None


def check_cdc2_shape(table: CharTable, rep: InvariantReport,
                     label: str) -> Verdict:
    """For nonabelian groups with few degrees or short derived length,
    cdc has size 2 exactly on the two classified shapes."""
    claim = "cdc2_shape"
    if rep.flags.is_abelian:
        return _vacuous(label, claim, "abelian")
    short = rep.dl is not None and rep.dl <= 3
    if not (len(rep.cd) <= 4 or short):
        return _vacuous(label, claim,
                        f"|cd|={len(rep.cd)} and dl={rep.dl}")
    shape = cdc2_shape(table, rep)
    concl = (len(rep.cdc) == 2) == (shape is not None)
    return _met(label, claim, concl,
                f"|cdc|={len(rep.cdc)}, shape={shape}")


def check_nilpotent_cdc3(table: CharTable, rep: InvariantReport,
                         label: str) -> Verdict:
    """For nonabelian nilpotent groups, three equivalent descriptions of
    |cdc|=3, and an extraspecial 2-group factor when they hold."""
    claim = "nilpotent_cdc3"
    flags = rep.flags
    if not flags.is_nilpotent or flags.is_abelian:
        return _vacuous(label, claim, "not nilpotent nonabelian")
    g = table.group
    pred_a = len(rep.cdc) == 3
    pred_b = len(rep.cd) == 2 and max(rep.per_char_cv_sizes) <= 3
    pred_c = (len(rep.cd) == 2 and flags.p_group_p == 2
              and all(cod == 2 * row.degree
                      for cod, row in zip(rep.cod, table.rows) if row.degree > 1))
    if not (pred_a == pred_b == pred_c):
        return _met(label, claim, False,
                    f"predicates disagree: a={pred_a} b={pred_b} c={pred_c}")
    if not pred_a:
        return _met(label, claim, True, "all three predicates false")
    if flags.is_extraspecial:
        return _met(label, claim, True,
                    "all three predicates true; group itself extraspecial")
    # If G/N is extraspecial, its centre of order p is its derived subgroup
    # and its unique minimal normal subgroup.  A nonlinear character of G/N
    # has a kernel without the derived subgroup, hence a trivial one, so N
    # is the kernel of a nonlinear row of G; the smallest N gives the order.
    sizes = [mask_size(table.classes, n)
             for n in {row.kernel for row in table.rows if row.degree > 1}
             if is_extraspecial(table, n)]
    if sizes:
        return _met(label, claim, True,
                    "all three predicates true; extraspecial factor "
                    f"group of order {g.order // min(sizes)}")
    return _met(label, claim, False, "no extraspecial factor group found")


def _sylow2_abelian(classes: ClassData, half: int, o2: int) -> bool:
    """Whether an element of 2-power order outside the index-2 subgroup
    half centralizes O_2, both class masks.  O_2 is normal, so a conjugate
    of an element centralizes it iff the element does."""
    return any(is_p_power(o, 2) and not half >> i & 1 and centralizes(classes, i, o2)
               for i, o in enumerate(classes.element_orders))


def check_nonnilpotent_cdc3(table: CharTable, rep: InvariantReport,
                            label: str) -> Verdict:
    """Non-nilpotent, |cdc|=3, derived length 2: the group is an abelian
    index-2 subgroup (elementary 3-part times its 2-core) with a flip.

    The direct 2-part is checked on G's own table: O_2 is central when its
    classes are singletons, and the Frobenius shape of G/O_2 is read off
    the rows whose kernels contain O_2.
    """
    claim = "nonnilpotent_cdc3"
    flags = rep.flags
    if flags.is_nilpotent:
        return _vacuous(label, claim, "nilpotent")
    if not (len(rep.cdc) == 3 and rep.dl == 2):
        return _vacuous(label, claim, f"|cdc|={len(rep.cdc)}, dl={rep.dl}")
    g, cd = table.group, table.classes
    o2 = flags.o_p.get(2, 1)
    if not is_abelian_section(cd, o2):
        return _met(label, claim, False, "2-core is nonabelian")
    # a subgroup of index 2 is the kernel of its quotient's sign, a linear row
    half = None
    for n in sort_masks(cd, {row.kernel for row in table.rows if row.degree == 1
                             and 2 * mask_size(cd, row.kernel) == g.order}):
        orders = [(i, o) for i, o in enumerate(cd.element_orders) if n >> i & 1]
        two = sum(1 << i for i, o in orders if is_p_power(o, 2))
        if all(o in (1, 3) for _, o in orders if o % 2 == 1) and two == o2 \
                and is_abelian_section(cd, n):
            half = n
            break
    if half is None:
        return _met(label, claim, False,
                    "no abelian index-2 subgroup with elementary 3-part "
                    "and matching 2-core")
    if not _sylow2_abelian(cd, half, o2):
        # no corpus group reaches this branch; the claimed shape of the
        # Sylow 2-subgroup is left unasserted
        return _met(label, claim, True,
                    "decomposition holds; Sylow 2-subgroup nonabelian")
    o2_classes = [i for i in range(cd.n_classes) if o2 >> i & 1]
    central = all(cd.sizes[i] == 1 for i in o2_classes)
    elementary2 = all(cd.element_orders[i] in (1, 2) for i in o2_classes)
    # G/O_2 is Frobenius with kernel K/O_2 and a complement of order 2
    kernel = frobenius_kernel(table, o2)
    frob_shape = (kernel is not None and 2 * mask_size(cd, kernel) == g.order
                  and _elementary_abelian_section(cd, kernel, 3, o2))
    concl = central and elementary2 and frob_shape
    return _met(label, claim, concl,
                "decomposition holds; abelian Sylow 2-subgroup, direct "
                f"2-part {'confirmed' if concl else 'REFUTED'}")


def check_two_degrees(table: CharTable, rep: InvariantReport,
                      label: str) -> Verdict:
    """Degree set {1, m}: an abelian normal subgroup of index m exists,
    or m is a prime power and the group is a p-group times an abelian
    group."""
    claim = "two_degrees"
    if len(rep.cd) != 2:
        return _vacuous(label, claim, f"|cd|={len(rep.cd)}")
    g, cd = table.group, table.classes
    m = rep.cd[1]
    primes = prime_factors(m)
    if len(primes) == 1 and rep.flags.is_nilpotent:
        p = primes[0]
        if all(is_abelian_section(cd, m) for q, m in rep.flags.o_p.items() if q != p):
            return _met(label, claim, True,
                        f"m={m}=prime power; nilpotent with abelian "
                        "coprime part")
    for n in large_normal_masks(table, g.order // m):
        if mask_size(cd, n) * m == g.order and is_abelian_section(cd, n):
            return _met(label, claim, True,
                        f"abelian normal subgroup of index {m}")
    return _met(label, claim, False, f"no abelian normal subgroup of index {m}")


def check_group(name: str, seed: int = 0) -> list[Verdict]:
    """All checkers against one catalog entry."""
    ent, g, cd, table, rep = catalog.bundle(name, seed)
    return [check(table, rep, ent.name) for check in (
        check_four_values_solvable, check_cdc3_solvable, check_cdc2_shape,
        check_nilpotent_cdc3, check_nonnilpotent_cdc3, check_two_degrees)]


# Each predicate is one claim of catalog.CLAIMS: cdc=K, ncv=K and rows<=K
# pin their claim to K, and rational pins its claim to True.
SCAN_CLAIMS = {"cdc=": "cdc_size", "ncv=": "ncv_size", "rows<=": "row_cv_max",
               "rational": "rational"}
_PREDICATES = re.compile(r"(cdc=|ncv=|rows<=)(\d+)|rational")


def scan(predicate: str, names: list[str] | None = None,
         seed: int = 0) -> list[str]:
    """Catalog names whose table meets the predicate's claim.

    Predicates: cdc=K, ncv=K, rows<=K, rational.
    """
    m = _PREDICATES.fullmatch(predicate)
    if m is None:
        raise ValueError(f"unknown predicate {predicate!r}")
    prefix, number = m.groups()
    key = SCAN_CLAIMS[prefix or predicate]
    want = True if number is None else int(number)
    if names is None:
        names = catalog.names("core")
    return sorted(name for name in names
                  if not catalog.unmet(key, want, *catalog.bundle(name, seed)[3:]))


def scan_checks(seed: int = 0) -> list[Verdict]:
    """Corpus-wide assertions over the core tier."""
    names = catalog.names("core")
    cdc2 = set(scan("cdc=2", names, seed))
    shaped, nonabelian, dl4, nonsolvable_ncv3 = set(), set(), set(), set()
    for name in names:
        _, _, _, table, rep = catalog.bundle(name, seed)
        if not rep.flags.is_abelian:
            nonabelian.add(name)
            if cdc2_shape(table, rep) is not None:
                shaped.add(name)
        if rep.dl == 4 and len(rep.cdc) == 2:
            dl4.add(name)
        if rep.dl is None and len(rep.ncv) == 3:
            nonsolvable_ncv3.add(name)
    return [
        _met("corpus", "cdc2_classified", (cdc2 & nonabelian) == shaped,
             f"nonabelian cdc-size-2 entries {sorted(cdc2 & nonabelian)} "
             f"vs classified shapes {sorted(shaped)}"),
        _met("corpus", "no_dl4_cdc2", not dl4,
             f"entries with dl=4 and |cdc|=2: {sorted(dl4)}"),
        _met("corpus", "ncv3_nonsolvable_unique",
             nonsolvable_ncv3 == {"sym_5"},
             f"nonsolvable entries with |ncv|=3: {sorted(nonsolvable_ncv3)}"),
    ]


def verify_names(names: list[str] | None = None, seed: int = 0,
                 include_scans: bool = True) -> list[Verdict]:
    """Run every checker over the given entries (default: core tier)."""
    if names is None:
        names = catalog.names("core")
    verdicts: list[Verdict] = []
    for name in sorted(names):
        verdicts.extend(check_group(name, seed))
    if include_scans:
        verdicts.extend(scan_checks(seed))
    return verdicts


def any_fail(verdicts: list[Verdict]) -> bool:
    return any(v.status == "FAIL" for v in verdicts)
