"""Value-set invariants of a character table.

From a finished table this derives the global value set cv, the degree
set cd, their difference cdc, the non-natural values ncv, per-row value
counts, codegrees, the largest degree, derived length, rationality, the
root-of-unity element classes, and the structural flag block.  All set
orderings are canonical (rationals numerically first, then display
strings), so reports serialize byte-identically across runs.
"""

from __future__ import annotations

from typing import NamedTuple

from .chartab import CharTable, codegree
from .cyclo import Cyc
from .permcore import (
    ClassData, StructureFlags, derived_length, mask_size, structure_flags,
)


class InvariantReport(NamedTuple):
    """Invariants of one group's character table."""

    order: int
    classes: ClassData
    cv: tuple[Cyc, ...]
    cd: tuple[int, ...]
    cdc: tuple[Cyc, ...]
    ncv: tuple[Cyc, ...]
    per_char_cv_sizes: tuple[int, ...]
    cod: tuple[int, ...]
    b: int
    dl: int | None
    is_rational_group: bool
    root_of_unity_elements: tuple[int, ...]
    flags: StructureFlags

    @property
    def class_count(self) -> int:
        return self.classes.n_classes

    def cv_displays(self) -> list[str]:
        return [v.display() for v in self.cv]

    def to_json_dict(self) -> dict:
        f, cd = self.flags, self.classes
        return {
            "order": self.order,
            "class_count": self.class_count,
            "cv": [v.display() for v in self.cv],
            "cd": list(self.cd),
            "cdc": [v.display() for v in self.cdc],
            "ncv": [v.display() for v in self.ncv],
            "per_char_cv_sizes": list(self.per_char_cv_sizes),
            "cod": list(self.cod),
            "b": self.b,
            "dl": self.dl,
            "is_rational_group": self.is_rational_group,
            "root_of_unity_elements": list(self.root_of_unity_elements),
            "flags": {
                "is_abelian": f.is_abelian,
                "elementary_abelian_p": f.elementary_abelian_p,
                "is_nilpotent": f.is_nilpotent,
                "p_group_p": f.p_group_p,
                "is_extraspecial": f.is_extraspecial,
                "o_p": {str(p): mask_size(cd, m) for p, m in sorted(f.o_p.items())},
                "frobenius": None if f.frobenius is None else {
                    "kernel_size": mask_size(cd, f.frobenius),
                    "complement_size": self.order // mask_size(cd, f.frobenius),
                },
            },
        }

    def __repr__(self):
        return (f"InvariantReport(order={self.order}, |cv|={len(self.cv)}, "
                f"|cdc|={len(self.cdc)}, b={self.b})")


def sorted_values(values) -> tuple[Cyc, ...]:
    """Canonical ordering: rationals numerically, then display strings."""
    return tuple(sorted(values, key=lambda v: v.sort_key()))


def root_of_unity_elements(table: CharTable) -> tuple[int, ...]:
    """Classes on which every irreducible value has modulus 1.

    A cyclotomic integer of modulus 1 is a root of unity: complex
    conjugation is central in the Galois group, so every Galois conjugate
    has modulus 1 too, and Kronecker's theorem applies.  Only classes
    with |G| = k |C_i| are read: if every |chi(g)| = 1, the second
    orthogonality relation gives |C_G(g)| = sum |chi(g)|^2 = k.
    """
    cd, order = table.classes, table.group.order
    k = cd.n_classes
    return tuple(i for i, size in enumerate(cd.sizes) if order == k * size
                 and all(r.values[i].is_root_of_unity() for r in table.rows))


def report(table: CharTable) -> InvariantReport:
    """Full invariant report for a verified table."""
    group = table.group
    cv_set: set[Cyc] = set()
    for r in table.rows:
        cv_set.update(r.values)
    cd_set = {r.degree for r in table.rows}
    cdc_set = {v for v in cv_set if not (v.is_integer() and v.as_int() in cd_set)}
    ncv_set = {v for v in cv_set if not v.is_positive_natural()}
    per_sizes = tuple(len(set(r.values)) for r in table.rows)
    cods = tuple(codegree(table, i) for i in range(len(table.rows)))
    flags = structure_flags(table)
    return InvariantReport(
        order=group.order,
        classes=table.classes,
        cv=sorted_values(cv_set),
        cd=tuple(sorted(cd_set)),
        cdc=sorted_values(cdc_set),
        ncv=sorted_values(ncv_set),
        per_char_cv_sizes=per_sizes,
        cod=cods,
        b=max(cd_set),
        dl=derived_length(table),
        is_rational_group=all(v.is_rational() for v in cv_set),
        root_of_unity_elements=root_of_unity_elements(table),
        flags=flags,
    )
