"""Symmetric-group character values via the Murnaghan-Nakayama rule.

Characters of S_n are indexed by partitions of n and evaluated on cycle
types.  Values come from the border-strip recursion, with strips located
through the beta-set (first-column hook) encoding; degrees come from the
hook length formula.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
from functools import cache

from .permcore import InvariantViolation

# largest n for mn_value: the recursion nests n deep and its memo grows with
# the subdiagrams it reaches.  The slowest case found at 45 (400 sampled
# partitions against cycle types of parts up to 3), (9, 7, 5, 5, 3, 3, 3,
# 1^10) against 2^20 1^5, takes 0.11 s and 2 545 memo entries, and 3^15
# about 0.02 s (2-core VM, CPython 3.11.7); an all-ones cycle type costs
# one hook length product
MAX_N = 45


class SizeMismatch(ValueError):
    """Partition and cycle type describe different symmetric groups."""


def _check_partition(parts, label: str) -> tuple[int, ...]:
    parts = tuple(int(x) for x in parts)
    for i, x in enumerate(parts):
        if x < 1:
            raise ValueError(f"{label} parts must be positive, got {x}")
        if i and parts[i - 1] < x:
            raise ValueError(f"{label} parts must be weakly decreasing: {parts}")
    return parts


def conjugate_partition(lam) -> tuple[int, ...]:
    lam = _check_partition(lam, "partition")
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


def is_self_conjugate(lam) -> bool:
    """Whether the partition equals its transpose.

    chi_lam restricts irreducibly to the alternating group exactly when
    this is False.
    """
    lam = _check_partition(lam, "partition")
    return conjugate_partition(lam) == lam


def hook_degree(lam) -> int:
    """Degree of the S_n character indexed by lam (hook length formula)."""
    lam = _check_partition(lam, "partition")
    n = sum(lam)
    conj = conjugate_partition(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = conj[j] - i - 1
            prod *= arm + leg + 1
    num = math.factorial(n)
    if num % prod:
        raise InvariantViolation(f"hook product {prod} does not divide {n}!")
    return num // prod


def mn_value(lam, rho) -> int:
    """Exact character value chi_lam on the class of cycle type rho.

    Args:
      lam: partition of n indexing the character.
      rho: cycle type, a partition of the same n.

    Raises:
      SizeMismatch: the two do not partition the same n.
      ValueError: n is above MAX_N.
    """
    lam = _check_partition(lam, "partition")
    rho = _check_partition(rho, "cycle type")
    if sum(lam) != sum(rho):
        raise SizeMismatch(f"partition of {sum(lam)} against cycle type of {sum(rho)}")
    if sum(lam) > MAX_N:
        raise ValueError(f"symmetric group degree {sum(lam)} above {MAX_N}")
    return _mn(lam, rho)


@cache
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1
    s = rho[0]
    if s == 1:  # rho is weakly decreasing, so it is all ones: the degree
        return hook_degree(lam)
    rest = rho[1:]
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    total = 0
    for b in beta:
        if b >= s and (b - s) not in bset:
            height = sum(1 for c in beta if b - s < c < b)
            nb = sorted((c for c in beta if c != b), reverse=True)
            nb.append(b - s)
            nb.sort(reverse=True)
            newlam = tuple(x - (r - 1 - i) for i, x in enumerate(nb))
            while newlam and newlam[-1] == 0:
                newlam = newlam[:-1]
            term = _mn(newlam, rest)
            total += -term if height & 1 else term
    return total


def partitions(n: int, max_part: int | None = None):
    """All partitions of n, descending-lex order, as tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for tail in partitions(n - first, first):
            yield (first,) + tail


def clear_memo() -> None:
    _mn.cache_clear()
